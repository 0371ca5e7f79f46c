"""Tests for the metrics registry: families read at collection time,
histograms, and the label rules ``metric_value`` enforces."""

from types import SimpleNamespace

import pytest

from repro.obs.registry import (
    COUNT_BUCKETS,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.slo import metric_value


def one(read):
    return lambda: [((), float(read()))]


def per_volume(values):
    return lambda: [
        ((("volume", str(index)),), float(value))
        for index, value in enumerate(values)
    ]


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        external = {"ops": 0}
        reg.add("ops_total", "counter", "", one(lambda: external["ops"]))
        assert reg.get("ops_total").samples == (((), 0.0),)
        external["ops"] += 1
        external["ops"] += 3
        assert reg.get("ops_total").samples == (((), 4.0),)

    def test_set_total_mirrors_external_counter(self):
        reg = MetricsRegistry()
        stats = SimpleNamespace(reads=17)
        reg.add("reads_total", "counter", "", one(lambda: stats.reads))
        assert reg.get("reads_total").samples == (((), 17.0),)

    def test_labelless_family_exports_before_first_increment(self):
        reg = MetricsRegistry()
        reg.add("quiet_total", "counter", "", one(lambda: 0))
        (family,) = reg.collect()
        assert family.samples == (((), 0.0),)


class TestGauge:
    def test_set_overwrites(self):
        reg = MetricsRegistry()
        box = [10]
        reg.add("resident_blocks", "gauge", "", one(lambda: box[0]))
        box[0] = 7
        assert reg.get("resident_blocks").samples == (((), 7.0),)


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("batch", "", buckets=(1, 4, 16))
        for value in (1, 2, 5, 100):
            h.observe(value)
        ((_, snap),) = reg.get("batch").samples
        assert snap.count == 4
        assert snap.sum == 108
        # Cumulative: <=1 holds one, <=4 holds two, <=16 holds three,
        # +Inf holds all four.
        assert snap.buckets == ((1.0, 1), (4.0, 2), (16.0, 3), (float("inf"), 4))

    def test_bucket_bounds_sorted_and_unique(self):
        with pytest.raises(ValueError):
            Histogram(buckets=(1, 1, 2))
        with pytest.raises(ValueError):
            Histogram(buckets=())
        assert Histogram(buckets=(16, 1, 4)).bounds == (1.0, 4.0, 16.0)


class TestLabels:
    def registry(self):
        reg = MetricsRegistry()
        reg.add("io_total", "counter", "", per_volume([2, 5]))
        reg.add("ops_total", "counter", "", one(lambda: 3))
        return SimpleNamespace(metrics=reg)

    def test_children_are_independent(self):
        service = self.registry()
        assert metric_value(service, "io_total{volume=0}") == 2
        assert metric_value(service, "io_total{volume=1}") == 5
        # A label value no sample carries counts nothing.
        assert metric_value(service, "io_total{volume=9}") == 0

    def test_wrong_label_names_rejected(self):
        service = self.registry()
        with pytest.raises(ValueError, match=r"takes labels \{volume\}"):
            metric_value(service, "io_total{disk=0}")
        with pytest.raises(ValueError, match="takes labels none"):
            metric_value(service, "ops_total{volume=0}")

    def test_labelled_metric_has_no_default_child(self):
        # An unlabelled spec on a labelled family names no sample: it is
        # an error, not the first volume's value.
        with pytest.raises(ValueError, match=r"takes labels \{volume\}"):
            metric_value(self.registry(), "io_total")


class TestRegistry:
    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.add("ops_total", "counter", "", one(lambda: 0))
        with pytest.raises(ValueError):
            reg.add("ops_total", "gauge", "", one(lambda: 0))
        with pytest.raises(ValueError):
            reg.histogram("ops_total", "")

    def test_collect_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.add("zebra", "counter", "", one(lambda: 0))
        reg.add("alpha", "gauge", "", one(lambda: 0))
        assert [f.name for f in reg.collect()] == ["alpha", "zebra"]

    def test_get(self):
        reg = MetricsRegistry()
        reg.add("b_total", "counter", "help", per_volume([1, 2, 3] * 4))
        family = reg.get("b_total")
        assert isinstance(family, MetricFamily)
        assert (family.name, family.kind, family.help) == (
            "b_total",
            "counter",
            "help",
        )
        # Samples sort by label value as strings: "10" before "2".
        volumes = [labels[0][1] for labels, _ in family.samples]
        assert volumes[:4] == ["0", "1", "10", "11"]
        assert reg.get("missing") is None


class TestStandardBuckets:
    def test_count_buckets_are_powers_of_two(self):
        assert all(b & (b - 1) == 0 for b in COUNT_BUCKETS)


class TestQuantile:
    def make_histogram(self, observations, buckets=(1, 2, 4, 8)):
        h = Histogram(buckets=buckets)
        for value in observations:
            h.observe(value)
        return h.snapshot()

    def test_empty_histogram_is_zero(self):
        h = self.make_histogram([])
        assert h.quantile(0.5) == 0.0

    def test_out_of_range_quantile_rejected(self):
        h = self.make_histogram([1.0])
        with pytest.raises(ValueError):
            h.quantile(1.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)

    def test_linear_interpolation_within_bucket(self):
        # 10 observations all landing in the (2, 4] bucket: the median
        # interpolates to the middle of that bucket.
        h = self.make_histogram([3.0] * 10)
        assert h.quantile(0.5) == pytest.approx(3.0)
        assert h.quantile(0.25) == pytest.approx(2.5)
        assert h.quantile(1.0) == pytest.approx(4.0)

    def test_lowest_bucket_interpolates_from_zero(self):
        h = self.make_histogram([0.5] * 4)
        assert h.quantile(0.5) == pytest.approx(0.5)
        assert h.quantile(1.0) == pytest.approx(1.0)

    def test_overflow_rank_clamps_to_highest_finite_bound(self):
        h = self.make_histogram([100.0] * 5)  # all in the +Inf bucket
        assert h.quantile(0.99) == 8.0

    def test_quantiles_across_buckets(self):
        # one observation per bucket: ranks split evenly
        h = self.make_histogram([0.5, 1.5, 3.0, 6.0])
        assert h.quantile(0.25) == pytest.approx(1.0)
        assert h.quantile(0.5) == pytest.approx(2.0)
        assert h.quantile(0.75) == pytest.approx(4.0)

    def test_snapshot_value_quantile_matches_histogram(self):
        # The registry's collected value is the instrument's snapshot.
        reg = MetricsRegistry()
        h = reg.histogram("h", "", buckets=(1, 2, 4, 8))
        for value in (0.5, 1.5, 3.0, 6.0):
            h.observe(value)
        ((_, collected),) = reg.get("h").samples
        for q in (0.1, 0.5, 0.9):
            assert collected.quantile(q) == h.snapshot().quantile(q)

    def test_monotone_in_q(self):
        h = self.make_histogram([0.3, 0.9, 1.1, 2.5, 3.9, 7.5, 9.0])
        quantiles = [h.quantile(q / 20) for q in range(21)]
        assert quantiles == sorted(quantiles)
