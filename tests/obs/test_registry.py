"""Tests for the metrics registry: counters, gauges, histograms, labels."""

import pytest

from repro.obs.registry import (
    COUNT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LabelCardinalityError,
    MetricError,
    MetricsRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("ops_total")
        assert c.value == 0
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_negative_increment_rejected(self):
        c = MetricsRegistry().counter("ops_total")
        with pytest.raises(MetricError):
            c.inc(-1)

    def test_set_total_mirrors_external_counter(self):
        c = MetricsRegistry().counter("reads_total")
        c.set_total(17)
        assert c.value == 17

    def test_labelless_family_exports_before_first_increment(self):
        reg = MetricsRegistry()
        reg.counter("quiet_total")
        (family,) = reg.collect()
        assert family.samples == (((), 0.0),)


class TestGauge:
    def test_set_overwrites(self):
        g = MetricsRegistry().gauge("resident_blocks")
        g.set(10)
        g.set(7)
        assert g.value == 7


class TestHistogram:
    def test_observations_land_in_cumulative_buckets(self):
        h = MetricsRegistry().histogram("batch", buckets=(1, 4, 16))
        for value in (1, 2, 5, 100):
            h.observe(value)
        ((_, snap),) = h._collect_samples()
        assert snap.count == 4
        assert snap.sum == 108
        # Cumulative: <=1 holds one, <=4 holds two, <=16 holds three,
        # +Inf holds all four.
        assert snap.buckets == ((1.0, 1), (4.0, 2), (16.0, 3), (float("inf"), 4))

    def test_bucket_bounds_sorted_and_unique(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.histogram("dup", buckets=(1, 1, 2))
        with pytest.raises(MetricError):
            reg.histogram("empty", buckets=())
        h = reg.histogram("unsorted", buckets=(16, 1, 4))
        assert h.buckets == (1.0, 4.0, 16.0)


class TestLabels:
    def test_children_are_independent(self):
        c = MetricsRegistry().counter("io_total", labelnames=("volume",))
        c.labels(volume="0").inc(2)
        c.labels(volume="1").inc(5)
        assert c.labels(volume="0").value == 2
        assert c.labels(volume="1").value == 5

    def test_wrong_label_names_rejected(self):
        c = MetricsRegistry().counter("io_total", labelnames=("volume",))
        with pytest.raises(MetricError):
            c.labels(disk="0")
        with pytest.raises(MetricError):
            c.labels()

    def test_labelled_metric_has_no_default_child(self):
        c = MetricsRegistry().counter("io_total", labelnames=("volume",))
        with pytest.raises(MetricError):
            c.inc()

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(MetricError):
            reg.counter("bad-name")
        with pytest.raises(MetricError):
            reg.counter("ok_total", labelnames=("bad-label",))
        with pytest.raises(MetricError):
            Counter("ok_total", "", labelnames=("dup", "dup"))

    def test_cardinality_limit_enforced(self):
        c = Counter("hot", "", labelnames=("k",), max_label_sets=3)
        for i in range(3):
            c.labels(k=str(i)).inc()
        with pytest.raises(LabelCardinalityError):
            c.labels(k="3")
        # Existing children stay reachable after the limit trips.
        assert c.labels(k="0").value == 1


class TestRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("ops_total", help="first wins")
        b = reg.counter("ops_total", help="ignored")
        assert a is b
        assert a.help == "first wins"

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("ops_total")
        with pytest.raises(MetricError):
            reg.gauge("ops_total")

    def test_collect_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zebra")
        reg.gauge("alpha")
        assert [f.name for f in reg.collect()] == ["alpha", "zebra"]

    def test_samplers_run_on_collect(self):
        reg = MetricsRegistry()
        external = {"reads": 0}
        gauge = reg.gauge("reads_now")

        def sample(r):
            gauge.set(external["reads"])

        reg.register_sampler(sample)
        external["reads"] = 9
        (family,) = reg.collect()
        assert family.samples == (((), 9.0),)
        external["reads"] = 12
        (family,) = reg.collect()
        assert family.samples == (((), 12.0),)

    def test_get(self):
        reg = MetricsRegistry()
        c = reg.counter("b_total")
        assert reg.get("b_total") is c
        assert reg.get("missing") is None


class TestStandardBuckets:
    def test_count_buckets_are_powers_of_two(self):
        assert all(b & (b - 1) == 0 for b in COUNT_BUCKETS)

    def test_gauge_and_histogram_importable_directly(self):
        assert Gauge("g", "").kind == "gauge"
        assert Histogram("h", "", buckets=(1,)).kind == "histogram"


class TestQuantile:
    def make_histogram(self, observations, buckets=(1, 2, 4, 8)):
        h = Histogram("h", "", buckets=buckets)
        for value in observations:
            h.observe(value)
        return h

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
        h = self.make_histogram([0.5, 1.5, 3.0, 6.0])
        snapshot = h._default.snapshot()
        for q in (0.1, 0.5, 0.9):
            assert snapshot.quantile(q) == h.quantile(q)

    def test_monotone_in_q(self):
        h = self.make_histogram([0.3, 0.9, 1.1, 2.5, 3.9, 7.5, 9.0])
        quantiles = [h.quantile(q / 20) for q in range(21)]
        assert quantiles == sorted(quantiles)
