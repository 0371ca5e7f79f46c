"""Tests for the Prometheus text exposition and JSON snapshot exporters."""

import json
import math

from repro.obs import MetricsRegistry, json_snapshot, prometheus_text


def build_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reads = reg.counter(
        "clio_device_reads_total", help="Blocks read", labelnames=("volume",)
    )
    reads.labels(volume="0").inc(7)
    reads.labels(volume="1").inc(2)
    reg.gauge("clio_cache_hit_ratio", help="Hit ratio").set(0.75)
    lat = reg.histogram("clio_append_ms", help="Append latency", buckets=(1, 5))
    for value in (0.5, 2.0, 99.0):
        lat.observe(value)
    return reg


class TestPrometheusText:
    def test_help_type_and_samples_rendered(self):
        text = prometheus_text(build_registry())
        assert "# HELP clio_device_reads_total Blocks read" in text
        assert "# TYPE clio_device_reads_total counter" in text
        assert 'clio_device_reads_total{volume="0"} 7' in text
        assert "clio_cache_hit_ratio 0.75" in text

    def test_histogram_series_cumulative_with_inf(self):
        text = prometheus_text(build_registry())
        assert 'clio_append_ms_bucket{le="1"} 1' in text
        assert 'clio_append_ms_bucket{le="5"} 2' in text
        assert 'clio_append_ms_bucket{le="+Inf"} 3' in text
        assert "clio_append_ms_sum 101.5" in text
        assert "clio_append_ms_count 3" in text

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        c = reg.counter("esc_total", labelnames=("path",))
        c.labels(path='a"b\\c\nd').inc()
        text = prometheus_text(reg)
        assert 'esc_total{path="a\\"b\\\\c\\nd"} 1' in text

    def test_infinite_and_nan_values_rendered(self):
        reg = MetricsRegistry()
        reg.gauge("x_now").set(math.inf)
        reg.gauge("y_now").set(-math.inf)
        reg.gauge("z_now").set(math.nan)
        lines = prometheus_text(reg).splitlines()
        assert {"x_now +Inf", "y_now -Inf", "z_now NaN"} <= set(lines)


class TestJsonSnapshot:
    def test_snapshot_is_json_serializable_and_complete(self):
        snap = json_snapshot(build_registry())
        encoded = json.loads(json.dumps(snap))
        names = [f["name"] for f in encoded["families"]]
        assert names == sorted(names)
        by_name = {f["name"]: f for f in encoded["families"]}
        reads = by_name["clio_device_reads_total"]
        assert reads["kind"] == "counter"
        assert {"labels": {"volume": "0"}, "value": 7.0} in reads["samples"]
        (hist_sample,) = by_name["clio_append_ms"]["samples"]
        assert hist_sample["count"] == 3
        assert hist_sample["buckets"][-1] == {"le": "+Inf", "count": 3}

    def test_snapshot_deterministic(self):
        assert json_snapshot(build_registry()) == json_snapshot(build_registry())


class TestMultiLabelExposition:
    def build_multi_label_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        ops = reg.counter(
            "clio_ops_total",
            help="Operations by kind and volume",
            labelnames=("kind", "volume"),
        )
        ops.labels(kind="read", volume="0").inc(5)
        ops.labels(kind="read", volume="1").inc(2)
        ops.labels(kind="write", volume="0").inc(9)
        lat = reg.histogram(
            "clio_op_ms",
            help="Latency by kind",
            labelnames=("kind",),
            buckets=(1, 10),
        )
        lat.labels(kind="read").observe(0.4)
        lat.labels(kind="read").observe(5.0)
        lat.labels(kind="write").observe(50.0)
        return reg

    def test_every_counter_child_has_its_own_series(self):
        lines = prometheus_text(self.build_multi_label_registry()).splitlines()
        assert 'clio_ops_total{kind="read",volume="0"} 5' in lines
        assert 'clio_ops_total{kind="read",volume="1"} 2' in lines
        assert 'clio_ops_total{kind="write",volume="0"} 9' in lines

    def test_labelled_histogram_children_keep_their_labels(self):
        lines = prometheus_text(self.build_multi_label_registry()).splitlines()
        assert 'clio_op_ms_bucket{kind="read",le="1"} 1' in lines
        assert 'clio_op_ms_bucket{kind="read",le="+Inf"} 2' in lines
        assert 'clio_op_ms_count{kind="read"} 2' in lines
        assert 'clio_op_ms_sum{kind="write"} 50' in lines

    def test_exposition_is_deterministic(self):
        assert prometheus_text(
            self.build_multi_label_registry()
        ) == prometheus_text(self.build_multi_label_registry())
