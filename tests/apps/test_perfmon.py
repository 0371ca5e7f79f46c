"""Tests for the performance-monitoring application."""

import pytest

from repro.apps.perfmon import MetricsLog, SeriesStats
from repro.core import LogService


def make_metrics():
    service = LogService.create(
        block_size=512, degree_n=4, volume_capacity_blocks=2048
    )
    return service, MetricsLog(service)


class TestRecording:
    def test_record_and_read_back(self):
        service, metrics = make_metrics()
        metrics.record("cpu", 0.42)
        metrics.record("cpu", 0.55)
        samples = metrics.samples("cpu")
        assert [s.value for s in samples] == [0.42, 0.55]
        assert all(s.metric == "cpu" for s in samples)

    def test_metrics_isolated(self):
        service, metrics = make_metrics()
        metrics.record("cpu", 1.0)
        metrics.record("disk", 2.0)
        assert [s.value for s in metrics.samples("cpu")] == [1.0]
        assert [s.value for s in metrics.samples("disk")] == [2.0]

    def test_all_samples_interleaved_in_order(self):
        service, metrics = make_metrics()
        metrics.record("a", 1.0)
        metrics.record("b", 2.0)
        metrics.record("a", 3.0)
        assert [s.value for s in metrics.all_samples()] == [1.0, 2.0, 3.0]

    def test_metric_names_listed(self):
        service, metrics = make_metrics()
        metrics.record("cpu", 1.0)
        metrics.record("net", 1.0)
        assert metrics.metrics() == ["cpu", "net"]

    def test_observed_time_recorded(self):
        service, metrics = make_metrics()
        metrics.record("cpu", 1.0)
        service.clock.advance_ms(1000)
        metrics.record("cpu", 2.0)
        samples = metrics.samples("cpu")
        assert samples[1].observed_us - samples[0].observed_us >= 1_000_000


class TestAggregation:
    def test_stats_over_all_samples(self):
        service, metrics = make_metrics()
        for value in (1.0, 2.0, 3.0, 10.0):
            metrics.record("latency", value)
        stats = metrics.stats("latency")
        assert stats.count == 4
        assert stats.mean == pytest.approx(4.0)
        assert stats.minimum == 1.0
        assert stats.maximum == 10.0

    def test_stats_over_window(self):
        service, metrics = make_metrics()
        metrics.record("qps", 100.0)
        service.clock.advance_ms(60_000)
        window_start = service.clock.now_us
        metrics.record("qps", 200.0)
        metrics.record("qps", 300.0)
        stats = metrics.stats("qps", start_us=window_start)
        assert stats.count == 2
        assert stats.mean == pytest.approx(250.0)

    def test_empty_stats(self):
        service, metrics = make_metrics()
        metrics.record("other", 1.0)
        stats = metrics.stats("other", start_us=10**15)
        assert stats.count == 0
        assert stats.mean == 0.0

    def test_empty_window_extrema_are_none_not_inf(self):
        service, metrics = make_metrics()
        metrics.record("other", 1.0)
        stats = metrics.stats("other", start_us=10**15)
        assert stats.minimum is None
        assert stats.maximum is None
        never = metrics.stats("never_recorded")
        assert never.minimum is None and never.maximum is None

    def test_fold_from_empty(self):
        stats = SeriesStats()
        assert stats.minimum is None and stats.maximum is None
        stats.fold(5.0)
        stats.fold(2.0)
        assert stats.minimum == 2.0
        assert stats.maximum == 5.0


class TestIngestRegistry:
    def test_registry_samples_become_series(self):
        service, metrics = make_metrics()
        registry = service.metrics  # lazily wires the full catalog
        recorded = metrics.ingest_registry(registry, prefix="clio.")
        assert recorded > 0
        names = metrics.metrics()
        # Counters/gauges appear as flat series; labelled children carry
        # their label path; histograms split into .sum/.count.
        assert "clio.clio_writer_client_entries_total" in names
        assert "clio.clio_device_reads_total.volume.0" in names
        assert "clio.clio_append_latency_ms.sum" in names
        assert "clio.clio_append_latency_ms.count" in names

    def test_repeated_ingestion_builds_a_time_series(self):
        service, metrics = make_metrics()
        app = service.create_log_file("/app")
        registry = service.metrics
        for round_entries in (3, 5):
            for i in range(round_entries):
                app.append(b"x")
            metrics.ingest_registry(registry, prefix="clio.")
        series = metrics.stats("clio.clio_writer_client_entries_total")
        assert series.count == 2
        assert series.maximum > series.minimum  # the counter moved


class TestDurability:
    def test_checkpointed_samples_survive_crash(self):
        service, metrics = make_metrics()
        for i in range(10):
            metrics.record("cpu", float(i))
        metrics.checkpoint()
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        metrics2 = MetricsLog(mounted)
        assert [s.value for s in metrics2.samples("cpu")] == [float(i) for i in range(10)]

    def test_uncheckpointed_tail_may_be_lost(self):
        service = LogService.create(
            block_size=512,
            degree_n=4,
            volume_capacity_blocks=2048,
            nvram_tail=False,
        )
        metrics = MetricsLog(service)
        metrics.record("cpu", 1.0)  # lives only in the unburned tail
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        metrics2 = MetricsLog(mounted)
        assert metrics2.samples("cpu") == []


class TestIngestIdempotence:
    def test_reingesting_unchanged_registry_appends_nothing(self):
        from repro.obs import MetricsRegistry

        service, metrics = make_metrics()
        registry = MetricsRegistry()  # standalone: nothing moves it
        registry.add("jobs_total", "counter", "", lambda: [((), 4.0)])
        registry.add("queue_depth", "gauge", "", lambda: [((), 2.0)])
        hist = registry.histogram("job_ms", "", buckets=(1, 10))
        hist.observe(0.5)
        first = metrics.ingest_registry(registry, prefix="app.")
        assert first == 4  # counter, gauge, hist .sum and .count
        assert metrics.ingest_registry(registry, prefix="app.") == 0
        assert metrics.stats("app.jobs_total").count == 1

    def test_self_monitoring_dedupes_only_unmoved_series(self):
        service, metrics = make_metrics()
        registry = service.metrics
        metrics.ingest_registry(registry, prefix="clio.")
        # The ingest's own appends move writer/clock series, but a static
        # gauge like the cache capacity must not re-record.
        before = metrics.stats("clio.clio_cache_capacity_blocks").count
        metrics.ingest_registry(registry, prefix="clio.")
        assert metrics.stats("clio.clio_cache_capacity_blocks").count == before

    def test_moved_series_still_recorded_after_dedupe(self):
        service, metrics = make_metrics()
        app = service.create_log_file("/app")
        registry = service.metrics
        app.append(b"x")
        metrics.ingest_registry(registry, prefix="clio.")
        app.append(b"y")
        metrics.ingest_registry(registry, prefix="clio.")
        series = metrics.stats("clio.clio_writer_client_entries_total")
        assert series.count == 2
        assert series.maximum > series.minimum
