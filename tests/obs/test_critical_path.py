"""Tests for the span-cost fold (``repro.obs.critical_path``): one
summary type grouped per operation or per request, the critical path, the
layer table — including the acceptance bar: charged components must
account for busy sim time to within 1%."""

import pytest

from repro.core import LogService
from repro.core.asyncclient import AsyncLogClient
from repro.obs.critical_path import (
    LAYERS,
    PathStep,
    critical_path,
    format_explanation,
    format_summary_line,
    per_operation,
    per_trace,
    summarize,
)
from repro.obs.tracing import Span
from repro.vsystem.clock import SkewedClock
from repro.vsystem.ipc import AsyncPort


def span(name, start, end, *, span_id=1, costs=None, children=(), error=False):
    s = Span(name, start, trace_id="t", span_id=span_id)
    s.end_us = end
    if costs:
        s.costs = dict(costs)
    s.children.extend(children)
    if error:
        s.attributes["error"] = "RuntimeError"
    return s


def two_root_trace():
    """A client root plus a deferred delivery 100us later (the gap)."""
    flush = span(
        "client.flush", 0, 300, span_id=1, costs={"ipc": 0.3},
    )
    force = span(
        "writer.force", 500, 540, span_id=4, costs={"device": 0.04},
    )
    deliver = span(
        "append_many",
        400,
        600,
        span_id=3,
        costs={"write_fixed": 0.16},
        children=[force],
    )
    return [flush, deliver]


def make_service(**kwargs) -> LogService:
    kwargs.setdefault("block_size", 512)
    kwargs.setdefault("degree_n", 4)
    kwargs.setdefault("volume_capacity_blocks", 4096)
    kwargs.setdefault("observability", True)
    return LogService.create(**kwargs)


def run_mixed_workload(service, entries=150):
    service.tracer.max_roots = 100_000
    log = service.create_log_file("/work")
    for i in range(entries):
        log.append(b"p" * (20 + (i % 5) * 40), force=(i % 16 == 0))
    service.sync()
    with service.tracer.span("read", path="/work") as sp:
        sp.set("entries", sum(1 for _ in service.read_entries("/work")))
    return log


class TestComponentBreakdown:
    def test_sums_over_the_whole_forest(self):
        assert summarize("t", two_root_trace()).components == pytest.approx(
            {"ipc": 0.3, "write_fixed": 0.16, "device": 0.04}
        )

    def test_uncharged_spans_contribute_nothing(self):
        assert summarize("t", [span("read", 0, 10)]).components == {}

    def test_append_span_carries_cost_components(self):
        service = make_service()
        service.create_log_file("/a").append(b"x" * 100, force=True)
        components = summarize("a", [service.tracer.last("append")]).components
        # Section 3.2's write decomposition: IPC + fixed + copy + timestamp
        # + entrymap maintenance.
        for component in (
            "ipc",
            "write_fixed",
            "copy",
            "timestamp",
            "entrymap_maint",
        ):
            assert components.get(component, 0.0) > 0.0, component

    def test_component_sum_matches_span_duration(self):
        service = make_service()
        service.create_log_file("/a").append(b"x" * 64)
        one = summarize("a", [service.tracer.last("append")])
        assert abs(one.attributed_ms - one.total_ms) < 0.01

    def test_fold_order_is_walk_order(self):
        """The workload artifact rounds these sums, so the accumulation
        order (roots in causal order, each subtree depth first) is part of
        the contract: first appearance decides the component order."""
        summary = summarize("t", reversed(two_root_trace()))
        assert list(summary.components) == ["ipc", "write_fixed", "device"]
        assert [root.name for root in summary.roots] == [
            "client.flush", "append_many",
        ]


class TestPerOperation:
    def test_groups_by_operation(self):
        service = make_service()
        run_mixed_workload(service)
        breakdowns = per_operation(service.tracer.recent())
        names = {b.key for b in breakdowns}
        assert "append" in names
        assert "read" in names
        append = next(b for b in breakdowns if b.key == "append")
        assert append.count == 150
        assert append.total_ms > 0

    def test_attribution_within_one_percent(self):
        """The acceptance bar: summed components equal the tracer's total
        sim-time within 1% over a locate-heavy workload."""
        service = make_service()
        run_mixed_workload(service, entries=300)
        overall = summarize("all", service.tracer.recent())
        assert overall.total_ms > 0
        assert abs(overall.coverage - 1.0) < 0.01

    def test_sorted_by_total_time(self):
        service = make_service()
        run_mixed_workload(service)
        totals = [b.total_ms for b in per_operation(service.tracer.recent())]
        assert totals == sorted(totals, reverse=True)

    def test_mean_and_coverage_properties(self):
        service = make_service()
        run_mixed_workload(service, entries=50)
        append = next(
            b
            for b in per_operation(service.tracer.recent())
            if b.key == "append"
        )
        assert append.mean_ms * append.count == pytest.approx(append.total_ms)
        assert 0.99 <= append.coverage <= 1.01

    def test_counters_the_spans_carry_are_summed(self):
        service = make_service()
        run_mixed_workload(service, entries=60)
        read = next(
            b for b in per_operation(service.tracer.recent()) if b.key == "read"
        )
        examined = service.reader.stats.search.entrymap_entries_examined
        assert read.counters.get("entries_examined", 0) == examined
        assert read.layer_spans["service"] == 1


class TestCriticalPath:
    def test_descends_into_the_longest_child(self):
        fast = span("cache.fill", 0, 10, span_id=2)
        slow = span(
            "device.io", 10, 90, span_id=3, costs={"device": 0.08}
        )
        root = span("read", 0, 100, span_id=1, children=[fast, slow])
        steps = critical_path([root])
        assert [(s.name, s.depth) for s in steps] == [
            ("read", 0), ("device.io", 1),
        ]
        assert steps[0].self_us == 100 - 10 - 80
        assert steps[1].dominant_component == "device"
        assert [s.layer for s in steps] == ["service", "device"]

    def test_multi_root_path_in_causal_order(self):
        steps = critical_path(two_root_trace())
        assert [s.name for s in steps] == [
            "client.flush", "append_many", "writer.force",
        ]
        assert all(isinstance(s, PathStep) for s in steps)

    def test_dominant_component_tie_breaks_by_name(self):
        tied = span("append", 0, 10, costs={"copy": 1.0, "device": 1.0})
        (step,) = critical_path([tied])
        assert step.dominant_component == "copy"


class TestTraceSummary:
    def test_busy_idle_and_components(self):
        summary = summarize("t", two_root_trace())
        assert summary.busy_us == 300 + 200
        assert summary.idle_us == 600 - 0 - 500  # the delayed-write gap
        assert [r.name for r in summary.roots] == ["client.flush", "append_many"]
        assert summary.span_count == 3
        assert list(summary.components) == ["ipc", "write_fixed", "device"]
        assert summary.attributed_ms == pytest.approx(0.5)
        assert summary.coverage == pytest.approx(1.0)
        assert not summary.error

    def test_error_anywhere_flags_the_trace(self):
        failing = span("append", 0, 10, error=True)
        assert summarize("t", [failing]).error

    def test_empty_forest_rejected(self):
        with pytest.raises(ValueError):
            summarize("t", [])

    def test_summaries_sorted_oldest_first(self):
        late = span("read", 900, 950)
        late.trace_id = "late"
        early = span("append", 0, 100)
        early.trace_id = "early"
        assert [s.key for s in per_trace([late, early])] == ["early", "late"]


class TestTopTraces:
    """``CostSummary.cost_ms`` is the key ``clio why --slowest`` sorts by."""

    def make_summaries(self):
        slow = span("append", 0, 1000, costs={"write_fixed": 0.9})
        io_heavy = span("read", 100, 600, costs={"device": 0.45})
        quick = span("locate", 200, 250, costs={"entrymap": 0.05})
        for trace_id, root in (("slow", slow), ("io", io_heavy), ("quick", quick)):
            root.trace_id = trace_id
        return per_trace([slow, io_heavy, quick])

    def ranked(self, component=None):
        summaries = self.make_summaries()
        summaries.sort(key=lambda s: (-s.cost_ms(component), s.start_us))
        return [s.key for s in summaries]

    def test_slowest_by_total_duration(self):
        assert self.ranked()[:2] == ["slow", "io"]

    def test_by_component_cost(self):
        # Traces without the component sort after, deterministically.
        assert self.ranked("device") == ["io", "slow", "quick"]


class TestLayers:
    def test_every_charged_component_belongs_to_a_layer(self):
        """A component the table does not know would print under "other";
        these are all the ones the engine and the workload harness charge."""
        known = {c for _prefixes, components in LAYERS.values() for c in components}
        assert known == {
            "ipc", "write_fixed", "read_fixed", "clock_resume",
            "workload_think", "timestamp", "entrymap_maint",
            "cache_interpret", "copy", "device",
        }

    def test_layer_times_partition_the_attributed_time(self):
        summary = summarize("t", two_root_trace())
        layers = summary.layer_ms()
        assert list(layers) == list(LAYERS)
        assert layers["ipc"] == pytest.approx(0.3)
        assert layers["service"] == pytest.approx(0.16)
        assert layers["device"] == pytest.approx(0.04)
        assert sum(layers.values()) == pytest.approx(summary.attributed_ms)
        assert summary.layer_spans == {
            "ipc": 1, "service": 1, "writer/reader": 1,
        }


class TestFormatting:
    def test_summary_line_is_compact(self):
        line = format_summary_line(summarize("t", two_root_trace()))
        assert line.startswith(
            "t  log=- roots=2 spans=3 busy=0.500ms idle=0.100ms"
        )
        assert "ipc=0.300ms" in line

    def test_critical_path_report_shows_coverage(self):
        text = format_explanation(summarize("t", two_root_trace()))
        assert "delayed-write gap 0.100ms" in text
        assert "  ipc           client.flush  [0us +300us self=300us] <- ipc" in text
        assert "  writer/reader   writer.force" in text
        assert "components:" in text
        assert "(100.0% coverage)" in text


class TestAcceptanceBar:
    """Per-trace attributed component costs equal busy sim time within 1%."""

    def run_traced_request(self):
        service = LogService.create(observability=True)
        app = service.create_log_file("/app")
        port = AsyncPort(service.clock, tracer=service.tracer)
        client = AsyncLogClient(
            app,
            port,
            SkewedClock(service.clock, skew_us=0),
            batch_size=8,
            server_batching=True,
            force_batches=True,
        )
        for i in range(5):
            client.submit(b"payload %d" % i)
        client.flush()
        service.clock.advance_ms(3.0)  # the delayed-write window
        port.drain()
        trace_id = client.last_trace_id
        roots = [
            root
            for root in service.tracer.recent()
            if root.trace_id == trace_id
        ]
        return summarize(trace_id, roots)

    def test_components_account_for_busy_time_within_1_percent(self):
        summary = self.run_traced_request()
        assert summary.busy_us > 0
        assert abs(summary.coverage - 1.0) <= 0.01

    def test_delayed_write_gap_is_visible(self):
        summary = self.run_traced_request()
        assert summary.idle_us >= 3000
        assert summary.count >= 2
