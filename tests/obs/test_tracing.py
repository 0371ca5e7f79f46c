"""Tests for sim-time span tracing: nesting, bounds, determinism, and the
span-tree/counter cross-check for one append plus one cold read."""

import pytest

from repro.core import LogService
from repro.obs import NULL_TRACER, Span, SpanTracer, TraceContext, format_span_tree


class FakeClock:
    """Minimal stand-in exposing the SimClock attribute the tracer reads."""

    def __init__(self):
        self.now_us = 0

    def tick(self, us: int = 1) -> None:
        self.now_us += us


class TestSpanTracer:
    def test_nesting_and_timestamps(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        with tracer.span("append", logfile_id=7) as outer:
            clock.tick(100)
            with tracer.span("device.io", op="write"):
                clock.tick(50)
            outer.set("bytes", 10)
        root = tracer.last("append")
        assert root is outer
        assert root.attributes == {"logfile_id": 7, "bytes": 10}
        assert (root.start_us, root.end_us, root.duration_us) == (0, 150, 150)
        (child,) = root.children
        assert child.name == "device.io"
        assert (child.start_us, child.end_us) == (100, 150)

    def test_exception_recorded_and_span_finished(self):
        tracer = SpanTracer(FakeClock())
        try:
            with tracer.span("read"):
                raise KeyError("missing")
        except KeyError:
            pass
        root = tracer.last("read")
        assert root.attributes["error"] == "KeyError"
        assert root.end_us is not None

    def test_walk_and_find(self):
        tracer = SpanTracer(FakeClock())
        with tracer.span("recovery"):
            with tracer.span("recovery.find_tail"):
                pass
            with tracer.span("recovery.rebuild_entrymap"):
                with tracer.span("device.io"):
                    pass
        root = tracer.last()
        assert [s.name for s in root.walk()] == [
            "recovery",
            "recovery.find_tail",
            "recovery.rebuild_entrymap",
            "device.io",
        ]
        assert len(root.find("device.io")) == 1

    def test_root_and_child_bounds(self):
        tracer = SpanTracer(FakeClock(), max_roots=2, max_children=3)
        for i in range(5):
            with tracer.span(f"op{i}"):
                pass
        assert [s.name for s in tracer.recent()] == ["op3", "op4"]
        with tracer.span("wide") as wide:
            for _ in range(10):
                with tracer.span("child"):
                    pass
        assert len(wide.children) == 3
        assert wide.dropped_children == 7
        assert "(7 more spans)" in format_span_tree(wide)

    def test_recent_limit_and_clear(self):
        tracer = SpanTracer(FakeClock())
        for i in range(4):
            with tracer.span(f"op{i}"):
                pass
        assert [s.name for s in tracer.recent(limit=2)] == ["op2", "op3"]
        tracer.clear()
        assert tracer.recent() == []
        assert tracer.last() is None

    def test_null_tracer_is_inert(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("append", x=1) as span:
            span.set("y", 2)
        with NULL_TRACER.span("read") as again:
            assert again is span  # one shared object, nothing recorded
        assert NULL_TRACER.recent() == []
        assert NULL_TRACER.last("append") is None


class TestCausalIdentity:
    def test_roots_mint_deterministic_trace_ids(self):
        clock = FakeClock()
        clock.now_us = 0x20
        tracer = SpanTracer(clock)
        with tracer.span("append") as first:
            pass
        clock.tick(0x10)
        with tracer.span("read") as second:
            pass
        assert first.trace_id == "s20.1"
        assert second.trace_id == "s30.2"
        assert (first.span_id, first.parent_id) == (1, None)

    def test_children_share_trace_id_with_parent_links(self):
        tracer = SpanTracer(FakeClock())
        with tracer.span("append") as outer:
            with tracer.span("device.io") as inner:
                pass
        assert inner.trace_id == outer.trace_id
        assert inner.parent_id == outer.span_id
        assert inner.span_id != outer.span_id

    def test_activate_adopts_context_for_new_roots(self):
        tracer = SpanTracer(FakeClock())
        with tracer.activate(TraceContext("c99.1", span_id=7)):
            with tracer.span("append_many") as adopted:
                pass
        assert adopted.trace_id == "c99.1"
        assert adopted.parent_id == 7
        # span_id=0 means "no sending span": same trace, no parent link.
        with tracer.activate(TraceContext("c99.2")):
            with tracer.span("append") as orphan:
                pass
        assert (orphan.trace_id, orphan.parent_id) == ("c99.2", None)
        # Outside activate, roots go back to minting their own ids.
        with tracer.span("read") as fresh:
            pass
        assert fresh.trace_id.startswith("s")

    def test_activate_none_is_a_no_op(self):
        tracer = SpanTracer(FakeClock())
        with tracer.activate(None):
            assert tracer.context() is None
            with tracer.span("read") as sp:
                pass
        assert sp.trace_id.startswith("s")

    def test_context_reports_innermost_open_span(self):
        tracer = SpanTracer(FakeClock())
        assert tracer.context() is None
        with tracer.span("append") as sp:
            assert tracer.context() == TraceContext(sp.trace_id, sp.span_id)
            with tracer.span("device.io") as inner:
                assert tracer.context() == TraceContext(
                    inner.trace_id, inner.span_id
                )
        assert tracer.context() is None

    def test_suppress_disables_spans_and_charges(self):
        tracer = SpanTracer(FakeClock())
        with tracer.span("append") as outer:
            with tracer.suppress():
                with tracer.span("device.io") as inner:
                    inner.set("ignored", 1)
                tracer.charge("device", 1.0)
        assert outer.children == []
        assert outer.costs is None
        assert inner.trace_id is None  # the shared inert span
        assert tracer.recent() == [outer]

    def test_suppress_restores_tracing_after_exception(self):
        tracer = SpanTracer(FakeClock())
        with pytest.raises(RuntimeError):
            with tracer.suppress():
                raise RuntimeError("boom")
        with tracer.span("append") as sp:
            pass
        assert tracer.recent() == [sp]

    def test_nested_suppress_with_exception_keeps_depth_consistent(self):
        tracer = SpanTracer(FakeClock())
        with tracer.suppress():
            with pytest.raises(ValueError):
                with tracer.suppress():
                    raise ValueError("inner")
            # Inner exit must not unwind the outer suppression.
            with tracer.span("hidden"):
                pass
        assert tracer.recent() == []
        with tracer.span("visible") as sp:
            pass
        assert tracer.recent() == [sp]

    def test_on_finish_sees_roots_only(self):
        tracer = SpanTracer(FakeClock())
        finished = []
        tracer.on_finish = finished.append
        with tracer.span("append"):
            with tracer.span("device.io"):
                pass
        with tracer.span("read"):
            pass
        assert [span.name for span in finished] == ["append", "read"]

    def test_charge_outside_any_span_is_dropped(self):
        tracer = SpanTracer(FakeClock())
        tracer.charge("device", 1.0)  # nothing open; must not raise
        assert tracer.recent() == []

    def test_span_dict_round_trip_preserves_identity(self):
        clock = FakeClock()
        tracer = SpanTracer(clock)
        with tracer.span("append", logfile_id=7) as sp:
            clock.tick(100)
            tracer.charge("device", 1.5)
            with tracer.span("device.io", op="write"):
                clock.tick(50)
        rebuilt = Span.from_dict(sp.as_dict())
        assert rebuilt.as_dict() == sp.as_dict()
        assert rebuilt.trace_id == sp.trace_id
        assert rebuilt.children[0].parent_id == sp.span_id
        assert rebuilt.costs == {"device": 1.5}
        # A record written by another version may carry keys this one does
        # not know; they are ignored, not an error.
        foreign = dict(sp.as_dict(), stamped_by_another_version=5)
        assert Span.from_dict(foreign).as_dict() == sp.as_dict()


class TestNullTracerParity:
    def drive(self, tracer):
        """The full tracer surface, as instrumentation points exercise it."""
        with tracer.activate(TraceContext("t", 1)):
            with tracer.span("append", k=1) as sp:
                sp.set("x", 2)
                sp.add_cost("device", 1.0)
                tracer.charge("ipc", 0.5)
        with tracer.suppress():
            with tracer.span("read"):
                pass
        tracer.mint_trace_id()
        tracer.clear()
        return (tracer.recent(), tracer.last(), tracer.context())

    def test_same_call_sequence_observable_parity(self):
        assert self.drive(SpanTracer(FakeClock())) == ([], None, None)
        assert self.drive(NULL_TRACER) == ([], None, None)

    def test_null_tracer_identities_are_inert(self):
        assert NULL_TRACER.mint_trace_id() == "s0.0"
        span = NULL_TRACER.span("append")
        assert span.trace_id is None
        assert span.span_id == 0
        assert span.parent_id is None


class TestFormatSpanTree:
    def test_unfinished_span_renders_unknown_duration(self):
        span = Span("append", 10)
        text = format_span_tree(span)
        assert "+?us" in text
        assert "[10us" in text

    def test_max_roots_eviction_keeps_newest(self):
        tracer = SpanTracer(FakeClock(), max_roots=3)
        for i in range(7):
            with tracer.span(f"op{i}"):
                pass
        assert [s.name for s in tracer.recent()] == ["op4", "op5", "op6"]
        assert tracer.last("op0") is None


def make_service(**kwargs):
    defaults = dict(
        block_size=256,
        degree_n=4,
        volume_capacity_blocks=1024,
        cache_capacity_blocks=512,
        observability=True,
    )
    defaults.update(kwargs)
    return LogService.create(**defaults)


def run_workload():
    service = make_service()
    log = service.create_log_file("/app")
    for i in range(20):
        log.append(f"entry {i}".encode())
    result = log.append(b"final", force=True)
    log.read(result.entry_id)
    return service


class TestDeterminism:
    def test_identical_runs_produce_identical_span_trees(self):
        first = run_workload()
        second = run_workload()
        render = lambda svc: "\n".join(
            format_span_tree(root) for root in svc.tracer.recent()
        )
        assert render(first) == render(second)
        assert first.tracer.recent()  # the comparison was not vacuous


class TestSpanTreeMatchesCounters:
    def test_append_and_cold_read_spans_match_device_and_cache_counts(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(30):
            log.append(f"warmup {i}".encode())
        target = log.append(b"the entry we will read cold", force=True)

        # Crash and remount: the cache is volatile, so the next read is cold.
        remains = service.crash()
        mounted, _report = LogService.mount(
            remains.devices, remains.nvram, observability=True
        )
        assert mounted.tracer.last("recovery") is not None

        mounted.tracer.clear()
        # Recovery's entrymap scan warmed the cache; empty it so the read
        # below is genuinely cold.
        mounted.store.cache.clear()
        cache = mounted.store.cache.stats
        device = mounted.devices[0].stats
        cache_before = cache.snapshot()
        device_before = device.snapshot()

        entry = mounted.read_entry("/app", target.entry_id)
        assert entry is not None and entry.data == b"the entry we will read cold"

        read_span = mounted.tracer.last("read")
        assert read_span is not None
        fills = read_span.find("cache.fill")
        device_reads = [
            s for s in read_span.find("device.io") if s.attributes["op"] == "read"
        ]
        cache_delta = cache.delta(cache_before)
        device_delta = device.delta(device_before)
        assert len(fills) == cache_delta.misses > 0
        assert len(device_reads) == device_delta.reads > 0
        # Every device read happened inside a cache fill; the fill records
        # which block it loaded.
        for fill in fills:
            assert "block" in fill.attributes

    def test_append_span_accounts_for_block_writes(self):
        service = make_service()
        log = service.create_log_file("/app")
        device = service.devices[0].stats
        before = device.snapshot()
        service.tracer.clear()
        log.append(b"x" * 600, force=True)  # spans >2 blocks at 256 B/block
        append_span = service.tracer.last("append")
        writes = [
            s
            for s in append_span.find("device.io")
            if s.attributes["op"] == "write"
        ]
        assert len(writes) == device.delta(before).writes >= 2
