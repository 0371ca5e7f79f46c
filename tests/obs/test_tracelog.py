"""Tests for the /traces sublog: deterministic span encoding, the
head/tail sampling policy, suppression (no feedback traces), and the
read side that the ``clio trace`` subcommands are built on."""

import pytest

from repro.core import LogService
from repro.obs import Span, TraceContext, TraceLog
from repro.obs.critical_path import per_trace
from repro.obs.tracelog import decode_span, encode_span


def make_service():
    return LogService.create(
        block_size=512,
        degree_n=4,
        volume_capacity_blocks=2048,
        observability=True,
    )


def finished_span(name, start, end, **attributes):
    span = Span(name, start, dict(attributes) or None, trace_id="t", span_id=1)
    span.end_us = end
    return span


class TestEncoding:
    def test_round_trip_preserves_the_tree(self):
        root = finished_span("append", 0, 150, logfile_id=7)
        root.add_cost("device", 1.5)
        child = finished_span("device.io", 100, 150, op="write")
        child.span_id, child.parent_id = 2, 1
        root.children.append(child)
        rebuilt = decode_span(encode_span(root))
        assert rebuilt.as_dict() == root.as_dict()

    def test_encoding_is_deterministic_and_sorted(self):
        span = finished_span("read", 5, 9, z=1, a=2)
        first, second = encode_span(span), encode_span(span)
        assert first == second
        assert first.index(b'"attributes"') < first.index(b'"children"')
        assert first.index(b'"children"') < first.index(b'"name"')

    def test_decode_rejects_non_span_records(self):
        with pytest.raises(ValueError):
            decode_span(b"[1, 2, 3]")
        with pytest.raises(ValueError):
            decode_span(b'{"not": "a span"}')


class TraceLogHarness:
    """A service plus a small-window TraceLog driven by hand-timed spans."""

    def __init__(self, window=4, head_keep=1, slowest_keep=1):
        self.service = make_service()
        self.tracelog = TraceLog(
            self.service,
            window=window,
            head_keep=head_keep,
            slowest_keep=slowest_keep,
        )
        self.tracer = self.service.tracer
        self.tracer.clear()

    def root(self, name, duration_ms=0.0, context=None, fail=False):
        """Finish one root span of the given simulated duration."""
        with self.tracer.activate(context):
            try:
                with self.tracer.span(name) as span:
                    if duration_ms:
                        self.service.clock.advance_ms(duration_ms)
                    if fail:
                        raise RuntimeError("injected")
            except RuntimeError:
                pass
        return span


class TestSamplingPolicy:
    def test_head_and_slowest_kept_rest_sampled_out(self):
        h = TraceLogHarness(window=4, head_keep=1, slowest_keep=1)
        h.root("op-head")
        h.root("op-mid", duration_ms=1.0)
        h.root("op-slow", duration_ms=50.0)
        h.root("op-tail", duration_ms=1.0)  # closes the window
        kept = {span.name for span in h.tracelog._pending}
        assert kept == {"op-head", "op-slow"}
        assert h.tracelog.observed == 4
        assert h.tracelog.sampled_out == 2

    def test_error_roots_always_kept(self):
        h = TraceLogHarness(window=4, head_keep=1, slowest_keep=1)
        h.root("op-head")
        h.root("op-slow", duration_ms=50.0)
        h.root("op-error", fail=True)
        h.root("op-tail")
        kept = {span.name for span in h.tracelog._pending}
        assert "op-error" in kept
        assert h.tracelog.sampled_out == 1

    def test_kept_trace_ids_are_sticky_across_windows(self):
        h = TraceLogHarness(window=4, head_keep=1, slowest_keep=1)
        sticky = TraceContext("req-1")
        # Window 1: the sticky trace's first root is the head keep.
        h.root("client.flush", context=sticky)
        h.root("w1-b", duration_ms=9.0)
        h.root("w1-c")
        h.root("w1-d")
        # Window 2: its second root is neither head nor slowest, but the
        # trace was already kept, so the forest is not cut in half.
        h.root("w2-head")
        h.root("w2-slow", duration_ms=50.0)
        h.root("append_many", duration_ms=0.1, context=sticky)
        h.root("w2-tail")
        kept = [span.name for span in h.tracelog._pending]
        assert "append_many" in kept
        assert "w2-tail" not in kept

    def test_short_final_window_closed_by_persist(self):
        h = TraceLogHarness(window=32)
        h.root("only-root", duration_ms=1.0)
        assert h.tracelog._pending == []
        assert h.tracelog.persist() == 1
        (root,) = h.tracelog.read_back()
        assert root.name == "only-root"


class TestPersistence:
    def test_persist_generates_no_feedback_traces(self):
        h = TraceLogHarness(window=8)
        h.root("append", duration_ms=1.0)
        before = len(h.tracer.recent())
        assert h.tracelog.persist() == 1
        # The persist appends ran suppressed: no new roots, and a second
        # persist has nothing left to write.
        assert len(h.tracer.recent()) == before
        assert h.tracelog.persist() == 0

    def test_read_back_in_append_order(self):
        h = TraceLogHarness(window=2, head_keep=2, slowest_keep=0)
        h.root("first")
        h.root("second")
        h.root("third")
        h.root("fourth")
        h.tracelog.persist()
        assert [s.name for s in h.tracelog.read_back()] == [
            "first", "second", "third", "fourth",
        ]

    def test_traces_groups_the_forest_by_trace_id(self):
        h = TraceLogHarness(window=8, head_keep=8)
        ctx = TraceContext("req-9", span_id=3)
        h.root("client.flush", context=ctx)
        h.root("append_many", context=ctx)
        h.root("read")
        h.tracelog.persist()
        grouped = {
            summary.key: summary.roots
            for summary in per_trace(h.tracelog.read_back())
        }
        assert [s.name for s in grouped["req-9"]] == [
            "client.flush", "append_many",
        ]
        assert all(s.parent_id == 3 for s in grouped["req-9"])
        # The untraced-context root minted its own id.
        other = [tid for tid in grouped if tid != "req-9"]
        assert len(other) == 1 and other[0].startswith("s")

    def test_persisted_log_survives_crash_and_remount(self):
        h = TraceLogHarness(window=8)
        h.root("append", duration_ms=2.0)
        h.tracelog.persist()
        remains = h.service.crash()
        mounted, _report = LogService.mount(remains.devices, remains.nvram)
        log = mounted.open_log_file("/traces")
        spans = [decode_span(entry.data) for entry in log.entries()]
        assert [s.name for s in spans] == ["append"]

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            TraceLog(make_service(), window=0)
