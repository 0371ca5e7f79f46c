"""Persist completed span trees to a ``/traces`` sublog — traces dogfooded.

Alerts already live in the append-only store itself
(:class:`~repro.obs.slo.AlertLog`, under ``/alerts``); this module gives
traces the same treatment.  The write-once medium is the
natural home for an audit trail — an immutable record of what each request
caused, including the device work performed *after* the client reply
(Section 3.3's delayed-write window) — and the encoding is sorted-key JSON,
so identical runs burn byte-identical trace logs.

Because every request cannot be kept forever, the :class:`TraceLog`
applies deterministic **head/tail sampling** per window of finished root
spans: the first ``head_keep`` roots of each window (the head — always
representative of steady state), the ``slowest_keep`` slowest (the tail —
where the latency stories are), every root that recorded an error, and
every root belonging to a trace that was already kept (so a multi-root
trace is never persisted half).  The policy is count- and sim-time-based —
never random — so two identical runs sample identically.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from repro.core.catalog import CatalogError
from repro.obs.canonical import canonical_json
from repro.obs.tracing import Span, SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.logfile import LogFile
    from repro.core.service import LogService

__all__ = ["TraceLog", "encode_span", "decode_span", "read_traces"]


def encode_span(span: Span) -> bytes:
    """One span tree as deterministic (sorted-key, compact) JSON bytes."""
    return canonical_json(span.as_dict()).encode()


def decode_span(data: bytes) -> Span:
    """Rebuild a span tree from its persisted record."""
    record = json.loads(data.decode())
    if not isinstance(record, dict):
        raise ValueError(f"not a span record: {record!r}")
    return Span.from_dict(record)


def read_traces(service: "LogService", path: str = "/traces") -> list[Span]:
    """Every span tree persisted at ``path``, in append order.  Raises
    :class:`~repro.core.catalog.CatalogError` when the store has no such
    log file; :func:`repro.obs.critical_path.per_trace` groups the result
    into requests."""
    entries = service.open_log_file(path).entries()
    return [decode_span(entry.data) for entry in entries]


def _has_error(root: Span) -> bool:
    return any("error" in span.attributes for span in root.walk())


class TraceLog:
    """Collect finished root spans and persist a sampled subset.

    Attaches to the service tracer's ``on_finish`` hook, so every finished
    root span flows through :meth:`observe`; :meth:`persist` closes the
    current sampling window and appends the kept spans to the ``/traces``
    log file (created on first use).  Persistence runs with tracing and
    journalling suppressed — the trace log must not generate feedback
    traces of its own appends.
    """

    def __init__(
        self,
        service: "LogService",
        path: str = "/traces",
        window: int = 32,
        head_keep: int = 4,
        slowest_keep: int = 4,
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.service = service
        self.path = path
        self.window = window
        self.head_keep = head_keep
        self.slowest_keep = slowest_keep
        try:
            self.log: "LogFile" = service.open_log_file(path)
        except CatalogError:
            self.log = service.create_log_file(path)
        self._window_roots: list[Span] = []
        self._pending: list[Span] = []
        self._kept_trace_ids: set[str] = set()
        self.observed = 0
        self.sampled_out = 0
        tracer = service.tracer
        if isinstance(tracer, SpanTracer):
            tracer.on_finish = self.observe

    # -- collection ------------------------------------------------------

    def observe(self, root: Span) -> None:
        """Feed one finished root span into the current sampling window."""
        self.observed += 1
        self._window_roots.append(root)
        if len(self._window_roots) >= self.window:
            self._close_window()

    def _close_window(self) -> None:
        """Apply the head/tail sampling policy to the accumulated window."""
        roots = self._window_roots
        self._window_roots = []
        if not roots:
            return
        keep = set(range(min(self.head_keep, len(roots))))
        by_duration = sorted(
            range(len(roots)),
            key=lambda i: (-roots[i].duration_us, i),
        )
        keep.update(by_duration[: self.slowest_keep])
        for i, root in enumerate(roots):
            if _has_error(root):
                keep.add(i)
            elif root.trace_id is not None and (
                root.trace_id in self._kept_trace_ids
            ):
                # The rest of an already-kept trace: a multi-root trace
                # (client flush + deferred delivery) is never cut in half.
                keep.add(i)
        for i in sorted(keep):
            if roots[i].trace_id is not None:
                self._kept_trace_ids.add(roots[i].trace_id)
            self._pending.append(roots[i])
        self.sampled_out += len(roots) - len(keep)

    # -- persistence -----------------------------------------------------

    def persist(self) -> int:
        """Close the open window and append the kept spans; returns count."""
        self._close_window()
        pending, self._pending = self._pending, []
        if not pending:
            return 0
        tracer = self.service.tracer
        journal = self.service.store.journal
        with tracer.suppress(), journal.suppress():
            for root in pending:
                self.log.append(encode_span(root), timestamped=False)
            self.service.sync()
        return len(pending)

    # -- read side -------------------------------------------------------

    def read_back(self) -> list[Span]:
        """Decode every persisted span tree, in append order."""
        return read_traces(self.service, self.path)
