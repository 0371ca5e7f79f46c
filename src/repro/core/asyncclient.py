"""A batching, asynchronous log client (Section 2.1's second writer kind).

"Some applications — for example, database transaction recovery
mechanisms — need to uniquely identify a written log entry without the
write operation being synchronous.  One possible approach is for the
client to use a unique identifier consisting of (1) a client-specified
sequence number (that is written as part of the log entry), and (2) a
client-generated timestamp."

:class:`AsyncLogClient` implements that contract over the V-System's
asynchronous IPC model: ``submit`` queues an entry locally (cheap, no
round trip) and immediately returns its :class:`ClientEntryId`; batches
drain to the server on ``flush`` or when ``batch_size`` is reached.  After
a crash anywhere in the pipeline, :meth:`confirm` resolves which submitted
entries actually reached permanent storage — "the timestamp is used to
determine the approximate location of the entry within the log file [and]
the sequence number is then used to identify the specific entry."

Correctness "depends on the sequence number not wrapping around within the
maximum possible time skew between the client and the server": the client
enforces exactly that precondition and refuses to wrap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.ids import ClientEntryId
from repro.core.logfile import LogFile
from repro.vsystem.clock import SkewedClock
from repro.vsystem.instrument import TraceContext
from repro.vsystem.ipc import AsyncPort, MessageHeader

__all__ = ["AsyncLogClient", "SequenceWrapError"]

_SEQ_LIMIT = 1 << 32


class SequenceWrapError(RuntimeError):
    """The 32-bit sequence number would wrap within the skew window."""


@dataclass(frozen=True, slots=True)
class _Pending:
    client_id: ClientEntryId
    data: bytes


class AsyncLogClient:
    """Batched asynchronous writer for one log file."""

    def __init__(
        self,
        log_file: LogFile,
        port: AsyncPort,
        client_clock: SkewedClock,
        batch_size: int = 16,
        max_skew_us: int = 1_000_000,
        force_batches: bool = True,
        server_batching: bool = False,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.log_file = log_file
        self.port = port
        self.client_clock = client_clock
        self.batch_size = batch_size
        self.max_skew_us = max_skew_us
        self.force_batches = force_batches
        #: Deliver each flushed batch through the server's group-commit
        #: operation (one IPC/timestamp charge for the batch) instead of
        #: per-entry appends.  Off by default: the paper's cost model
        #: charges every asynchronous write as its own server operation.
        self.server_batching = server_batching
        self._next_seq = 1
        self._batch: list[_Pending] = []
        self._wrap_guard_ts: int | None = None
        self.submitted = 0
        self.flushed_batches = 0
        self._trace_seq = 0
        #: The trace id of the most recent flush (None when tracing is
        #: disabled) — how callers correlate a submit with its trace.
        self.last_trace_id: str | None = None

    # -- write path ----------------------------------------------------------

    def submit(self, data: bytes) -> ClientEntryId:
        """Queue one entry; returns its identity immediately (no IPC)."""
        seq = self._next_seq
        if seq >= _SEQ_LIMIT:
            # Wrapping would alias identities unless a full skew window has
            # elapsed since sequence 1 was used — the paper's correctness
            # condition.  We simply refuse; 2^32 entries per client clock
            # epoch is the documented capacity.
            raise SequenceWrapError("client sequence number space exhausted")
        self._next_seq += 1
        client_id = ClientEntryId(
            sequence_number=seq, client_timestamp=self.client_clock.timestamp()
        )
        pending = _Pending(client_id=client_id, data=data)
        self._batch.append(pending)
        self.submitted += 1
        if len(self._batch) >= self.batch_size:
            self.flush()
        return client_id

    def flush(self) -> int:
        """Hand the queued batch to the asynchronous port; returns count.

        The port delivers later (``drain``); a crash before drain loses the
        batch — which is exactly what :meth:`confirm` detects.
        """
        if not self._batch:
            return 0
        batch, self._batch = self._batch, []
        log_file = self.log_file
        force = self.force_batches

        if self.server_batching:

            def deliver(entries=tuple(batch)):
                log_file.append_many(
                    [pending.data for pending in entries],
                    client_seqs=[
                        pending.client_id.sequence_number for pending in entries
                    ],
                    force=force,
                )

        else:

            def deliver(entries=tuple(batch)):
                for index, pending in enumerate(entries):
                    last = index == len(entries) - 1
                    log_file.append(
                        pending.data,
                        client_seq=pending.client_id.sequence_number,
                        force=force and last,
                    )

        tracer = log_file.service.tracer
        if tracer.enabled:
            # Mint the request's causal identity deterministically from the
            # client's clock plus a per-client sequence (never random), and
            # send it in the message header: the spans the deferred
            # delivery opens at drain time — after this call returned —
            # join this trace.
            self._trace_seq += 1
            trace_id = f"c{self.client_clock.now_us:x}.{self._trace_seq:x}"
            self.last_trace_id = trace_id
            if self.port.tracer is not tracer:
                self.port.tracer = tracer
            with tracer.activate(TraceContext(trace_id=trace_id)):
                with tracer.span(
                    "client.flush",
                    entries=len(batch),
                    batching=self.server_batching,
                ):
                    self.port.send(
                        deliver, header=MessageHeader(context=tracer.context())
                    )
        else:
            self.port.send(deliver)
        self.flushed_batches += 1
        return len(batch)

    # -- confirmation ---------------------------------------------------------

    def confirm(self, client_id: ClientEntryId) -> bool:
        """Did this submitted entry reach permanent storage?"""
        return (
            self.log_file.find(client_id, max_skew_us=self.max_skew_us)
            is not None
        )

    def confirm_all(self, client_ids) -> dict[ClientEntryId, bool]:
        return {client_id: self.confirm(client_id) for client_id in client_ids}
