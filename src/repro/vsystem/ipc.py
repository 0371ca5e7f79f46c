"""Synchronous and asynchronous client-server IPC simulation.

The V-System is a message-passing system: clients reach the file/log server
through synchronous IPC ("Send"), and the paper measures that primitive at
0.5–1 ms locally and 2.5–3 ms across workstations.  :class:`IpcChannel`
charges those costs on the simulated clock around an arbitrary server
operation, and :class:`AsyncPort` models the asynchronous (unacknowledged)
write path used by clients that do not need a reply — the case Section 2.1
addresses with client-generated sequence numbers.

Messages carry an optional :class:`MessageHeader` with the sender's
:class:`~repro.vsystem.instrument.TraceContext`.  Draining a deferred
delivery re-activates that context on the server's tracer, so the spans it
opens — work done *after* the client reply, Section 3.3's
delayed-write window — join the originating request's trace instead of
starting unrelated trees.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable

from repro.vsystem.clock import SimClock
from repro.vsystem.costs import SUN3, CostModel
from repro.vsystem.instrument import NULL_TRACER, TraceContext, TracerLike

__all__ = ["IpcChannel", "AsyncPort", "MessageHeader"]


@dataclass(frozen=True, slots=True)
class MessageHeader:
    """Out-of-band message metadata riding alongside the operation.

    Today that is only the causal trace context; the header is a struct
    (not a bare field) so future metadata travels the same path.
    """

    context: TraceContext | None = None


class IpcChannel:
    """A synchronous request/response channel to a server."""

    def __init__(
        self,
        clock: SimClock,
        cost_model: CostModel = SUN3,
        remote: bool = False,
        tracer: TracerLike = NULL_TRACER,
    ) -> None:
        self.clock = clock
        self.cost_model = cost_model
        self.remote = remote
        self.tracer = tracer
        self.calls = 0

    def call(
        self,
        operation: Callable[[], Any],
        header: MessageHeader | None = None,
    ) -> Any:
        """Invoke ``operation`` on the server, charging one round trip.

        The round-trip cost is attributed to the caller's open span (if
        any); a header's context is activated around the server work so
        spans it opens join the sender's trace even when the channel's
        tracer has no span on its stack.
        """
        cost = self.cost_model.ipc_ms(self.remote)
        self.clock.advance_ms(cost)
        self.tracer.charge("ipc", cost)
        self.calls += 1
        context = header.context if header is not None else None
        with self.tracer.activate(context):
            return operation()


class AsyncPort:
    """An asynchronous one-way port: sends queue, the server drains later.

    Models clients that log without waiting (Section 2.1's non-synchronous
    writers).  ``send`` charges only the local enqueue cost; ``drain``
    executes queued operations at the server.  A crash before ``drain``
    loses the queued suffix — tests use this to demonstrate why such clients
    need the (sequence number, client timestamp) identification scheme.
    """

    def __init__(
        self,
        clock: SimClock,
        cost_model: CostModel = SUN3,
        enqueue_ms: float = 0.05,
        tracer: TracerLike = NULL_TRACER,
    ) -> None:
        self.clock = clock
        self.cost_model = cost_model
        self.enqueue_ms = enqueue_ms
        self.tracer = tracer
        self._queue: deque[tuple[Callable[[], Any], MessageHeader | None]] = (
            deque()
        )
        self.sends = 0

    def send(
        self,
        operation: Callable[[], Any],
        header: MessageHeader | None = None,
    ) -> None:
        self.clock.advance_ms(self.enqueue_ms)
        self.tracer.charge("ipc", self.enqueue_ms)
        self.sends += 1
        self._queue.append((operation, header))

    def __len__(self) -> int:
        return len(self._queue)

    def drain(self) -> list[Any]:
        """Execute all queued operations in order; returns their results.

        Each delivery runs under its header's trace context: the spans it
        opens become roots of the *sender's* trace (same trace id, parent
        pointing at the sending span), which is exactly the causal record
        of the delayed-write window — the reply happened at ``send`` time,
        the device work happens here.
        """
        results: list[Any] = []
        while self._queue:
            operation, header = self._queue.popleft()
            context = header.context if header is not None else None
            with self.tracer.activate(context):
                results.append(operation())
        return results

    def drop_all(self) -> int:
        """Simulate a crash losing the queued operations; returns the count."""
        lost = len(self._queue)
        self._queue.clear()
        return lost
