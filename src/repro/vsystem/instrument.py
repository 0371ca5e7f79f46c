"""The engine's instrumentation seam: what ``core``, ``worm``, ``cache``
and ``vsystem`` may call, and the inert objects they call when nothing is
attached.

Section 3's cost accounting belongs to the server (every clock advance
goes through :meth:`~repro.core.store.LogStore.charge`), so the contract
for observing it is owned here, below every engine package, and
:mod:`repro.obs` is a plug-in that implements it.  The engine holds four
slots on its :class:`~repro.core.store.LogStore`: ``tracer``
(:class:`TracerLike`), ``journal`` (:class:`JournalLike`), ``instruments``
(:class:`InstrumentsLike` or None, guarded by ``is not None``) and
``metrics`` (the plug-in's registry, held for it and never called).

The defaults are :data:`NULL_TRACER`, :data:`NULL_JOURNAL` and ``None``:
disabled, an instrumentation point is one no-op call or one attribute
check, and nothing of :mod:`repro.obs` is imported.  The plug-in attaches
through the one function-level import in
:meth:`~repro.core.service.LogService.enable_observability`; the
``engine-imports`` lint rule forbids every other reference.
"""

from __future__ import annotations

from contextlib import AbstractContextManager, contextmanager
from dataclasses import dataclass
from types import TracebackType
from typing import Iterator, Protocol, Sequence

__all__ = [
    "ClockLike",
    "EventLike",
    "InstrumentsLike",
    "JournalLike",
    "NULL_JOURNAL",
    "NULL_TRACER",
    "NULL_SPAN",
    "NullJournal",
    "NullSpan",
    "NullTracer",
    "ObserveHook",
    "SpanLike",
    "TraceContext",
    "TracerLike",
]


class ClockLike(Protocol):
    """The one clock attribute the plug-ins read (satisfied by SimClock)."""

    now_us: int


@dataclass(frozen=True, slots=True)
class TraceContext:
    """The causal identity a request carries across the IPC boundary.

    ``trace_id`` names the request end to end; ``span_id`` is the id of
    the span that sent the message (0 when there is no sending span), so
    work executed on the far side — or after the reply, in the deferred
    delivery window — records which span caused it.
    """

    trace_id: str
    span_id: int = 0


class SpanLike(Protocol):
    """What an open span offers the operation it times."""

    @property
    def trace_id(self) -> str | None: ...

    def set(self, key: str, value: object) -> None: ...


class TracerLike(Protocol):
    """The tracer surface the engine calls (SpanTracer or NullTracer)."""

    @property
    def enabled(self) -> bool: ...

    def mint_trace_id(self, prefix: str = "s") -> str: ...

    def span(
        self, name: str, **attributes: object
    ) -> AbstractContextManager[SpanLike]: ...

    def charge(self, component: str, ms: float) -> None: ...

    def activate(
        self, context: TraceContext | None
    ) -> AbstractContextManager[None]: ...

    def context(self) -> TraceContext | None: ...


class EventLike(Protocol):
    """One journalled state transition, as the flight recorder keeps it."""

    @property
    def seq(self) -> int: ...

    @property
    def ts_us(self) -> int: ...

    @property
    def kind(self) -> str: ...

    @property
    def attrs(self) -> tuple[tuple[str, object], ...]: ...


class JournalLike(Protocol):
    """The journal surface the engine calls (EventJournal or NullJournal),
    plus ``suppress`` for plug-in persisters that write through the engine."""

    @property
    def enabled(self) -> bool: ...

    @property
    def next_seq(self) -> int: ...

    def emit(self, kind: str, **attrs: object) -> EventLike | None: ...

    def events(self) -> Sequence[EventLike]: ...

    def suppress(self) -> AbstractContextManager[None]: ...

    def watch_device(self, volume_index: int, device: object) -> None:
        """Journal ``device``'s block operations as volume ``volume_index``
        (called for every volume at attach time, and by the writer for
        each successor volume)."""


class ObserveHook(Protocol):
    """One pre-bound distribution instrument."""

    def observe(self, value: float) -> None: ...


class InstrumentsLike(Protocol):
    """The three hot-path hooks held as ``store.instruments``."""

    @property
    def append_latency_ms(self) -> ObserveHook: ...

    @property
    def append_batch_entries(self) -> ObserveHook: ...

    @property
    def locate_entries_examined(self) -> ObserveHook: ...


class NullSpan:
    """Inert span yielded when tracing is disabled or suppressed."""

    __slots__ = ()

    trace_id: str | None = None
    span_id: int = 0
    parent_id: int | None = None

    def set(self, key: str, value: object) -> None:
        pass

    def add_cost(self, component: str, ms: float) -> None:
        pass

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: TracebackType | None,
    ) -> None:
        pass


#: The one inert span (also what a suppressed SpanTracer hands out).
NULL_SPAN = NullSpan()


class NullTracer:
    """Tracing disabled: every span is the same inert, reused object."""

    enabled = False

    def mint_trace_id(self, prefix: str = "s") -> str:
        return f"{prefix}0.0"

    def span(self, name: str, **attributes: object) -> NullSpan:
        return NULL_SPAN

    def charge(self, component: str, ms: float) -> None:
        pass

    @contextmanager
    def activate(self, context: TraceContext | None) -> Iterator[None]:
        yield

    @contextmanager
    def suppress(self) -> Iterator[None]:
        yield

    def context(self) -> TraceContext | None:
        return None

    def recent(self, limit: int | None = None) -> list[SpanLike]:
        return []

    def last(self, name: str | None = None) -> SpanLike | None:
        return None

    def clear(self) -> None:
        pass


#: The shared disabled tracer (the default on every service).
NULL_TRACER = NullTracer()


class NullJournal:
    """Events disabled: every emit is one no-op method call."""

    enabled = False

    def emit(self, kind: str, **attrs: object) -> None:
        return None

    @contextmanager
    def suppress(self) -> Iterator[None]:
        yield

    def watch_device(self, volume_index: int, device: object) -> None:
        pass

    def events(self) -> list[EventLike]:
        return []

    def recent(self, n: int) -> list[EventLike]:
        return []

    def by_kind(self, kind: str) -> list[EventLike]:
        return []

    @property
    def next_seq(self) -> int:
        return 0

    def clear(self) -> None:
        pass


#: The shared disabled journal (the default on every store).
NULL_JOURNAL = NullJournal()
