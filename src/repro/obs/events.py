"""Structured, sim-time-stamped event journal (the flight recorder).

Metrics answer "how many"; spans answer "how long"; the *event journal*
answers "what happened, in order".  Every notable state transition —
device block writes/reads, cache evictions, writer flushes, volume
transitions, recovery phases, fired alerts — is recorded as an
:class:`Event` stamped on the :class:`~repro.vsystem.clock.SimClock`, so
the journal of a run is as deterministic as its traces.

The journal is a bounded ring buffer (volatile, like the server's RAM).

Recovery wires the journal in as a crash flight recorder: the events
emitted during a mount's recovery pass are attached to the
:class:`~repro.core.recovery.RecoveryReport`, so every recovery carries
its own black box (see ``LogService._recover``).
"""

from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.vsystem.instrument import NULL_JOURNAL, ClockLike, NullJournal
from repro.worm.device import BlockDevice
from repro.worm.mirror import MirroredWormDevice

__all__ = [
    "Event",
    "EventJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "format_event",
]


@dataclass(frozen=True, slots=True)
class Event:
    """One journalled state transition."""

    seq: int
    ts_us: int
    kind: str
    #: Sorted (name, value) pairs; values are JSON scalars.
    attrs: tuple[tuple[str, object], ...]

    def attr(self, name: str, default: object = None) -> object:
        for key, value in self.attrs:
            if key == name:
                return value
        return default

    def as_dict(self) -> dict[str, object]:
        return {
            "seq": self.seq,
            "ts_us": self.ts_us,
            "kind": self.kind,
            "attrs": dict(self.attrs),
        }


def format_event(event: Event) -> str:
    """One-line rendering for ``repro events``."""
    attrs = " ".join(f"{key}={value}" for key, value in event.attrs)
    return (
        f"[{event.ts_us:>10d}us] #{event.seq:<5d} {event.kind}"
        f"{(' ' + attrs) if attrs else ''}"
    )


class EventJournal:
    """A bounded ring of recent events, stamped on the simulated clock."""

    enabled = True

    def __init__(self, clock: ClockLike, capacity: int = 512) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._clock = clock
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)
        self._seq = 0
        #: Events pushed out of the ring since the journal was created.
        self.dropped = 0
        self._suppressed = 0

    def emit(self, kind: str, **attrs: object) -> Event | None:
        """Record one event; returns it (or None while suppressed)."""
        if self._suppressed:
            return None
        event = Event(
            seq=self._seq,
            ts_us=self._clock.now_us,
            kind=kind,
            attrs=tuple(sorted(attrs.items())),
        )
        self._seq += 1
        if len(self._events) == self.capacity:
            self.dropped += 1
        self._events.append(event)
        return event

    @contextmanager
    def suppress(self) -> Iterator[None]:
        """Silence emission inside the block.

        Used while :class:`~repro.obs.slo.AlertLog` persists alerts: the
        persistence appends cause device writes, which would otherwise
        journal the act of journalling.

        Exception-safe: the pre-entry suppression depth is restored even
        when the block raises, so emission can never stay silenced (or go
        negative) after an aborted persist.
        """
        prev = self._suppressed
        self._suppressed = prev + 1
        try:
            yield
        finally:
            self._suppressed = prev

    def watch_device(self, volume_index: int, device: object) -> None:
        """Point ``device``'s event sink (and a mirror's divergence sink)
        at this journal, unless a sink is already installed."""
        if (
            isinstance(device, (BlockDevice, MirroredWormDevice))
            and device.event_sink is None
        ):
            device.event_sink = lambda op, block: self.emit(
                f"device.{op}", volume=volume_index, block=block
            )
        if (
            isinstance(device, MirroredWormDevice)
            and device.divergence_sink is None
        ):
            device.divergence_sink = lambda event, replica, block: self.emit(
                f"mirror.{event}",
                volume=volume_index,
                replica=replica,
                block=block,
            )

    # -- inspection ------------------------------------------------------

    def events(self) -> list[Event]:
        """Every retained event, oldest first."""
        return list(self._events)

    def by_kind(self, kind: str) -> list[Event]:
        return [event for event in self._events if event.kind == kind]

    @property
    def next_seq(self) -> int:
        return self._seq
