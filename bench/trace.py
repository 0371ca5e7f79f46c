"""Per-layer wall-clock tracing, done from outside the program.

The benchmark replaces each layer's public functions *where they are looked
up* (class attributes, and the importing module's global for functions
imported by name) with a wrapper that opens a span on entry and closes it
on exit.  A layer is a module; a span's self time is its duration minus
the part its child spans cover, so the self times of everything under one
client operation add up to that operation's duration and no nanosecond is
counted twice.

Spans live on an in-memory stack and are folded into per-phase,
per-function aggregates (calls, inclusive ns, self ns) when they close:
only aggregates are reported, so no span list is retained and a traced run
allocates nothing per span.  Nothing under ``src/`` knows about any of
this; :meth:`LayerTracer.uninstall` puts every original back.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Iterator

__all__ = ["LayerTracer", "clio_layer_points"]

#: (layer, owner, attribute, is_generator_function)
Point = tuple[str, Any, str, bool]


class _Totals:
    """Aggregates for one phase, indexed by function id."""

    __slots__ = ("calls", "incl_ns", "self_ns")

    def __init__(self) -> None:
        self.calls: list[int] = []
        self.incl_ns: list[int] = []
        self.self_ns: list[int] = []

    def grow(self, size: int) -> None:
        for column in (self.calls, self.incl_ns, self.self_ns):
            column.extend([0] * (size - len(column)))


class LayerTracer:
    """Wraps functions, keeps the span stack, and aggregates by phase."""

    def __init__(self, clock: Callable[[], int]) -> None:
        self._clock = clock
        #: One entry per open span: nanoseconds its closed children took.
        self._stack: list[int] = []
        self._functions: list[tuple[str, str]] = []  # id -> (layer, name)
        self._phases: dict[str, _Totals] = {}
        self._current = self._totals_for("idle")
        self._installed: list[tuple[Any, str, Any]] = []

    # -- phases --------------------------------------------------------------

    def _totals_for(self, phase: str) -> _Totals:
        totals = self._phases.get(phase)
        if totals is None:
            totals = self._phases[phase] = _Totals()
        totals.grow(len(self._functions))
        return totals

    def set_phase(self, phase: str) -> None:
        """Attribute spans closed from now on to ``phase``."""
        self._current = self._totals_for(phase)

    # -- wrapping --------------------------------------------------------------

    def _register(self, layer: str, name: str) -> int:
        if (layer, name) in self._functions:
            # One function reachable through two lookups (a module global
            # and an importer's copy of it) is one row.
            return self._functions.index((layer, name))
        self._functions.append((layer, name))
        for totals in self._phases.values():
            totals.grow(len(self._functions))
        return len(self._functions) - 1

    def _enter(self) -> int:
        self._stack.append(0)
        return self._clock()

    def _exit(self, index: int, started: int) -> None:
        duration = self._clock() - started
        stack = self._stack
        children = stack.pop()
        totals = self._current
        totals.calls[index] += 1
        totals.incl_ns[index] += duration
        totals.self_ns[index] += duration - children
        if stack:
            stack[-1] += duration

    def wrap(self, layer: str, name: str, function: Callable) -> Callable:
        """A span-recording stand-in for ``function``."""
        index = self._register(layer, name)
        enter, leave = self._enter, self._exit

        def traced(*args: Any, **kwargs: Any) -> Any:
            started = enter()
            try:
                return function(*args, **kwargs)
            finally:
                leave(index, started)

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def wrap_generator(self, layer: str, name: str, function: Callable) -> Callable:
        """Like :meth:`wrap` for a generator function: the body runs inside
        ``next()``, so each resumption is its own span."""
        index = self._register(layer, name)
        enter, leave = self._enter, self._exit

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            iterator = function(*args, **kwargs)
            while True:
                started = enter()
                try:
                    value = next(iterator)
                except StopIteration:
                    return
                finally:
                    leave(index, started)
                yield value

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    def install(self, points: list[Point]) -> None:
        """Replace every point's attribute with its traced stand-in."""
        for layer, owner, attribute, is_generator in points:
            original = owner.__dict__[attribute]
            kind = None
            function = original
            if isinstance(original, (classmethod, staticmethod)):
                kind = type(original)
                function = original.__func__
            wrapper = (self.wrap_generator if is_generator else self.wrap)(
                layer, attribute, function
            )
            setattr(owner, attribute, kind(wrapper) if kind else wrapper)
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    # -- results ---------------------------------------------------------------

    def layer_self_ns(self, phase: str, layer: str) -> int:
        """Self time of every function of ``layer`` (a prefix match, so
        ``"core.reader"`` is one module and ``"core"`` a package)."""
        totals = self._phases.get(phase)
        if totals is None:
            return 0
        return sum(
            totals.self_ns[index]
            for index, (name, _fn) in enumerate(self._functions)
            if name == layer or name.startswith(layer + ".")
        )

    def total_self_ns(self, phase: str) -> int:
        totals = self._phases.get(phase)
        return sum(totals.self_ns) if totals is not None else 0

    def function(self, phase: str, layer: str, name: str) -> tuple[int, int, int]:
        """(calls, inclusive ns, self ns) of one wrapped function."""
        totals = self._phases.get(phase)
        if totals is None:
            return 0, 0, 0
        index = self._functions.index((layer, name))
        return totals.calls[index], totals.incl_ns[index], totals.self_ns[index]

    def calls(self, phase: str, layer: str, name: str) -> int:
        return self.function(phase, layer, name)[0]


def clio_layer_points() -> list[Point]:
    """Every wrap point, layer by layer (layer = module under ``repro``).

    Imported here, not at module level, so importing :mod:`bench.trace`
    does not import the program.
    """
    import repro.core.block as block
    import repro.core.entry as entry
    import repro.core.reader as reader
    import repro.core.service as service
    from repro.cache.block_cache import BlockCache
    from repro.core.block import BlockBuilder, ParsedBlock
    from repro.core.entry import LogEntry
    from repro.core.entrymap import EntrymapRecord, EntrymapSearch, EntrymapState
    from repro.core.logfile import LogFile
    from repro.core.reader import LogReader
    from repro.core.service import LogService
    from repro.core.store import LogStore
    from repro.core.timeindex import TimeIndex
    from repro.core.writer import TailWriter
    from repro.vsystem.clock import SimClock
    from repro.worm.device import WormDevice
    from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice
    from repro.worm.volume import LogVolume

    def methods(layer: str, owner: Any, *names: str) -> list[Point]:
        return [(layer, owner, name, False) for name in names]

    return [
        *methods("core.logfile", LogFile, "append", "append_many", "entries", "tail"),
        *methods(
            "core.service", LogService,
            "append", "append_many", "read_entries", "sync", "mount",
            "create_log_file", "open_log_file",
        ),
        # The simulated IPC hop and per-call fixed costs are charged here.
        *methods("vsystem.ipc", LogService, "_charge_write", "_charge_read_call"),
        *methods("vsystem.clock", LogStore, "charge", "charge_us"),
        *methods("vsystem.clock", SimClock, "timestamp"),
        *methods(
            "core.writer", TailWriter,
            "append", "append_batch", "append_catalog_record", "resume_tail",
            "tail_image",
        ),
        *methods("core.entry", LogEntry, "encode"),
        *methods("core.entry", entry, "decode_record"),
        *methods("core.entry", reader, "decode_record"),
        *methods(
            "core.block", BlockBuilder,
            "encode", "add_record", "add_continuation", "from_image",
        ),
        *methods("core.block", ParsedBlock, "entry_start_slots"),
        *methods("core.block", block, "parse_block"),
        *methods("core.block", reader, "parse_block"),
        *methods(
            "core.entrymap", EntrymapState, "note_membership", "entries_due", "emit"
        ),
        *methods("core.entrymap", EntrymapSearch, "locate_prev", "locate_next"),
        *methods("core.entrymap", EntrymapRecord, "encode", "decode"),
        *methods(
            "core.timeindex", TimeIndex,
            "locate_position_after", "locate_block", "locate_entry",
        ),
        ("core.reader", LogReader, "iter_entries", True),
        *methods(
            "core.reader", LogReader,
            "read_parsed", "entry_at", "entry_header_at", "block_members",
            "_fetch_entrymap", "global_extent", "locate_next_global",
            "locate_prev_global",
        ),
        *methods(
            "cache.block_cache", BlockCache,
            "get", "put", "get_parsed", "put_parsed", "invalidate", "clear",
        ),
        # LogService._recover is Section 2.3.1's procedure itself.
        *methods("core.recovery", LogService, "_recover"),
        *methods(
            "core.recovery", service,
            "rebuild_entrymap_state", "replay_catalog", "replay_corrupted_block_log",
        ),
        *methods(
            "worm.volume", LogVolume,
            "mount", "append_data_block", "read_data_block",
            "find_last_written_data_block",
        ),
        *methods("worm.device", WormDevice, "write_block", "read_block", "query_tail"),
        *methods(
            "worm.filebacked", FileBackedWormDevice,
            "write_block", "open_path", "create", "close",
        ),
        *methods("worm.filebacked", FileBackedNvram, "__init__", "store", "clear"),
        # Counted, not layers of their own: the host calls the NVRAM path
        # makes (ROADMAP item 2 wants replaces gone and fsyncs present).
        *methods("worm.filebacked.host", os, "replace", "fsync"),
    ]
