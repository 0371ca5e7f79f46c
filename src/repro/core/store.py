"""Shared server state: the pieces the writer, reader, and recovery share.

The paper's log service is "implemented as an extension of a conventional
disk-based file server ... able to use much of the existing mechanism of
the file server, such as the buffer pool".  :class:`LogStore` is that
shared mechanism: the volume sequence, the block cache, the simulated
clock/cost model, the catalog, and the per-volume entrymap states.
:class:`repro.core.writer.TailWriter` and :class:`repro.core.reader.LogReader`
both operate on one store; :class:`repro.core.service.LogService` owns it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.cache import BlockCache
from repro.core.catalog import Catalog
from repro.core.entrymap import EntrymapState
from repro.vsystem.clock import SimClock
from repro.vsystem.costs import CostModel
from repro.vsystem.instrument import (
    NULL_JOURNAL,
    NULL_TRACER,
    InstrumentsLike,
    JournalLike,
    TracerLike,
)
from repro.worm.device import WormDevice
from repro.worm.geometry import NULL_GEOMETRY, DeviceGeometry
from repro.worm.nvram import NvramTail
from repro.worm.volume import VolumeSequence

__all__ = ["LogStore", "SpaceStats", "StoreConfig"]


@dataclass(slots=True)
class SpaceStats:
    """Cumulative space accounting (Section 3.5's quantities).

    All figures are bytes except ``blocks_written``.  ``client_data`` is
    the d of the overhead formula; ``entry_headers`` is h summed over
    entries; ``size_index`` is the per-fragment index slots (2 bytes each);
    ``entrymap`` and ``catalog`` are the reserved log files' record bytes
    (headers included); ``forced_padding`` is space wasted by forcing
    partial blocks onto pure write-once media.
    """

    client_data: int = 0
    entry_headers: int = 0
    size_index: int = 0
    entrymap: int = 0
    catalog: int = 0
    forced_padding: int = 0
    blocks_written: int = 0
    client_entries: int = 0

    @property
    def total_overhead(self) -> int:
        return (
            self.entry_headers
            + self.size_index
            + self.entrymap
            + self.catalog
            + self.forced_padding
        )

    def overhead_per_client_entry(self) -> float:
        if self.client_entries == 0:
            return 0.0
        return self.total_overhead / self.client_entries

    def entrymap_overhead_per_client_entry(self) -> float:
        if self.client_entries == 0:
            return 0.0
        return self.entrymap / self.client_entries


@dataclass(frozen=True, slots=True)
class StoreConfig:
    """Immutable service configuration."""

    block_size: int = 1024
    degree_n: int = 16
    volume_capacity_blocks: int = 4096
    cache_capacity_blocks: int = 2048
    geometry: DeviceGeometry = NULL_GEOMETRY
    supports_tail_query: bool = True
    #: True: stage the tail block in battery-backed RAM (the design point).
    #: False: pure write-once device — every force burns a partial block.
    nvram_tail: bool = True
    nvram_survives_crash: bool = True
    #: How far past a well-known position the reader searches for a
    #: relocated entrymap entry before falling back (Section 2.3.2).
    entrymap_relocation_window: int = 4
    #: Clients on other workstations pay network IPC (2.5-3 ms) instead of
    #: local IPC (0.5-1 ms) per operation (Section 3.2, footnote 9).
    remote_clients: bool = False
    #: Enforce the catalog's per-log-file access permissions (owner bits:
    #: 0o400 read, 0o200 append) on client operations.
    enforce_permissions: bool = False
    #: Sequential read-ahead window: on a detected sequential scan the
    #: reader fetches up to this many blocks in one device operation (one
    #: seek, N transfers) and stages them in the cache ahead of the cursor.
    #: 0 disables read-ahead (the default — the paper's model reads one
    #: block per device access).
    readahead_blocks: int = 0


@dataclass(slots=True)
class LogStore:
    """All shared server state for one mounted volume sequence."""

    config: StoreConfig
    clock: SimClock
    costs: CostModel
    sequence: VolumeSequence
    cache: BlockCache
    catalog: Catalog
    #: One entrymap state per volume, indexed like ``sequence.volumes``.
    #: Extended by TailWriter on volume switch and rebuilt by recovery.
    states: list[EntrymapState] = field(default_factory=list)
    nvram: NvramTail | None = None
    space: SpaceStats = field(default_factory=SpaceStats)
    #: Called to supply a fresh medium when the active volume fills.
    device_factory: Callable[[], WormDevice] | None = None
    #: The instrumentation seam (:mod:`repro.vsystem.instrument`), shared
    #: by writer/reader/service.  The defaults are the disabled state: a
    #: no-op tracer and journal and no instruments, so the hot paths pay
    #: one attribute check or no-op call per operation.  ``metrics`` is
    #: the plug-in's registry, held for it and never called by the engine.
    tracer: TracerLike = NULL_TRACER
    metrics: object | None = None
    instruments: InstrumentsLike | None = None
    journal: JournalLike = NULL_JOURNAL
    #: Bumped by the writer on every appended entry; readers use it to
    #: invalidate tail-dependent memos (the locate-result memo).
    append_generation: int = 0

    def charge(self, component: str, ms: float) -> None:
        """Advance the simulated clock by ``ms`` and attribute the time to
        the innermost open span under ``component`` (the profiler's input).
        """
        self.clock.advance_ms(ms)
        if self.tracer.enabled:
            self.tracer.charge(component, ms)

    def charge_us(self, component: str, us: int) -> None:
        """Like :meth:`charge` but in integer microseconds (exact)."""
        self.clock.advance_us(us)
        if self.tracer.enabled:
            self.tracer.charge(component, us / 1000.0)

    def charge_many(self, parts: list[tuple[str, float]]) -> None:
        """Charge several components under one clock advance.

        The clock moves once by the sum — byte-identical timing to the
        pre-profiler single-advance call sites — while the tracer still
        sees the per-component split.
        """
        total = 0.0
        for _component, ms in parts:
            total += ms
        self.clock.advance_ms(total)
        tracer = self.tracer
        if tracer.enabled:
            for component, ms in parts:
                if ms:
                    tracer.charge(component, ms)

    def make_device(self) -> WormDevice:
        """Create a fresh write-once medium per the configuration."""
        if self.device_factory is not None:
            return self.device_factory()
        return WormDevice(
            block_size=self.config.block_size,
            capacity_blocks=self.config.volume_capacity_blocks,
            geometry=self.config.geometry,
            supports_tail_query=self.config.supports_tail_query,
        )

    def cache_key(self, volume_index: int, local_block: int) -> tuple:
        return ("log", volume_index, local_block)
