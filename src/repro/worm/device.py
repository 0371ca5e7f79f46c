"""Block devices: the write-once log device and its rewriteable cousin.

Section 2 of the paper defines the contract: *"A log device is required to
be a non-volatile, block-oriented storage device that supports random access
for reading, and append-only write access.  More general types of write
access are not necessary."*  :class:`WormDevice` implements exactly that
contract and enforces it — any write that is not at the append point raises
:class:`~repro.worm.errors.WriteOnceViolation`, modelling a device that is
"physically incapable of writing anywhere except at the end of the written
portion of the volume".

The one concession the paper makes to corruption handling is block
*invalidation*: a corrupted block is overwritten with all 1s (Section
2.3.2).  On real WORM media this is always possible because writing only
burns additional bits; the simulator exposes it as :meth:`WormDevice.invalidate`.

:class:`RewritableDevice` is the ordinary magnetic-disk model used by the
conventional file system substrate (:mod:`repro.fs`) and by configurations
that, like the authors' own testbed, "use magnetic disk to simulate
write-once storage".
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.worm.errors import (
    BlockOutOfRange,
    CorruptBlockError,
    InvalidatedBlockError,
    UnwrittenBlockError,
    VolumeFullError,
    WriteOnceViolation,
)
from repro.worm.geometry import NULL_GEOMETRY, DeviceGeometry

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsystem.clock import SimClock

__all__ = ["BlockDevice", "WormDevice", "RewritableDevice", "DeviceStats"]


@dataclass(slots=True)
class DeviceStats:
    """Operation counters for one device.

    The paper's evaluation is phrased almost entirely in terms of these
    counts (blocks read, seeks performed), so every benchmark reads them.
    """

    reads: int = 0
    writes: int = 0
    invalidations: int = 0
    tail_queries: int = 0
    written_probes: int = 0
    #: Head positionings charged: one per single-block operation, one per
    #: multi-block transfer (:meth:`WormDevice.read_blocks`) regardless of
    #: how many blocks it streams.
    seeks: int = 0
    busy_ms: float = 0.0

    def snapshot(self) -> "DeviceStats":
        return DeviceStats(
            reads=self.reads,
            writes=self.writes,
            invalidations=self.invalidations,
            tail_queries=self.tail_queries,
            written_probes=self.written_probes,
            seeks=self.seeks,
            busy_ms=self.busy_ms,
        )

    def delta(self, earlier: "DeviceStats") -> "DeviceStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""
        return DeviceStats(
            reads=self.reads - earlier.reads,
            writes=self.writes - earlier.writes,
            invalidations=self.invalidations - earlier.invalidations,
            tail_queries=self.tail_queries - earlier.tail_queries,
            written_probes=self.written_probes - earlier.written_probes,
            seeks=self.seeks - earlier.seeks,
            busy_ms=self.busy_ms - earlier.busy_ms,
        )

    def reset(self) -> None:
        """Zero every counter in place (e.g. between benchmark phases,
        so a measurement phase starts from a clean slate)."""
        self.reads = 0
        self.writes = 0
        self.invalidations = 0
        self.tail_queries = 0
        self.written_probes = 0
        self.seeks = 0
        self.busy_ms = 0.0


class BlockDevice(ABC):
    """Abstract block-oriented storage device.

    Blocks are fixed-size ``bytes`` of length :attr:`block_size`, addressed
    ``0 .. capacity_blocks - 1``.
    """

    def __init__(
        self,
        block_size: int,
        capacity_blocks: int,
        geometry: DeviceGeometry = NULL_GEOMETRY,
        clock: "SimClock | None" = None,
    ) -> None:
        if block_size <= 0:
            raise ValueError(f"block_size must be positive, got {block_size}")
        if capacity_blocks <= 0:
            raise ValueError(
                f"capacity_blocks must be positive, got {capacity_blocks}"
            )
        self.block_size = block_size
        self.capacity_blocks = capacity_blocks
        self.geometry = geometry
        self.clock = clock
        self.stats = DeviceStats()
        self._head_position = 0
        #: Optional ``(op, block)`` callback for the event journal
        #: (:mod:`repro.obs.events`); None keeps the hot path a single
        #: attribute check per operation.
        self.event_sink: Callable[[str, int], None] | None = None

    # -- timing ----------------------------------------------------------

    def _charge(self, block: int) -> None:
        """Charge simulated time for a head movement to ``block`` + transfer."""
        cost = self.geometry.access_ms(self._head_position, block)
        self._head_position = block
        self.stats.seeks += 1
        self.stats.busy_ms += cost
        if self.clock is not None:
            self.clock.advance_ms(cost)

    def _charge_bulk(self, start: int, count: int) -> None:
        """Charge one seek plus ``count`` sequential transfers (the
        multi-block timing model behind read-ahead)."""
        cost = self.geometry.bulk_access_ms(self._head_position, start, count)
        self._head_position = start + count - 1
        self.stats.seeks += 1
        self.stats.busy_ms += cost
        if self.clock is not None:
            self.clock.advance_ms(cost)

    # -- bounds ----------------------------------------------------------

    def _check_range(self, block: int) -> None:
        if not 0 <= block < self.capacity_blocks:
            raise BlockOutOfRange(block, self.capacity_blocks)

    def _check_payload(self, data: bytes) -> None:
        if len(data) != self.block_size:
            raise ValueError(
                f"payload must be exactly {self.block_size} bytes, "
                f"got {len(data)}"
            )

    # -- interface -------------------------------------------------------

    @abstractmethod
    def read_block(self, block: int) -> bytes:
        """Return the contents of ``block``; random access is always allowed."""

    @abstractmethod
    def write_block(self, block: int, data: bytes) -> None:
        """Write one block; write discipline depends on the device type."""

    @abstractmethod
    def is_written(self, block: int) -> bool:
        """True if ``block`` has ever been written (or invalidated)."""


class WormDevice(BlockDevice):
    """Write-once block device with device-level append enforcement.

    Writes must target :attr:`next_writable`, the lowest never-written block.
    The single exception is :meth:`invalidate`, which may target any block
    and fills it with all 1s — the paper's mechanism for marking corrupt
    blocks unusable.
    """

    #: An invalidated block reads as all 1s.
    INVALID_FILL = 0xFF

    def __init__(
        self,
        block_size: int,
        capacity_blocks: int,
        geometry: DeviceGeometry = NULL_GEOMETRY,
        clock: "SimClock | None" = None,
        supports_tail_query: bool = True,
    ) -> None:
        super().__init__(block_size, capacity_blocks, geometry, clock)
        self._blocks: dict[int, bytes] = {}
        self._invalidated: set[int] = set()
        # Also advanced by CrashingWormDevice's fault-injection back door.
        self._next_writable = 0
        #: Whether the drive firmware can report the append point directly.
        #: When False, recovery must binary-search for it (Section 2.3.1).
        self.supports_tail_query = supports_tail_query

    # -- storage hooks -----------------------------------------------------
    # Where block bytes live.  Every check, charge and counter below is
    # written once against these three; FileBackedWormDevice overrides them
    # to keep the bytes in a host file instead of ``_blocks``.

    def _has_block(self, block: int) -> bool:
        return block in self._blocks

    def _fetch(self, block: int) -> bytes | None:
        """The bytes of ``block``, or None if nothing was ever put there."""
        return self._blocks.get(block)

    def _store(self, block: int, data: bytes, invalidated: bool = False) -> None:
        """Put ``data`` in ``block``.  Called before any counter, clock or
        the append point moves, so a store that raises changed nothing."""
        self._blocks[block] = data

    # -- write path ------------------------------------------------------

    @property
    def next_writable(self) -> int:
        """The current append point (lowest never-written block index)."""
        return self._next_writable

    @property
    def blocks_written(self) -> int:
        return self._next_writable

    @property
    def is_full(self) -> bool:
        return self._next_writable >= self.capacity_blocks

    def write_block(self, block: int, data: bytes) -> None:
        if self.is_full:
            raise VolumeFullError(self.capacity_blocks)
        self._check_range(block)
        self._check_payload(data)
        if block != self._next_writable:
            raise WriteOnceViolation(block, self._next_writable)
        if self._has_block(block):
            # The block was never legitimately written yet carries data: a
            # failure wrote garbage there (Section 2.3.2).  On write-once
            # media those bits are burned — the write physically fails.
            raise CorruptBlockError(
                block, "unwritten block already carries foreign data"
            )
        self._store(block, bytes(data))
        self._charge(block)
        self.stats.writes += 1
        self._advance_past_invalidated()
        if self.event_sink is not None:
            self.event_sink("write", block)

    def append_block(self, data: bytes) -> int:
        """Write ``data`` at the append point and return the block address."""
        block = self._next_writable
        self.write_block(block, data)
        return block

    def _advance_past_invalidated(self) -> None:
        self._next_writable += 1
        while (
            self._next_writable < self.capacity_blocks
            and self._next_writable in self._invalidated
        ):
            self._next_writable += 1

    def invalidate(self, block: int) -> None:
        """Overwrite ``block`` with all 1s, marking it permanently unusable.

        Allowed on any block, written or not: burning every remaining bit is
        the one 'rewrite' WORM media physically permit.
        """
        self._check_range(block)
        fill = bytes([self.INVALID_FILL]) * self.block_size
        self._store(block, fill, invalidated=True)
        self._charge(block)
        self.stats.invalidations += 1
        self._invalidated.add(block)
        if block == self._next_writable:
            self._advance_past_invalidated()
        if self.event_sink is not None:
            self.event_sink("invalidate", block)

    # -- read path -------------------------------------------------------

    def read_block(self, block: int) -> bytes:
        self._check_range(block)
        if block in self._invalidated:
            # Reading an invalidated block still costs a device access.
            self._charge(block)
            self.stats.reads += 1
            raise InvalidatedBlockError(block)
        data = self._fetch(block)
        if data is None:
            raise UnwrittenBlockError(block)
        self._charge(block)
        self.stats.reads += 1
        if self.event_sink is not None:
            self.event_sink("read", block)
        return data

    def read_blocks(self, start: int, count: int) -> list[bytes | None]:
        """Read up to ``count`` consecutive blocks starting at ``start`` in
        one device operation.

        The run stops early at the first never-written block (the append
        frontier); an invalidated block inside the run yields ``None`` in
        its slot.  The whole transfer is charged as one seek plus one
        transfer per block actually streamed — the amortization sequential
        read-ahead exists to exploit.
        """
        if count <= 0:
            return []
        self._check_range(start)
        results: list[bytes | None] = []
        limit = min(start + count, self.capacity_blocks)
        for block in range(start, limit):
            if block in self._invalidated:
                results.append(None)
                continue
            data = self._fetch(block)
            if data is None:
                break  # append frontier: nothing is written past here
            results.append(data)
        if not results:
            return []
        self._charge_bulk(start, len(results))
        self.stats.reads += len(results)
        if self.event_sink is not None:
            self.event_sink("read_many", start)
        return results

    def is_written(self, block: int) -> bool:
        self._check_range(block)
        self.stats.written_probes += 1
        return self._has_block(block)

    def is_invalidated(self, block: int) -> bool:
        self._check_range(block)
        return block in self._invalidated

    def query_tail(self) -> int:
        """Ask the drive for the append point directly.

        Models firmware that can report the end of the written area.  Raises
        :class:`NotImplementedError` when :attr:`supports_tail_query` is
        False, forcing callers down the binary-search path.
        """
        if not self.supports_tail_query:
            raise NotImplementedError("device cannot report its append point")
        self.stats.tail_queries += 1
        return self._next_writable

    # -- fault-injection back door (used only by repro.worm.corruption) ---

    def _raw_overwrite(self, block: int, data: bytes) -> None:
        """Corrupt ``block`` in place, bypassing the write-once check.

        This models a hardware/software failure writing garbage (Section
        2.3.2); it is not part of the device's public contract.
        """
        self._check_range(block)
        self._check_payload(data)
        # Beyond the append point the garbage reads as written but stays
        # logically unaccounted for: the append point does not move.
        self._store(block, bytes(data))
        self._invalidated.discard(block)


class RewritableDevice(BlockDevice):
    """Ordinary rewriteable block device (magnetic disk model).

    Used by the conventional file system substrate and as the staging medium
    when magnetic disk simulates write-once storage.
    """

    def __init__(
        self,
        block_size: int,
        capacity_blocks: int,
        geometry: DeviceGeometry = NULL_GEOMETRY,
        clock: "SimClock | None" = None,
    ) -> None:
        super().__init__(block_size, capacity_blocks, geometry, clock)
        self._blocks: dict[int, bytes] = {}

    def read_block(self, block: int) -> bytes:
        self._check_range(block)
        data = self._blocks.get(block)
        if data is None:
            raise UnwrittenBlockError(block)
        self._charge(block)
        self.stats.reads += 1
        return data

    def write_block(self, block: int, data: bytes) -> None:
        self._check_range(block)
        self._check_payload(data)
        self._charge(block)
        self.stats.writes += 1
        self._blocks[block] = bytes(data)

    def is_written(self, block: int) -> bool:
        self._check_range(block)
        self.stats.written_probes += 1
        return block in self._blocks
