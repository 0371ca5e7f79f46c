"""Log volumes and volume sequences.

Section 2.1: *"A log volume is the removable, physical storage medium, such
as an optical disk, on which log data is stored. ... A log file may span
several log volumes.  Each log file is totally contained in one log volume
sequence — a sequence of log volumes totally ordered by the time of writing.
Whenever a volume fills up, a (previously unused) successor volume is
loaded, with this successor being logically a continuation of its
predecessor."*

:class:`LogVolume` pairs a :class:`~repro.worm.device.WormDevice` with a
self-describing header burned into device block 0.  Client-visible *data
blocks* are numbered from 0 and map to device blocks from 1, so entrymap
positions ("every N blocks on the log device") are well-known per medium.

:class:`VolumeSequence` chains volumes and provides the *global* block
address space the log service addresses entries with: volume k's data block
j lives at global address ``base(k) + j``.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass

from repro.worm.device import WormDevice
from repro.worm.errors import (
    BlockOutOfRange,
    InvalidatedBlockError,
    UnwrittenBlockError,
    VolumeFullError,
    VolumeOfflineError,
    VolumeSealedError,
    VolumeSequenceError,
)

__all__ = ["VolumeHeader", "LogVolume", "VolumeSequence"]

_HEADER_MAGIC = b"CLIOVOL1"
_HEADER_STRUCT = struct.Struct(">8sHIHII16s16s16sQ")
_FORMAT_VERSION = 1


def _fresh_id() -> bytes:
    """A new 16-byte volume or sequence id.  ``uuid`` is imported here:
    only creating a volume needs it, not every ``clio`` verb."""
    import uuid

    return uuid.uuid4().bytes


@dataclass(frozen=True, slots=True)
class VolumeHeader:
    """The self-describing record burned into block 0 of every volume."""

    block_size: int
    degree_n: int
    volume_index: int
    capacity_blocks: int
    volume_id: bytes
    sequence_id: bytes
    predecessor_id: bytes
    created_ts: int
    format_version: int = _FORMAT_VERSION

    NULL_ID = b"\x00" * 16

    def encode(self) -> bytes:
        """Serialize to a full block image (padded with zeros)."""
        packed = _HEADER_STRUCT.pack(
            _HEADER_MAGIC,
            self.format_version,
            self.block_size,
            self.degree_n,
            self.volume_index,
            self.capacity_blocks,
            self.volume_id,
            self.sequence_id,
            self.predecessor_id,
            self.created_ts,
        )
        if len(packed) > self.block_size:
            raise ValueError("block size too small to hold a volume header")
        return packed + b"\x00" * (self.block_size - len(packed))

    @classmethod
    def decode(cls, data: bytes) -> "VolumeHeader":
        if len(data) < _HEADER_STRUCT.size:
            raise VolumeSequenceError(
                f"volume header of {len(data)} bytes; not a Clio volume"
            )
        (
            magic,
            version,
            block_size,
            degree_n,
            volume_index,
            capacity,
            volume_id,
            sequence_id,
            predecessor_id,
            created_ts,
        ) = _HEADER_STRUCT.unpack_from(data, 0)
        if magic != _HEADER_MAGIC:
            raise VolumeSequenceError(
                f"bad volume header magic {magic!r}; not a Clio volume"
            )
        if version != _FORMAT_VERSION:
            raise VolumeSequenceError(f"unsupported volume format {version}")
        return cls(
            block_size=block_size,
            degree_n=degree_n,
            volume_index=volume_index,
            capacity_blocks=capacity,
            volume_id=volume_id,
            sequence_id=sequence_id,
            predecessor_id=predecessor_id,
            created_ts=created_ts,
        )


class LogVolume:
    """One write-once medium carrying a header block plus data blocks.

    Data blocks are numbered ``0 .. data_capacity-1`` and stored at device
    blocks ``1 .. capacity-1``.
    """

    def __init__(self, device: WormDevice, header: VolumeHeader) -> None:
        if device.block_size != header.block_size:
            raise VolumeSequenceError(
                f"device block size {device.block_size} != header "
                f"block size {header.block_size}"
            )
        if device.capacity_blocks != header.capacity_blocks:
            raise VolumeSequenceError(
                f"device capacity {device.capacity_blocks} != header "
                f"capacity {header.capacity_blocks}"
            )
        self.device = device
        self.header = header
        self._sealed = False
        self._online = True

    # -- construction ------------------------------------------------------

    @classmethod
    def create(
        cls,
        device: WormDevice,
        degree_n: int,
        sequence_id: bytes,
        volume_index: int,
        predecessor_id: bytes = VolumeHeader.NULL_ID,
        created_ts: int = 0,
        volume_id: bytes | None = None,
    ) -> "LogVolume":
        """Initialize a previously unused medium: burn the header block."""
        if not hasattr(device, "next_writable"):
            raise TypeError(
                "log devices must be append-only (WormDevice-like): 'a log "
                "device is required to be a non-volatile, block-oriented "
                "storage device that supports random access for reading, "
                "and append-only write access'"
            )
        if device.next_writable != 0:
            raise VolumeSequenceError(
                "cannot create a volume on a medium that has been written"
            )
        if degree_n < 2:
            raise ValueError(f"entrymap degree must be >= 2, got {degree_n}")
        header = VolumeHeader(
            block_size=device.block_size,
            degree_n=degree_n,
            volume_index=volume_index,
            capacity_blocks=device.capacity_blocks,
            volume_id=volume_id or _fresh_id(),
            sequence_id=sequence_id,
            predecessor_id=predecessor_id,
            created_ts=created_ts,
        )
        device.write_block(0, header.encode())
        return cls(device, header)

    @classmethod
    def mount(cls, device: WormDevice) -> "LogVolume":
        """Mount an existing medium by reading and validating its header."""
        header = VolumeHeader.decode(device.read_block(0))
        return cls(device, header)

    # -- geometry ------------------------------------------------------------

    @property
    def data_capacity(self) -> int:
        """Number of client-addressable data blocks on this volume."""
        return self.header.capacity_blocks - 1

    @property
    def degree_n(self) -> int:
        return self.header.degree_n

    @property
    def next_data_block(self) -> int:
        """The data-block append point."""
        return self.device.next_writable - 1

    @property
    def is_full(self) -> bool:
        return self.device.is_full

    @property
    def is_sealed(self) -> bool:
        return self._sealed

    def seal(self) -> None:
        """Mark the volume read-only because a successor has been loaded."""
        self._sealed = True

    # -- online/offline (removable media) ---------------------------------

    @property
    def is_online(self) -> bool:
        return self._online

    def take_offline(self) -> None:
        """Dismount the medium.  Only sealed volumes may go offline: "the
        newest volume in each volume sequence is assumed to be on-line,
        both for reading and writing" (Section 2.1)."""
        if not self._sealed:
            raise VolumeSequenceError(
                "the active (unsealed) volume must remain online"
            )
        self._online = False

    def bring_online(self) -> None:
        """Re-mount the medium (the on-demand path)."""
        self._online = True

    def _device_block(self, data_block: int) -> int:
        if not 0 <= data_block < self.data_capacity:
            raise BlockOutOfRange(data_block, self.data_capacity)
        return data_block + 1

    # -- I/O -------------------------------------------------------------------

    def read_data_block(self, data_block: int) -> bytes:
        if not self._online:
            raise VolumeOfflineError(self.header.volume_index)
        return self.device.read_block(self._device_block(data_block))

    def read_data_blocks(self, start: int, count: int) -> list[bytes | None]:
        """Read up to ``count`` consecutive data blocks in one device op.

        Returns the blocks actually streamed (``None`` for invalidated
        slots); the run stops at the append frontier.  Devices without a
        multi-block operation (e.g. mirrored replicas) fall back to
        per-block reads — correct, just without the seek amortization.
        """
        if not self._online:
            raise VolumeOfflineError(self.header.volume_index)
        if count <= 0 or not 0 <= start < self.data_capacity:
            return []
        count = min(count, self.data_capacity - start)
        reader = getattr(self.device, "read_blocks", None)
        if reader is not None:
            return list(reader(self._device_block(start), count))
        results: list[bytes | None] = []
        for data_block in range(start, start + count):
            try:
                results.append(self.read_data_block(data_block))
            except InvalidatedBlockError:
                results.append(None)
            except UnwrittenBlockError:
                break
        return results

    def append_data_block(self, data: bytes) -> int:
        """Append one data block; returns its data-block address."""
        if self._sealed:
            raise VolumeSealedError(self.header.volume_id.hex())
        if self.device.is_full:
            raise VolumeFullError(self.device.capacity_blocks)
        device_block = self.device.next_writable
        self.device.write_block(device_block, data)
        return device_block - 1

    def is_data_written(self, data_block: int) -> bool:
        return self.device.is_written(self._device_block(data_block))

    def is_data_invalidated(self, data_block: int) -> bool:
        return self.device.is_invalidated(self._device_block(data_block))

    def invalidate_data_block(self, data_block: int) -> None:
        self.device.invalidate(self._device_block(data_block))

    # -- tail discovery (Section 2.3.1, initialization step 1) -----------------

    def find_last_written_data_block(self) -> tuple[int, int]:
        """Locate the end of the written portion of the volume.

        Returns ``(last_written_data_block, probes)`` where the first element
        is -1 if no data block has been written.  Tries the device's tail
        query first; otherwise binary-searches the written/unwritten
        boundary in ``log2(V)`` probes, exactly as Section 3.4 describes.
        """
        if self.device.supports_tail_query:
            # query_tail() is the next writable *device* block; the last
            # written data block is two below it (one for the append point
            # itself, one for the header block at device block 0).
            return self.device.query_tail() - 2, 1

        lo, hi = 0, self.data_capacity  # invariant: boundary in [lo, hi]
        probes = 0
        while lo < hi:
            mid = (lo + hi) // 2
            probes += 1
            if self.is_data_written(mid):
                lo = mid + 1
            else:
                hi = mid
        return lo - 1, probes


class VolumeSequence:
    """An ordered chain of volumes forming one logical log medium.

    The newest volume is online for writing; all earlier volumes are sealed.
    Global data-block addresses concatenate the volumes' data spaces in
    order.
    """

    def __init__(self, sequence_id: bytes | None = None) -> None:
        self.sequence_id = sequence_id or _fresh_id()
        self.volumes: list[LogVolume] = []
        self._bases: list[int] = []

    # -- structure ---------------------------------------------------------

    @property
    def active_volume(self) -> LogVolume:
        if not self.volumes:
            raise VolumeSequenceError("volume sequence is empty")
        return self.volumes[-1]

    @property
    def total_data_blocks(self) -> int:
        """Total data capacity across all volumes in the sequence."""
        if not self.volumes:
            return 0
        return self._bases[-1] + self.volumes[-1].data_capacity

    @property
    def next_global_block(self) -> int:
        """The global address the next appended block will receive."""
        if not self.volumes:
            return 0
        return self._bases[-1] + max(0, self.active_volume.next_data_block)

    def add_volume(self, volume: LogVolume) -> None:
        """Chain a new volume onto the sequence, sealing its predecessor."""
        if volume.header.sequence_id != self.sequence_id:
            raise VolumeSequenceError(
                "volume belongs to a different volume sequence"
            )
        if volume.header.volume_index != len(self.volumes):
            raise VolumeSequenceError(
                f"expected volume index {len(self.volumes)}, got "
                f"{volume.header.volume_index}"
            )
        if self.volumes:
            predecessor = self.volumes[-1]
            if volume.header.predecessor_id != predecessor.header.volume_id:
                raise VolumeSequenceError(
                    "volume's predecessor id does not match the sequence tail"
                )
            predecessor.seal()
            self._bases.append(self._bases[-1] + predecessor.data_capacity)
        else:
            if volume.header.predecessor_id != VolumeHeader.NULL_ID:
                raise VolumeSequenceError(
                    "first volume of a sequence must have a null predecessor"
                )
            self._bases.append(0)
        self.volumes.append(volume)

    def create_volume(
        self, device: WormDevice, created_ts: int = 0
    ) -> LogVolume:
        """Create the next volume of this sequence on a fresh medium."""
        predecessor_id = (
            self.volumes[-1].header.volume_id
            if self.volumes
            else VolumeHeader.NULL_ID
        )
        degree_n = self.volumes[0].degree_n if self.volumes else None
        if degree_n is None:
            raise VolumeSequenceError(
                "use create_volume only for successors; create the first "
                "volume explicitly with LogVolume.create"
            )
        volume = LogVolume.create(
            device,
            degree_n=degree_n,
            sequence_id=self.sequence_id,
            volume_index=len(self.volumes),
            predecessor_id=predecessor_id,
            created_ts=created_ts,
        )
        self.add_volume(volume)
        return volume

    # -- addressing -----------------------------------------------------------

    def to_local(self, global_block: int) -> tuple[int, int]:
        """Map a global data-block address to ``(volume_index, local_block)``."""
        if global_block < 0 or not self.volumes:
            raise BlockOutOfRange(global_block, self.total_data_blocks)
        idx = bisect_right(self._bases, global_block) - 1
        local = global_block - self._bases[idx]
        if local >= self.volumes[idx].data_capacity:
            raise BlockOutOfRange(global_block, self.total_data_blocks)
        return idx, local

    def to_global(self, volume_index: int, local_block: int) -> int:
        if not 0 <= volume_index < len(self.volumes):
            raise VolumeSequenceError(f"no volume {volume_index} in sequence")
        return self._bases[volume_index] + local_block

    def volume_base(self, volume_index: int) -> int:
        if not 0 <= volume_index < len(self.volumes):
            raise VolumeSequenceError(f"no volume {volume_index} in sequence")
        return self._bases[volume_index]

    # -- I/O --------------------------------------------------------------------

    def read_block(self, global_block: int) -> bytes:
        volume_index, local = self.to_local(global_block)
        return self.volumes[volume_index].read_data_block(local)

    def append_block(self, data: bytes) -> int:
        """Append to the active volume; returns the global block address.

        Raises :class:`~repro.worm.errors.VolumeFullError` when the active
        volume is full — the caller (the log service) is responsible for
        loading a successor volume, which models the operator/jukebox action
        of mounting fresh media.
        """
        local = self.active_volume.append_data_block(data)
        return self._bases[-1] + local
