"""File-backed write-once devices: persistence for real use.

The simulator's devices live in memory; this module maps one onto a host
file so volumes survive process exits — which is what makes the CLI
(:mod:`repro.cli`) a usable tool rather than a demo.  The host file is an
image:

    +--------+----------------------+---------------------------------+
    | header | state map (1 B/blk)  | block slots at fixed offsets    |
    +--------+----------------------+---------------------------------+

The state map byte is 0 (unwritten), 1 (written) or 2 (invalidated).
Note the *host* file is rewriteable — the write-once discipline is a
property of the modeled medium, still enforced by the in-memory
:class:`~repro.worm.device.WormDevice` logic this class extends; the file
is just its durable mirror.

:class:`FileBackedNvram` similarly persists the battery-backed tail image
to a sidecar file, so forced entries survive process exits without burning
a block per force.
"""

from __future__ import annotations

import os
import struct
from typing import TYPE_CHECKING, Any, BinaryIO

from repro.worm.device import WormDevice
from repro.worm.errors import StorageError
from repro.worm.geometry import NULL_GEOMETRY, DeviceGeometry
from repro.worm.nvram import NvramTail, TailImage

if TYPE_CHECKING:  # pragma: no cover
    from repro.vsystem.clock import SimClock

__all__ = ["FileBackedWormDevice", "FileBackedNvram"]

_MAGIC = b"CLIODEV1"
_HEADER = struct.Struct(">8sIIB")
_STATE_UNWRITTEN = 0
_STATE_WRITTEN = 1
_STATE_INVALID = 2


class FileBackedWormDevice(WormDevice):
    """A write-once device persisted to a host file."""

    def __init__(
        self,
        path: str,
        *args: Any,
        _file: BinaryIO | None = None,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.path = path
        self._file: BinaryIO | None = _file

    # -- image geometry ------------------------------------------------------

    @property
    def _map_offset(self) -> int:
        return _HEADER.size

    def _state_offset(self, block: int) -> int:
        return self._map_offset + block

    def _block_offset(self, block: int) -> int:
        return self._map_offset + self.capacity_blocks + block * self.block_size

    # -- lifecycle -------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str,
        block_size: int,
        capacity_blocks: int,
        geometry: DeviceGeometry = NULL_GEOMETRY,
        clock: "SimClock | None" = None,
        supports_tail_query: bool = True,
    ) -> "FileBackedWormDevice":
        if os.path.exists(path):
            raise StorageError(f"{path!r} already exists")
        handle = open(path, "w+b")
        handle.write(
            _HEADER.pack(_MAGIC, block_size, capacity_blocks, int(supports_tail_query))
        )
        handle.write(bytes(capacity_blocks))  # state map, all unwritten
        handle.flush()
        return cls(
            path,
            block_size=block_size,
            capacity_blocks=capacity_blocks,
            geometry=geometry,
            clock=clock,
            supports_tail_query=supports_tail_query,
            _file=handle,
        )

    @classmethod
    def open_path(
        cls,
        path: str,
        geometry: DeviceGeometry = NULL_GEOMETRY,
        clock: "SimClock | None" = None,
    ) -> "FileBackedWormDevice":
        handle = open(path, "r+b")
        try:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size or not header.startswith(_MAGIC):
                raise StorageError(f"{path!r} is not a Clio device image")
            _, block_size, capacity, tail_query = _HEADER.unpack(header)
            if block_size == 0 or capacity == 0:
                raise StorageError(f"{path!r}: header declares an empty device")
            device = cls(
                path,
                block_size=block_size,
                capacity_blocks=capacity,
                geometry=geometry,
                clock=clock,
                supports_tail_query=bool(tail_query),
                _file=handle,
            )
            device._load()
        except BaseException:
            handle.close()
            raise
        return device

    def _load(self) -> None:
        """Populate the in-memory state from the image, trusting none of it."""
        if self._file is None:
            raise StorageError("device image is closed")
        self._file.seek(self._map_offset)
        states = self._file.read(self.capacity_blocks)
        if len(states) < self.capacity_blocks:
            raise StorageError(f"{self.path!r} ends inside its state map")
        if states.translate(None, b"\x00\x01\x02"):
            raise StorageError(f"{self.path!r} has an unknown block state")
        # _persist puts a block's bytes in the file before its state byte,
        # so an image shorter than its last marked block was cut afterwards.
        marked = max(states.rfind(b"\x01"), states.rfind(b"\x02")) + 1
        marked_end = self._block_offset(marked)
        if os.fstat(self._file.fileno()).st_size < marked_end:
            raise StorageError(f"{self.path!r} ends inside its written blocks")
        for block, state in enumerate(states):
            if state == _STATE_UNWRITTEN:
                continue
            self._file.seek(self._block_offset(block))
            self._blocks[block] = self._file.read(self.block_size)
            if state == _STATE_INVALID:
                self._invalidated.add(block)
        # The append point is the lowest unwritten block.
        self._next_writable = 0
        while (
            self._next_writable < self.capacity_blocks
            and self._next_writable in self._blocks
        ):
            self._next_writable += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.flush()
            self._file.close()
            self._file = None

    def __enter__(self) -> "FileBackedWormDevice":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- persistence hooks ---------------------------------------------------------

    def _persist(self, block: int, data: bytes, state: int) -> None:
        if self._file is None:
            raise StorageError("device image is closed")
        self._file.seek(self._block_offset(block))
        self._file.write(data)
        self._file.seek(self._state_offset(block))
        self._file.write(bytes([state]))
        self._file.flush()

    def write_block(self, block: int, data: bytes) -> None:
        super().write_block(block, data)
        self._persist(block, self._blocks[block], _STATE_WRITTEN)

    def invalidate(self, block: int) -> None:
        super().invalidate(block)
        self._persist(block, self._blocks[block], _STATE_INVALID)

    def _raw_overwrite(self, block: int, data: bytes) -> None:
        super()._raw_overwrite(block, data)
        self._persist(block, data, _STATE_WRITTEN)


class FileBackedNvram(NvramTail):
    """Battery-backed tail RAM persisted to a sidecar file."""

    _HEADER = struct.Struct(">8sQI")
    _MAGIC = b"CLIONVR1"

    def __init__(
        self,
        path: str,
        capacity_bytes: int,
        clock: "SimClock | None" = None,
    ) -> None:
        super().__init__(
            capacity_bytes=capacity_bytes, survives_crash=True, clock=clock
        )
        self.path = path
        self._reload()

    def _reload(self) -> None:
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            raw = handle.read()
        if len(raw) < self._HEADER.size:
            return
        magic, block_index, length = self._HEADER.unpack_from(raw, 0)
        if magic != self._MAGIC:
            raise StorageError(f"{self.path!r} is not a Clio NVRAM image")
        data = raw[self._HEADER.size : self._HEADER.size + length]
        if data:
            self._image = TailImage(block_index=block_index, data=data)

    def _persist(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "wb") as handle:
            if self._image is None:
                handle.write(self._HEADER.pack(self._MAGIC, 0, 0))
            else:
                handle.write(
                    self._HEADER.pack(
                        self._MAGIC, self._image.block_index, len(self._image.data)
                    )
                )
                handle.write(self._image.data)
        os.replace(tmp, self.path)

    def store(self, block_index: int, data: bytes) -> None:
        super().store(block_index, data)
        self._persist()

    def clear(self) -> None:
        super().clear()
        self._persist()
