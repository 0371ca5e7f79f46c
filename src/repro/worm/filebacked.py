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
property of the modeled medium, enforced by the
:class:`~repro.worm.device.WormDevice` logic this class inherits whole.
The image is the only home of block bytes: the device keeps the state map
and the append point in memory and reads a block from the file when
asked, so opening costs the header and the map, whatever the volume holds.

:class:`FileBackedNvram` similarly persists the battery-backed tail image
to a sidecar file, so forced entries survive process exits without burning
a block per force.
"""

from __future__ import annotations

import os
import struct
from typing import TYPE_CHECKING

from repro.worm.device import WormDevice
from repro.worm.errors import StorageError
from repro.worm.geometry import NULL_GEOMETRY, DeviceGeometry
from repro.worm.hostfile import HostFile
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
        host: HostFile,
        states: bytearray,
        block_size: int,
        geometry: DeviceGeometry,
        clock: "SimClock | None",
        supports_tail_query: bool,
    ) -> None:
        super().__init__(
            block_size, len(states), geometry, clock, supports_tail_query
        )
        self.path = path
        self._host = host
        #: The image's state map; the append point is its lowest unwritten byte.
        self._states = states
        self._data_offset = _HEADER.size + len(states)
        unwritten = states.find(_STATE_UNWRITTEN)
        self._next_writable = len(states) if unwritten < 0 else unwritten
        invalid = states.find(_STATE_INVALID)
        while invalid >= 0:
            self._invalidated.add(invalid)
            invalid = states.find(_STATE_INVALID, invalid + 1)

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
        if block_size <= 0 or capacity_blocks <= 0:
            raise ValueError("block_size and capacity_blocks must be positive")
        states = bytearray(capacity_blocks)  # all unwritten
        header = _HEADER.pack(
            _MAGIC, block_size, capacity_blocks, int(supports_tail_query)
        )
        host = HostFile.create(path)
        try:
            host.pwrite(header + states, 0)
            return cls(
                path, host, states, block_size, geometry, clock, supports_tail_query
            )
        except BaseException:
            host.close()
            os.remove(path)
            raise

    @classmethod
    def open_path(
        cls,
        path: str,
        geometry: DeviceGeometry = NULL_GEOMETRY,
        clock: "SimClock | None" = None,
    ) -> "FileBackedWormDevice":
        """Open an image, trusting none of it: two host reads (header, state
        map) and no block, however many are written."""
        host = HostFile.open(path)
        try:
            header = host.pread(_HEADER.size, 0)
            if len(header) < _HEADER.size or not header.startswith(_MAGIC):
                raise StorageError(f"{path!r} is not a Clio device image")
            _, block_size, capacity, tail_query = _HEADER.unpack(header)
            if block_size == 0 or capacity == 0:
                raise StorageError(f"{path!r}: header declares an empty device")
            size = host.size()  # also bounds what a declared capacity allocates
            states = bytearray(host.pread(min(capacity, size), _HEADER.size))
            if len(states) < capacity:
                raise StorageError(f"{path!r} ends inside its state map")
            if states.translate(None, b"\x00\x01\x02"):
                raise StorageError(f"{path!r} has an unknown block state")
            # _store puts a block's bytes in the file before its state byte,
            # so an image shorter than its last marked block was cut afterwards.
            marked = max(states.rfind(_STATE_WRITTEN), states.rfind(_STATE_INVALID))
            if size < _HEADER.size + capacity + (marked + 1) * block_size:
                raise StorageError(f"{path!r} ends inside its written blocks")
            return cls(
                path, host, states, block_size, geometry, clock, bool(tail_query)
            )
        except BaseException:
            host.close()
            raise

    def close(self) -> None:
        """Release the image; every later read or write raises StorageError."""
        self._host.close()

    def __enter__(self) -> "FileBackedWormDevice":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- storage hooks: block bytes live in the image, nowhere else -----------

    def _has_block(self, block: int) -> bool:
        return self._states[block] != _STATE_UNWRITTEN

    def _fetch(self, block: int) -> bytes | None:
        if self._states[block] == _STATE_UNWRITTEN:
            return None
        size = self.block_size
        data = self._host.pread(size, self._data_offset + block * size)
        if len(data) != size:
            raise StorageError(f"{self.path!r}: block {block} is cut short")
        return data

    def _store(self, block: int, data: bytes, invalidated: bool = False) -> None:
        state = _STATE_INVALID if invalidated else _STATE_WRITTEN
        # Bytes before the state byte — in the page cache's order only.
        self._host.pwrite(data, self._data_offset + block * self.block_size)
        self._host.pwrite(bytes((state,)), _HEADER.size + block)
        self._states[block] = state

    def write_block(self, block: int, data: bytes) -> None:
        # Defined here only so bench/trace.py can time the file-backed burn
        # apart from the in-memory one; the work is all in the base class.
        super().write_block(block, data)


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
        #: True when the sidecar file is known to hold the empty image.
        self._file_is_empty = False
        self._reload()

    def _reload(self) -> None:
        """Load the sidecar, trusting none of it; a missing file is no image."""
        try:
            with open(self.path, "rb") as handle:
                raw = handle.read()
        except FileNotFoundError:
            return
        if len(raw) < self._HEADER.size:
            raise StorageError(f"{self.path!r} ends inside its header")
        magic, block_index, length = self._HEADER.unpack_from(raw, 0)
        if magic != self._MAGIC:
            raise StorageError(f"{self.path!r} is not a Clio NVRAM image")
        if length > self.capacity_bytes:
            raise StorageError(f"{self.path!r} declares more than the NVRAM holds")
        data = raw[self._HEADER.size : self._HEADER.size + length]
        if len(data) < length:
            raise StorageError(f"{self.path!r} ends inside its tail image")
        if data:
            self._image = TailImage(block_index=block_index, data=data)
        self._file_is_empty = not data

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
        self._file_is_empty = self._image is None

    def store(self, block_index: int, data: bytes) -> None:
        super().store(block_index, data)
        self._persist()

    def clear(self) -> None:
        super().clear()
        # A block fill inside a forced batch clears an already-clear sidecar.
        if not self._file_is_empty:
            self._persist()
