"""The host seam: every call the file-backed device makes on its image.

One unbuffered handle, positional reads and writes only: no file position
to share, no buffer to flush, and a file cut underneath is a short read,
not a fault.  A host failure (closed image, ``EIO``, full disk) raises
:class:`~repro.worm.errors.StorageError`.  Tests wrap it to count host I/O.
"""

from __future__ import annotations

import os
from io import FileIO

from repro.worm.errors import StorageError

__all__ = ["HostFile"]


class HostFile:
    """An open image; a ``FileIO``, not a bare descriptor, so a leak warns."""

    def __init__(self, handle: FileIO) -> None:
        self._handle = handle
        self._fd = handle.fileno()

    @classmethod
    def open(cls, path: str) -> "HostFile":
        return cls(open(path, "r+b", buffering=0))

    @classmethod
    def create(cls, path: str) -> "HostFile":
        try:  # exclusive: an existing file is never truncated
            return cls(open(path, "x+b", buffering=0))
        except FileExistsError:
            raise StorageError(f"{path!r} already exists") from None

    def _failed(self, what: str, error: OSError) -> StorageError:
        reason = "image is closed" if self._handle.closed else error.strerror
        return StorageError(f"{self._handle.name!r}: {what} failed: {reason}")

    def pread(self, length: int, offset: int) -> bytes:
        """Up to ``length`` bytes at ``offset``; fewer only at end of file."""
        try:
            return os.pread(self._fd, length, offset)
        except OSError as error:
            raise self._failed("read", error) from error

    def pwrite(self, data: bytes, offset: int) -> None:
        try:
            if os.pwrite(self._fd, data, offset) != len(data):
                raise OSError(0, "short write")
        except OSError as error:
            raise self._failed("write", error) from error

    def rename(self, src: str, dst: str) -> None:
        """Move the image from ``src`` to ``dst``; the handle stays open."""
        try:
            os.rename(src, dst)
        except OSError as error:
            raise self._failed("rename", error) from error

    def size(self) -> int:
        return os.fstat(self._fd).st_size

    def close(self) -> None:
        self._fd = -1
        self._handle.close()
