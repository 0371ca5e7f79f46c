"""A failed NVRAM persist: loud, leak-free, and the old image survives.

``FileBackedNvram`` writes the sidecar's new content (header + tail image)
to a temp file in one ``os.write`` and renames it over ``nvram.img``.  If
the host write comes up short or fails outright (a full disk), ``store()``
raises ``StorageError``, the file descriptor is closed anyway, and
``nvram.img`` still reloads to the image stored before — the forced
entries it covers are not lost to a failure staging the next ones.
"""

import errno
import os
import struct

import pytest

from repro.worm.errors import StorageError
from repro.worm.filebacked import FileBackedNvram
from repro.worm.nvram import TailImage

CAPACITY = 512
HEADER = struct.Struct(">8sQI")


def _short(real_write):
    return lambda fd, data: real_write(fd, data[: len(data) // 2])


def _enospc(real_write):
    def write(fd, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    return write


def test_a_store_writes_header_and_image_as_one_file(tmp_path):
    path = str(tmp_path / "nvram.img")
    FileBackedNvram(path, capacity_bytes=CAPACITY).store(7, b"tail" * 20)
    with open(path, "rb") as handle:
        assert handle.read() == HEADER.pack(b"CLIONVR1", 7, 80) + b"tail" * 20


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.parametrize("failing_write", [_short, _enospc], ids=["short", "enospc"])
def test_failed_persist_raises_closes_and_keeps_the_old_image(
    tmp_path, monkeypatch, failing_write
):
    path = str(tmp_path / "nvram.img")
    nvram = FileBackedNvram(path, capacity_bytes=CAPACITY)
    nvram.store(3, b"old" * 30)
    with open(path, "rb") as handle:
        before = handle.read()

    opened, closed = [], []
    real_open, real_close, real_write = os.open, os.close, os.write

    def counted_open(*args, **kwargs):
        opened.append(real_open(*args, **kwargs))
        return opened[-1]

    def counted_close(fd):
        closed.append(fd)
        real_close(fd)

    with monkeypatch.context() as patched:
        patched.setattr(os, "open", counted_open)
        patched.setattr(os, "close", counted_close)
        patched.setattr(os, "write", failing_write(real_write))
        with pytest.raises(StorageError):
            nvram.store(4, b"new" * 30)

    assert len(opened) == 1 and closed == opened
    with open(path, "rb") as handle:
        assert handle.read() == before
    assert FileBackedNvram(path, capacity_bytes=CAPACITY).load() == TailImage(
        3, b"old" * 30
    )
