"""The file-backed device holds no block bytes.

Opening reads the header and the state map and nothing else, however many
blocks are written; a block's bytes come from the image when it is read,
so a file changed underneath a running server is seen, not masked; and
every check, counter and charge is the in-memory device's, proven by
running both side by side.
"""

import os
import struct
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LogService
from repro.core.fsck import check_service
from repro.vsystem.clock import SimClock
from repro.worm import MAGNETIC_DISK, StorageError, WormDevice, filebacked
from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice
from repro.worm.hostfile import HostFile

BLOCK = 64
HEADER_SIZE = struct.calcsize(">8sIIB")


def block_offset(capacity, block, block_size=BLOCK):
    return HEADER_SIZE + capacity + block * block_size


# -- (a) open cost is flat ----------------------------------------------------


class CountingHost(HostFile):
    """The host seam, recording the size of every read."""

    reads: list[int] = []

    def pread(self, length, offset):
        self.reads.append(length)
        return super().pread(length, offset)


def host_reads_at_open(monkeypatch, path):
    monkeypatch.setattr(filebacked, "HostFile", CountingHost)
    CountingHost.reads = []
    with FileBackedWormDevice.open_path(path) as device:
        assert isinstance(device._host, CountingHost)
        written = device.next_writable
    return written, list(CountingHost.reads)


def test_open_reads_header_and_state_map_whatever_the_volume_holds(
    tmp_path, monkeypatch
):
    capacity = 6000
    reads = {}
    for written in (10, 5000):
        path = str(tmp_path / f"vol-{written}.img")
        with FileBackedWormDevice.create(path, BLOCK, capacity) as device:
            for i in range(written):
                device.append_block(bytes([i % 251]) * BLOCK)
        reopened, reads[written] = host_reads_at_open(monkeypatch, path)
        assert reopened == written
    assert reads[10] == reads[5000] == [HEADER_SIZE, capacity]


# -- (b) differential model ---------------------------------------------------

CAPACITY = 12
payloads = st.binary(min_size=BLOCK, max_size=BLOCK)
addresses = st.integers(-1, CAPACITY + 1)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("append_block"), payloads),
        st.tuples(st.just("write_block"), addresses, payloads),
        st.tuples(st.just("write_block"), addresses, st.binary(max_size=BLOCK - 1)),
        st.tuples(st.just("invalidate"), addresses),
        st.tuples(st.just("_raw_overwrite"), addresses, payloads),
        st.tuples(st.just("read_block"), addresses),
        st.tuples(st.just("read_blocks"), addresses, st.integers(-1, CAPACITY + 2)),
        st.tuples(st.just("is_written"), addresses),
        st.tuples(st.just("is_invalidated"), addresses),
        st.tuples(st.just("query_tail")),
        st.tuples(st.just("reopen")),
    ),
    max_size=40,
)


def outcome(device, name, args):
    try:
        return "ok", getattr(device, name)(*args)
    except Exception as error:  # compared by exact type below
        return type(error), None


def reopen_model(model):
    """What a reopened image promises of the device that wrote it: the same
    blocks, the append point at the lowest block holding nothing (garbage
    at the old append point counts as written, §2.3.2), the head parked."""
    model._head_position = 0
    model._next_writable = 0
    while model._next_writable < CAPACITY and model._has_block(model._next_writable):
        model._next_writable += 1


@settings(max_examples=150, deadline=None)
@given(steps=steps)
def test_same_results_stats_and_clock_as_the_in_memory_device(
    tmp_path_factory, steps
):
    path = str(tmp_path_factory.mktemp("model") / "dev.img")
    model = WormDevice(BLOCK, CAPACITY, MAGNETIC_DISK, SimClock())
    real = FileBackedWormDevice.create(path, BLOCK, CAPACITY, MAGNETIC_DISK, SimClock())
    try:
        for name, *args in steps:
            if name == "reopen":
                real.close()
                stats, clock = real.stats, real.clock
                real = FileBackedWormDevice.open_path(path, MAGNETIC_DISK, clock)
                real.stats = stats
                reopen_model(model)
            else:
                assert outcome(real, name, args) == outcome(model, name, args)
            assert real.next_writable == model.next_writable
            assert real.stats == model.stats
            assert real.clock.now_us == model.clock.now_us
            assert real._invalidated == model._invalidated
    finally:
        real.close()


# -- (c) the file changed underneath ------------------------------------------


def test_image_cut_inside_a_written_block_after_open(tmp_path):
    path = str(tmp_path / "dev.img")
    with FileBackedWormDevice.create(path, BLOCK, 8) as device:
        device.append_block(b"a" * BLOCK)
        device.append_block(b"b" * BLOCK)
        os.truncate(path, block_offset(8, 1) + BLOCK // 2)
        assert device.read_block(0) == b"a" * BLOCK
        reads = device.stats.reads
        with pytest.raises(StorageError, match="cut short"):
            device.read_block(1)
        assert device.stats.reads == reads  # nothing was read, nothing charged
        assert device.read_blocks(0, 1) == [b"a" * BLOCK]
        with pytest.raises(StorageError):
            device.read_blocks(0, 2)


def file_backed_service(directory, cache_blocks, capacity=64):
    def factory():
        index = len(list(directory.glob("vol-*.img")))
        return FileBackedWormDevice.create(
            str(directory / f"vol-{index:03d}.img"), 256, capacity
        )

    return LogService.create(
        block_size=256,
        degree_n=4,
        volume_capacity_blocks=capacity,
        cache_capacity_blocks=cache_blocks,
        device_factory=factory,
        nvram=FileBackedNvram(str(directory / "nvram.img"), capacity_bytes=256),
    )


def test_rot_in_the_image_is_seen_by_a_running_server(tmp_path):
    """§2.3.2 on real files: a burned block rots on disk after the cache let
    go of it; the server finds it corrupt on the next read, invalidates it,
    and keeps serving the entries in every other block."""
    service = file_backed_service(tmp_path, cache_blocks=4)
    log = service.create_log_file("/rot")
    entries = [f"entry-{i:03d}".encode() * 4 for i in range(60)]
    for data in entries:
        log.append(data, force=True)
    volume = service.store.sequence.volumes[0]
    assert volume.next_data_block > 8
    victim = 5
    device_block = volume.device.capacity_blocks - volume.data_capacity + victim
    with open(tmp_path / "vol-000.img", "r+b") as image:
        image.seek(block_offset(volume.device.capacity_blocks, device_block, 256) + 40)
        byte = image.read(1)
        image.seek(-1, os.SEEK_CUR)
        image.write(bytes([byte[0] ^ 0x10]))
    service.store.cache.clear()

    survivors = [entry.data for entry in log.entries()]

    assert service.read_stats.corrupt_blocks_found == 1
    assert (0, victim) in service.known_corrupt_blocks
    assert volume.is_data_invalidated(victim)
    assert 0 < len(survivors) < len(entries)
    assert set(survivors) <= set(entries)
    assert survivors[0] == entries[0] and survivors[-1] == entries[-1]
    report = check_service(service)
    assert not [f for f in report.errors if "unreadable" in f.message]
    volume.device.close()


# -- (d) a closed image -------------------------------------------------------


def test_closed_image_refuses_reads_writes_and_invalidation(tmp_path):
    device = FileBackedWormDevice.create(
        str(tmp_path / "dev.img"), BLOCK, 8, MAGNETIC_DISK, SimClock()
    )
    device.append_block(b"a" * BLOCK)
    device.close()
    device.close()  # idempotent
    before = (device.next_writable, device.stats.snapshot(), device.clock.now_us)
    with pytest.raises(StorageError, match="closed"):
        device.read_block(0)
    with pytest.raises(StorageError, match="closed"):
        device.append_block(b"b" * BLOCK)
    with pytest.raises(StorageError, match="closed"):
        device.invalidate(0)
    # No half-applied write: the device is where it was before the failures.
    assert (device.next_writable, device.stats, device.clock.now_us) == before
    assert not device.is_invalidated(0)
    with FileBackedWormDevice.open_path(device.path) as reopened:
        assert reopened.next_writable == 1
        assert not reopened.is_written(1)


# -- (e) a failed create leaves nothing behind --------------------------------


@pytest.mark.parametrize("block_size, capacity", [(0, 8), (BLOCK, 0), (-1, 8)])
def test_create_with_invalid_sizes_leaves_no_file_and_no_handle(
    tmp_path, block_size, capacity
):
    path = str(tmp_path / "dev.img")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(ValueError):
            FileBackedWormDevice.create(path, block_size, capacity)
    assert [str(w.message) for w in caught] == []
    assert not os.path.exists(path)


def test_create_that_fails_after_the_file_exists_removes_it(tmp_path, monkeypatch):
    class FullDisk(HostFile):
        def pwrite(self, data, offset):
            raise StorageError("no space left on device")

    monkeypatch.setattr(filebacked, "HostFile", FullDisk)
    path = str(tmp_path / "dev.img")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(StorageError, match="no space"):
            FileBackedWormDevice.create(path, BLOCK, 8)
    assert [str(w.message) for w in caught] == []
    assert not os.path.exists(path)


def test_create_never_truncates_an_existing_file(tmp_path):
    path = tmp_path / "dev.img"
    path.write_bytes(b"somebody else's bytes")
    with pytest.raises(StorageError, match="already exists"):
        FileBackedWormDevice.create(str(path), BLOCK, 8)
    assert path.read_bytes() == b"somebody else's bytes"
