"""Edge cases for the fault-injection tools in :mod:`repro.worm.corruption`.

The basics (garbage bypasses write-once, crash-after-N) live in
``tests/worm/test_device.py``; this file pins down the boundary behaviour
the fault campaign relies on: range spans that cross the written/unwritten
boundary, already-invalidated blocks, out-of-range addresses, and the
append-point semantics of a torn burn.
"""

import random

import pytest

from repro.worm import BlockOutOfRange, DeviceCrashed, WormDevice
from repro.worm.corruption import CrashingWormDevice, corrupt_block, corrupt_range

BS = 64


def make_device(capacity=16, **kwargs):
    return WormDevice(block_size=BS, capacity_blocks=capacity, **kwargs)


def block(fill):
    return bytes([fill % 256]) * BS


class TestCorruptBlockEdges:
    def test_out_of_range_block_rejected(self):
        dev = make_device(capacity=8)
        with pytest.raises(BlockOutOfRange):
            corrupt_block(dev, 8)
        with pytest.raises(BlockOutOfRange):
            corrupt_block(dev, -1)

    def test_corrupting_invalidated_block_clears_invalidation(self):
        # A hardware fault can garbage a block that was deliberately
        # invalidated; afterwards it reads as corrupt, not invalidated.
        dev = make_device()
        dev.append_block(block(1))
        dev.invalidate(0)
        assert dev.is_invalidated(0)
        garbage = corrupt_block(dev, 0)
        assert not dev.is_invalidated(0)
        assert dev.read_block(0) == garbage
        assert garbage != bytes([WormDevice.INVALID_FILL]) * BS

    def test_unwritten_block_beyond_tail_can_rot(self):
        dev = make_device()
        dev.append_block(block(1))
        corrupt_block(dev, 5)
        assert dev.is_written(5)
        # Garbage beyond the append point does not move the append point:
        # nothing was ever burned there by the writer.
        assert dev.next_writable == 1

    def test_is_deterministic_with_fixed_rng(self):
        a = corrupt_block(make_device(), 0, random.Random(7))
        b = corrupt_block(make_device(), 0, random.Random(7))
        assert a == b


class TestCorruptRangeEdges:
    def test_non_positive_count_is_a_noop(self):
        dev = make_device()
        dev.append_block(block(1))
        before = dev.read_block(0)
        assert corrupt_range(dev, 0, 0) == []
        assert corrupt_range(dev, 0, -3) == []
        assert dev.read_block(0) == before

    def test_span_crossing_written_boundary(self):
        dev = make_device(capacity=8)
        for i in range(3):
            dev.append_block(block(i))
        corrupted = corrupt_range(dev, 1, 4)  # blocks 1-2 written, 3-4 not
        assert corrupted == [1, 2, 3, 4]
        for addr in corrupted:
            assert dev.is_written(addr)
        assert dev.read_block(0) == block(0)  # untouched

    def test_span_to_exact_device_end_allowed(self):
        dev = make_device(capacity=8)
        assert corrupt_range(dev, 6, 2) == [6, 7]

    def test_span_off_device_end_corrupts_nothing(self):
        # All-or-nothing: the range is validated before any block is
        # garbaged, so a bad span leaves the medium untouched.
        dev = make_device(capacity=8)
        dev.append_block(block(1))
        with pytest.raises(BlockOutOfRange):
            corrupt_range(dev, 6, 3)
        assert dev.read_block(0) == block(1)
        for addr in (6, 7):
            assert not dev.is_written(addr)

    def test_negative_start_corrupts_nothing(self):
        dev = make_device(capacity=8)
        with pytest.raises(BlockOutOfRange):
            corrupt_range(dev, -1, 2)
        assert not dev.is_written(0)

    def test_range_over_invalidated_blocks(self):
        dev = make_device()
        dev.append_block(block(1))
        dev.invalidate(1)
        dev.invalidate(2)
        corrupt_range(dev, 0, 3)
        for addr in (1, 2):
            assert not dev.is_invalidated(addr)
            assert dev.read_block(addr) != bytes([WormDevice.INVALID_FILL]) * BS


class TestTornBurnConsumesBlock:
    def test_torn_write_advances_append_point(self):
        # On write-once media a torn sector is still a used sector: the
        # recovered device must expose the garbage inside its written
        # area so mount-time scans can find and invalidate it.
        inner = make_device()
        dev = CrashingWormDevice(inner, crash_after_writes=1, torn=True)
        dev.append_block(block(0))
        with pytest.raises(DeviceCrashed):
            dev.append_block(block(1))
        recovered = dev.reincarnate()
        assert recovered.next_writable == 2
        assert recovered.is_written(1)
        assert recovered.read_block(1) != block(1)
        assert recovered.read_block(1)[:1] == block(1)[:1]

    def test_lost_write_does_not_advance_append_point(self):
        inner = make_device()
        dev = CrashingWormDevice(inner, crash_after_writes=1, torn=False)
        dev.append_block(block(0))
        with pytest.raises(DeviceCrashed):
            dev.append_block(block(1))
        recovered = dev.reincarnate()
        assert recovered.next_writable == 1
        assert not recovered.is_written(1)
