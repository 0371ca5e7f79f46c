"""Unit and property tests for the write-once device layer."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.worm import (
    BlockOutOfRange,
    DeviceCrashed,
    InvalidatedBlockError,
    RewritableDevice,
    UnwrittenBlockError,
    VolumeFullError,
    WormDevice,
    WriteOnceViolation,
)
from repro.worm.corruption import CrashingWormDevice, corrupt_block

BS = 64


def make_device(capacity=32, **kwargs):
    return WormDevice(block_size=BS, capacity_blocks=capacity, **kwargs)


def block(fill):
    return bytes([fill % 256]) * BS


class TestWormAppendDiscipline:
    def test_append_returns_sequential_addresses(self):
        dev = make_device()
        assert [dev.append_block(block(i)) for i in range(5)] == [0, 1, 2, 3, 4]

    def test_read_back_written_blocks(self):
        dev = make_device()
        for i in range(5):
            dev.append_block(block(i))
        for i in range(5):
            assert dev.read_block(i) == block(i)

    def test_rewrite_of_written_block_rejected(self):
        dev = make_device()
        dev.append_block(block(1))
        with pytest.raises(WriteOnceViolation):
            dev.write_block(0, block(2))

    def test_write_beyond_append_point_rejected(self):
        dev = make_device()
        with pytest.raises(WriteOnceViolation):
            dev.write_block(3, block(0))

    def test_write_once_violation_reports_append_point(self):
        dev = make_device()
        dev.append_block(block(0))
        with pytest.raises(WriteOnceViolation) as excinfo:
            dev.write_block(0, block(1))
        assert excinfo.value.block == 0
        assert excinfo.value.next_writable == 1

    def test_read_of_unwritten_block_raises(self):
        dev = make_device()
        with pytest.raises(UnwrittenBlockError):
            dev.read_block(0)

    def test_out_of_range_read_and_write(self):
        dev = make_device(capacity=4)
        with pytest.raises(BlockOutOfRange):
            dev.read_block(4)
        with pytest.raises(BlockOutOfRange):
            dev.write_block(4, block(0))

    def test_volume_full(self):
        dev = make_device(capacity=3)
        for i in range(3):
            dev.append_block(block(i))
        assert dev.is_full
        with pytest.raises(VolumeFullError):
            dev.append_block(block(9))

    def test_wrong_payload_size_rejected(self):
        dev = make_device()
        with pytest.raises(ValueError):
            dev.write_block(0, b"short")

    def test_stats_count_operations(self):
        dev = make_device()
        dev.append_block(block(0))
        dev.append_block(block(1))
        dev.read_block(0)
        assert dev.stats.writes == 2
        assert dev.stats.reads == 1

    def test_is_written_tracks_append_point(self):
        dev = make_device()
        dev.append_block(block(0))
        assert dev.is_written(0)
        assert not dev.is_written(1)

    def test_tail_query_reports_append_point(self):
        dev = make_device()
        for i in range(7):
            dev.append_block(block(i))
        assert dev.query_tail() == 7

    def test_tail_query_can_be_disabled(self):
        dev = make_device(supports_tail_query=False)
        with pytest.raises(NotImplementedError):
            dev.query_tail()


class TestInvalidation:
    def test_invalidated_block_reads_as_error(self):
        dev = make_device()
        dev.append_block(block(1))
        dev.invalidate(0)
        with pytest.raises(InvalidatedBlockError):
            dev.read_block(0)

    def test_invalidation_of_unwritten_block_is_skipped_by_append(self):
        dev = make_device()
        dev.invalidate(0)
        dev.invalidate(1)
        assert dev.append_block(block(7)) == 2

    def test_append_skips_invalidated_blocks_midstream(self):
        dev = make_device()
        dev.append_block(block(0))
        dev.invalidate(1)
        assert dev.append_block(block(2)) == 2

    def test_invalidated_counts_as_written_for_probes(self):
        dev = make_device()
        dev.invalidate(0)
        assert dev.is_written(0)
        assert dev.is_invalidated(0)


class TestCorruptionInjection:
    def test_corrupt_block_bypasses_write_once(self):
        dev = make_device()
        dev.append_block(block(3))
        garbage = corrupt_block(dev, 0)
        assert dev.read_block(0) == garbage
        assert dev.read_block(0) != block(3)

    def test_corrupt_never_produces_invalidation_pattern(self):
        dev = make_device()
        for seed in range(20):
            garbage = corrupt_block(dev, 0, random.Random(seed))
            assert garbage != bytes([0xFF]) * BS


class TestCrashingDevice:
    def test_crash_after_n_writes(self):
        inner = make_device()
        dev = CrashingWormDevice(inner, crash_after_writes=2)
        dev.append_block(block(0))
        dev.append_block(block(1))
        with pytest.raises(DeviceCrashed):
            dev.append_block(block(2))
        assert dev.has_crashed

    def test_lost_write_never_reaches_medium(self):
        inner = make_device()
        dev = CrashingWormDevice(inner, crash_after_writes=1, torn=False)
        dev.append_block(block(0))
        with pytest.raises(DeviceCrashed):
            dev.append_block(block(1))
        recovered = dev.reincarnate()
        assert recovered.blocks_written == 1

    def test_torn_write_leaves_garbage_prefix(self):
        inner = make_device()
        dev = CrashingWormDevice(inner, crash_after_writes=0, torn=True)
        with pytest.raises(DeviceCrashed):
            dev.append_block(block(5))
        recovered = dev.reincarnate()
        raw = recovered._blocks.get(0)
        assert raw is not None
        assert raw != block(5)
        assert raw[:1] == block(5)[:1]

    def test_operations_after_crash_keep_raising(self):
        dev = CrashingWormDevice(make_device(), crash_after_writes=0)
        with pytest.raises(DeviceCrashed):
            dev.append_block(block(0))
        with pytest.raises(DeviceCrashed):
            dev.read_block(0)

    def test_reincarnate_before_crash_rejected(self):
        dev = CrashingWormDevice(make_device(), crash_after_writes=5)
        with pytest.raises(RuntimeError):
            dev.reincarnate()


class TestDeviceStatsReset:
    def test_reset_zeroes_every_counter(self):
        dev = make_device()
        dev.append_block(block(1))
        dev.read_block(0)
        dev.is_written(0)
        dev.query_tail()
        dev.invalidate(5)
        stats = dev.stats
        assert stats.writes and stats.reads and stats.written_probes
        assert stats.tail_queries and stats.invalidations
        stats.reset()
        assert stats == type(stats)()  # every field back to its default

    def test_reset_does_not_disturb_device_state(self):
        dev = make_device()
        dev.append_block(block(1))
        dev.stats.reset()
        assert dev.read_block(0) == block(1)
        assert dev.next_writable == 1
        assert dev.stats.reads == 1  # counting resumes from zero


class TestRewritableDevice:
    def test_rewrites_allowed(self):
        dev = RewritableDevice(block_size=BS, capacity_blocks=8)
        dev.write_block(3, block(1))
        dev.write_block(3, block(2))
        assert dev.read_block(3) == block(2)

    def test_random_write_order_allowed(self):
        dev = RewritableDevice(block_size=BS, capacity_blocks=8)
        dev.write_block(7, block(7))
        dev.write_block(0, block(0))
        assert dev.read_block(7) == block(7)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------

class TestReadBlocks:
    def test_reads_written_run(self):
        dev = make_device()
        for i in range(6):
            dev.append_block(block(i))
        assert dev.read_blocks(1, 4) == [block(1), block(2), block(3), block(4)]

    def test_stops_at_append_frontier(self):
        dev = make_device()
        for i in range(3):
            dev.append_block(block(i))
        assert dev.read_blocks(1, 10) == [block(1), block(2)]

    def test_invalidated_block_yields_none_slot(self):
        dev = make_device()
        dev.append_block(block(0))
        dev.invalidate(1)
        dev.append_block(block(2))
        assert dev.read_blocks(0, 3) == [block(0), None, block(2)]

    def test_empty_inputs(self):
        dev = make_device()
        dev.append_block(block(0))
        assert dev.read_blocks(0, 0) == []
        assert dev.read_blocks(1, 4) == []  # starts at unwritten frontier

    def test_out_of_range_start_rejected(self):
        dev = make_device(capacity=4)
        with pytest.raises(BlockOutOfRange):
            dev.read_blocks(4, 1)

    def test_clamps_to_capacity(self):
        dev = make_device(capacity=4)
        for i in range(4):
            dev.append_block(block(i))
        assert len(dev.read_blocks(2, 100)) == 2

    def test_charges_one_seek_for_the_whole_run(self):
        from repro.worm.geometry import OPTICAL_DISK

        dev = make_device(capacity=64, geometry=OPTICAL_DISK)
        for i in range(32):
            dev.append_block(block(i))
        dev.read_block(0)  # park the head at a known position
        before = dev.stats.snapshot()
        dev.read_blocks(8, 16)
        delta = dev.stats.delta(before)
        assert delta.seeks == 1
        assert delta.reads == 16
        expected = OPTICAL_DISK.bulk_access_ms(0, 8, 16)
        assert delta.busy_ms == pytest.approx(expected)
        # One bulk transfer is far cheaper than 16 one-block accesses.
        single = OPTICAL_DISK.access_ms(0, 8) + 15 * OPTICAL_DISK.access_ms(0, 0)
        assert delta.busy_ms < single

    def test_single_block_reads_count_one_seek_each(self):
        dev = make_device()
        for i in range(4):
            dev.append_block(block(i))
        before = dev.stats.snapshot()
        for i in range(4):
            dev.read_block(i)
        assert dev.stats.delta(before).seeks == 4


payloads = st.binary(min_size=BS, max_size=BS)


class TestWormProperties:
    @given(st.lists(payloads, min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_read_back_equals_write_order(self, blocks):
        dev = WormDevice(block_size=BS, capacity_blocks=len(blocks))
        addresses = [dev.append_block(b) for b in blocks]
        assert addresses == list(range(len(blocks)))
        for addr, expected in zip(addresses, blocks):
            assert dev.read_block(addr) == expected

    @given(
        st.lists(payloads, min_size=2, max_size=20),
        st.data(),
    )
    @settings(max_examples=50, deadline=None)
    def test_no_written_block_is_ever_rewritable(self, blocks, data):
        dev = WormDevice(block_size=BS, capacity_blocks=len(blocks) + 1)
        for b in blocks:
            dev.append_block(b)
        victim = data.draw(st.integers(min_value=0, max_value=len(blocks) - 1))
        with pytest.raises(WriteOnceViolation):
            dev.write_block(victim, bytes(BS))

    @given(st.integers(min_value=0, max_value=30), st.data())
    @settings(max_examples=50, deadline=None)
    def test_written_prefix_is_contiguous(self, n_writes, data):
        """After any interleaving of appends and invalidations, the set of
        written-or-invalidated blocks is a prefix of the device."""
        dev = WormDevice(block_size=BS, capacity_blocks=64)
        for i in range(n_writes):
            if data.draw(st.booleans()):
                dev.invalidate(dev.next_writable)
            else:
                dev.append_block(block(i))
        boundary = dev.next_writable
        assert all(dev.is_written(b) for b in range(boundary))
        assert all(not dev.is_written(b) for b in range(boundary, 64))
