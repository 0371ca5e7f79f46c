"""Tests for the NVRAM tail and the device timing models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vsystem.clock import SimClock
from repro.worm import (
    MAGNETIC_DISK,
    NULL_GEOMETRY,
    OPTICAL_DISK,
    RAM_DISK,
    DeviceGeometry,
    NvramTail,
    WormDevice,
)


class TestNvramTail:
    def test_store_and_load(self):
        nvram = NvramTail(capacity_bytes=256)
        nvram.store(7, b"partial tail")
        image = nvram.load()
        assert image.block_index == 7
        assert image.data == b"partial tail"

    def test_store_overwrites_previous_image(self):
        nvram = NvramTail(capacity_bytes=256)
        nvram.store(1, b"old")
        nvram.store(2, b"new")
        assert nvram.load().data == b"new"

    def test_clear(self):
        nvram = NvramTail(capacity_bytes=256)
        nvram.store(0, b"x")
        nvram.clear()
        assert nvram.load() is None

    def test_oversized_image_rejected(self):
        nvram = NvramTail(capacity_bytes=4)
        with pytest.raises(ValueError):
            nvram.store(0, b"12345")

    def test_survives_crash_by_default(self):
        nvram = NvramTail(capacity_bytes=64)
        nvram.store(3, b"durable")
        nvram.crash()
        assert nvram.load().data == b"durable"

    def test_non_battery_backed_loses_image(self):
        nvram = NvramTail(capacity_bytes=64, survives_crash=False)
        nvram.store(3, b"volatile")
        nvram.crash()
        assert nvram.load() is None

    def test_writes_charge_clock(self):
        clock = SimClock()
        nvram = NvramTail(capacity_bytes=64, clock=clock, write_cost_ms=0.5)
        nvram.store(0, b"a")
        nvram.store(0, b"b")
        assert clock.now_ms == pytest.approx(1.0)


class TestGeometry:
    def test_same_block_costs_settle_only(self):
        g = MAGNETIC_DISK
        assert g.seek_ms(10, 10) == g.settle_ms

    def test_seek_monotone_in_distance(self):
        g = OPTICAL_DISK
        near = g.seek_ms(0, 100)
        far = g.seek_ms(0, 500_000)
        assert far > near

    def test_seek_capped_at_max(self):
        g = DeviceGeometry(
            name="t",
            avg_seek_ms=100.0,
            max_seek_ms=120.0,
            settle_ms=0.0,
            rotational_latency_ms=0.0,
            transfer_ms_per_block=0.0,
            stroke_blocks=1000,
        )
        assert g.seek_ms(0, 1000) <= 120.0

    def test_average_random_seek_near_nominal(self):
        """Mean seek over random pairs should land near avg_seek_ms."""
        import random

        g = OPTICAL_DISK
        rng = random.Random(42)
        n = 4000
        total = 0.0
        for _ in range(n):
            a = rng.randrange(g.stroke_blocks)
            b = rng.randrange(g.stroke_blocks)
            total += g.seek_ms(a, b) - g.settle_ms
        mean = total / n
        assert 0.8 * g.avg_seek_ms <= mean <= 1.2 * g.avg_seek_ms

    def test_null_geometry_is_free(self):
        assert NULL_GEOMETRY.access_ms(0, 999_999) == 0.0

    def test_ram_geometry_has_no_seek(self):
        assert RAM_DISK.seek_ms(0, 10_000) == 0.0

    def test_device_charges_clock(self):
        clock = SimClock()
        dev = WormDevice(
            block_size=32, capacity_blocks=8, geometry=RAM_DISK, clock=clock
        )
        dev.append_block(bytes(32))
        dev.read_block(0)
        assert clock.now_ms == pytest.approx(2 * RAM_DISK.transfer_ms_per_block)

    def test_device_accumulates_busy_time(self):
        dev = WormDevice(block_size=32, capacity_blocks=8, geometry=MAGNETIC_DISK)
        dev.append_block(bytes(32))
        assert dev.stats.busy_ms > 0


def parent_seek_ms(g, from_block, to_block):
    """The seek formula as written before the zero-seek early return."""
    if from_block == to_block:
        return g.settle_ms
    distance = abs(to_block - from_block)
    frac = min(1.0, distance / max(1, g.stroke_blocks))
    scaled = (15.0 / 8.0) * g.avg_seek_ms * frac**0.5
    return g.settle_ms + min(g.max_seek_ms, scaled)


milliseconds = st.floats(min_value=0.0, max_value=1e9)
block_addresses = st.integers(0, 10_000_000)


class TestZeroSeekFastPath:
    @settings(max_examples=500, deadline=None)
    @given(
        avg=st.one_of(st.just(0.0), milliseconds),
        max_seek=milliseconds,
        settle=milliseconds,
        latency=milliseconds,
        transfer=milliseconds,
        stroke=st.integers(0, 2_000_000),
        a=block_addresses,
        b=block_addresses,
        count=st.integers(1, 64),
    )
    def test_costs_equal_the_original_formulas_bit_for_bit(
        self, avg, max_seek, settle, latency, transfer, stroke, a, b, count
    ):
        g = DeviceGeometry("g", avg, max_seek, settle, latency, transfer, stroke)
        seek = parent_seek_ms(g, a, b)
        assert repr(g.seek_ms(a, b)) == repr(seek)
        assert repr(g.access_ms(a, b)) == repr(seek + latency + transfer)
        assert repr(g.bulk_access_ms(a, b, count)) == repr(
            seek + latency + transfer * count
        )

    def test_negative_max_seek_is_refused(self):
        # The early return equals the formula only while min(max_seek, 0.0)
        # is 0.0.
        with pytest.raises(ValueError):
            DeviceGeometry("bad", 0.0, -1.0, 0.0, 0.0, 0.0)
