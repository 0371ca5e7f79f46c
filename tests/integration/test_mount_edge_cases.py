"""Mount-time edge cases: shuffled, missing, foreign, and damaged media."""

import pytest

from repro.core import LogService
from repro.worm import LogVolume, VolumeSequenceError, WormDevice
from repro.worm.corruption import corrupt_block


def build_sequence(n_volumes=3):
    service = LogService.create(
        block_size=256,
        degree_n=4,
        volume_capacity_blocks=16,
        cache_capacity_blocks=64,
    )
    log = service.create_log_file("/app")
    payloads = []
    while len(service.store.sequence.volumes) < n_volumes:
        payload = f"entry-{len(payloads):04d}".encode() * 6
        log.append(payload, force=True)
        payloads.append(payload)
    remains = service.crash()
    return remains.devices, remains.nvram, payloads


class TestMountOrdering:
    def test_shuffled_devices_mount_correctly(self):
        devices, nvram, payloads = build_sequence()
        shuffled = [devices[2], devices[0], devices[1]]
        mounted, _ = LogService.mount(shuffled, nvram)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert got == payloads

    def test_reversed_devices_mount_correctly(self):
        devices, nvram, payloads = build_sequence()
        mounted, _ = LogService.mount(list(reversed(devices)), nvram)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert got == payloads

    def test_missing_middle_volume_rejected(self):
        devices, nvram, _ = build_sequence()
        with pytest.raises(VolumeSequenceError):
            LogService.mount([devices[0], devices[2]], nvram)

    def test_missing_first_volume_rejected(self):
        devices, nvram, _ = build_sequence()
        with pytest.raises(VolumeSequenceError):
            LogService.mount(devices[1:], nvram)

    def test_foreign_volume_rejected(self):
        devices, nvram, _ = build_sequence()
        foreign = WormDevice(block_size=256, capacity_blocks=16)
        LogVolume.create(
            foreign, degree_n=4, sequence_id=b"X" * 16, volume_index=1
        )
        with pytest.raises(VolumeSequenceError):
            LogService.mount([devices[0], foreign], nvram)

    def test_uninitialized_device_rejected(self):
        blank = WormDevice(block_size=256, capacity_blocks=16)
        with pytest.raises(Exception):
            LogService.mount([blank])

    def test_no_devices_rejected(self):
        with pytest.raises(ValueError):
            LogService.mount([])


class TestMountWithDamage:
    def test_mount_with_corrupt_header_of_old_volume(self):
        """A predecessor volume whose *data* is damaged still mounts; only
        the garbaged blocks are lost."""
        devices, nvram, payloads = build_sequence()
        corrupt_block(devices[0], 3)
        mounted, _ = LogService.mount(devices, nvram)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert 0 < len(got) <= len(payloads)
        assert all(payload in payloads for payload in got)

    def test_stale_nvram_image_ignored(self):
        """An NVRAM image that does not continue the burned extent (e.g.
        from an older generation of the store) must be ignored."""
        devices, nvram, payloads = build_sequence()
        if nvram is not None:
            nvram.store(1, b"\xc1" + b"\x00" * 100)  # nonsense position
        mounted, report = LogService.mount(devices, nvram)
        assert not report.nvram_tail_recovered
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        # Everything burned before the crash is intact.
        assert got == payloads[: len(got)]
        assert len(got) >= len(payloads) - 2
