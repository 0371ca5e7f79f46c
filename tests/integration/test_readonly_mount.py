"""Tests for read-only mounts (archive examination without mutation)."""

import pytest

from repro.core import LogService
from repro.core.service import ReadOnlyService
from repro.worm.corruption import corrupt_block


def build_store():
    service = LogService.create(
        block_size=256, degree_n=4, volume_capacity_blocks=512
    )
    log = service.create_log_file("/app")
    payloads = [f"entry-{i}".encode() * 4 for i in range(40)]
    for payload in payloads:
        log.append(payload, force=True)
    remains = service.crash()
    return remains, payloads


class TestReadOnlyMount:
    def test_reads_work(self):
        remains, payloads = build_store()
        mounted, _ = LogService.mount(remains.devices, remains.nvram, read_only=True)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert got == payloads

    def test_append_rejected(self):
        remains, _ = build_store()
        mounted, _ = LogService.mount(remains.devices, remains.nvram, read_only=True)
        with pytest.raises(ReadOnlyService):
            mounted.append("/app", b"nope")

    def test_create_rejected(self):
        remains, _ = build_store()
        mounted, _ = LogService.mount(remains.devices, remains.nvram, read_only=True)
        with pytest.raises(ReadOnlyService):
            mounted.create_log_file("/new")

    def test_attribute_changes_rejected(self):
        remains, _ = build_store()
        mounted, _ = LogService.mount(remains.devices, remains.nvram, read_only=True)
        with pytest.raises(ReadOnlyService):
            mounted.set_attribute("/app", "k", b"v")
        with pytest.raises(ReadOnlyService):
            mounted.set_permissions("/app", 0o400)

    def test_device_untouched_by_mount_and_reads(self):
        remains, _ = build_store()
        device = remains.devices[0]
        writes_before = device.stats.writes
        invalidations_before = device.stats.invalidations
        mounted, _ = LogService.mount(remains.devices, remains.nvram, read_only=True)
        list(mounted.open_log_file("/app").entries())
        assert device.stats.writes == writes_before
        assert device.stats.invalidations == invalidations_before

    def test_corruption_reported_not_repaired(self):
        remains, _ = build_store()
        corrupt_block(remains.devices[0], 3)
        mounted, _ = LogService.mount(remains.devices, remains.nvram, read_only=True)
        list(mounted.open_log_file("/app").entries())
        assert (0, 2) in mounted.known_corrupt_blocks  # data block 2
        assert not remains.devices[0].is_invalidated(3)

    def test_rw_mount_of_same_media_still_works_afterwards(self):
        remains, payloads = build_store()
        ro, _ = LogService.mount(remains.devices, remains.nvram, read_only=True)
        list(ro.open_log_file("/app").entries())
        rw, _ = LogService.mount(remains.devices, remains.nvram)
        log = rw.open_log_file("/app")
        log.append(b"after examination", force=True)
        assert [e.data for e in log.entries()] == payloads + [b"after examination"]
