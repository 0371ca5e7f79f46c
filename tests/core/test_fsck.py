"""Tests for the offline consistency checker."""

import pytest

from repro.core import LogService
from repro.core.fsck import check_service
from repro.worm.corruption import corrupt_block


def make_service(**kwargs):
    defaults = dict(
        block_size=256, degree_n=4, volume_capacity_blocks=1024
    )
    defaults.update(kwargs)
    return LogService.create(**defaults)


class TestCleanVolumes:
    def test_fresh_service_is_clean(self):
        service = make_service()
        report = check_service(service)
        assert report.clean
        assert report.blocks_checked == 0

    def test_busy_service_is_clean(self):
        service = make_service()
        a = service.create_log_file("/a")
        b = service.create_log_file("/a/b")
        for i in range(120):
            (a if i % 3 else b).append(f"entry-{i}".encode() * 3, force=(i % 7 == 0))
        report = check_service(service)
        assert report.clean, [f.message for f in report.errors]
        assert report.entries_checked > 120
        assert report.entrymap_records_checked > 0
        assert report.catalog_records_checked == 2

    def test_fragmented_entries_are_clean(self):
        service = make_service()
        log = service.create_log_file("/big")
        log.append(b"Z" * 2000)
        log.append(b"after")
        report = check_service(service)
        assert report.clean, [f.message for f in report.errors]

    def test_multivolume_clean(self):
        service = make_service(volume_capacity_blocks=8)
        log = service.create_log_file("/app")
        for i in range(60):
            log.append(f"{i:04d}".encode() * 6)
        assert len(service.store.sequence.volumes) > 1
        report = check_service(service)
        assert report.clean, [f.message for f in report.errors]

    def test_recovered_service_is_clean(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(50):
            log.append(f"{i}".encode() * 5, force=True)
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        report = check_service(mounted)
        assert report.clean, [f.message for f in report.errors]


class TestFindings:
    def test_silent_garbage_detected(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(40):
            log.append(f"{i}".encode() * 8, force=True)
        corrupt_block(service.devices[0], 3)
        service.store.cache.clear()
        report = check_service(service)
        # The scan trips the reader's corruption detection: the garbage
        # block gets invalidated (the paper's handling) and counted; any
        # residual inconsistency (orphaned continuation) becomes a finding.
        assert service.read_stats.corrupt_blocks_found >= 1
        assert service.devices[0].is_invalidated(3)
        assert report.blocks_checked > 0

    def test_lost_create_record_is_warned(self):
        """An entry whose log file is unknown to the catalog (lost CREATE)
        is flagged, not fatal."""
        service = make_service()
        log = service.create_log_file("/app")
        log.append(b"x", force=True)
        # Forge an entry for a never-created log file id by writing through
        # the writer directly (models a catalog lost to corruption).
        service.store.catalog._by_id[99] = service.store.catalog._by_id[
            log.logfile_id
        ]
        service.writer.append(99, b"orphan", force=True)
        del service.store.catalog._by_id[99]
        report = check_service(service)
        assert any("not in catalog" in f.message for f in report.warnings)

    def test_max_blocks_limits_scan(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(60):
            log.append(f"{i}".encode() * 10, force=True)
        partial = check_service(service, max_blocks=2)
        full = check_service(service)
        assert partial.blocks_checked < full.blocks_checked
