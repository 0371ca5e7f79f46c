"""Crash, recovery, and corruption tests (Section 2.3).

These exercise the full loop: run a service, kill it (losing volatile
state), mount the surviving media, and check that exactly the durable
prefix is back.
"""

import pytest

from repro.core import LogService
from repro.core.service import ServiceCrashed
from repro.worm.corruption import corrupt_block, corrupt_range


def make_service(**kwargs):
    defaults = dict(
        block_size=256,
        degree_n=4,
        volume_capacity_blocks=512,
        cache_capacity_blocks=256,
    )
    defaults.update(kwargs)
    return LogService.create(**defaults)


def remount(service, **kwargs):
    remains = service.crash()
    return LogService.mount(remains.devices, remains.nvram, **kwargs)


class TestCleanShutdownMount:
    def test_mount_restores_catalog_and_data(self):
        service = make_service()
        mail = service.create_log_file("/mail")
        smith = mail.create_sublog("smith")
        smith.append(b"msg-1", force=True)
        smith.append(b"msg-2", force=True)
        remains = service.shutdown()
        mounted, report = LogService.mount(remains.devices, remains.nvram)
        log = mounted.open_log_file("/mail/smith")
        assert [e.data for e in log.entries()] == [b"msg-1", b"msg-2"]
        assert report.catalog_records_replayed == 2

    def test_mount_empty_service(self):
        service = make_service()
        remains = service.shutdown()
        mounted, report = LogService.mount(remains.devices, remains.nvram)
        assert list(mounted.open_root().entries()) == []
        assert report.catalog_records_replayed == 0

    def test_writes_continue_after_mount(self):
        service = make_service()
        log = service.create_log_file("/app")
        log.append(b"before", force=True)
        mounted, _ = remount(service)
        log2 = mounted.open_log_file("/app")
        log2.append(b"after", force=True)
        assert [e.data for e in log2.entries()] == [b"before", b"after"]

    def test_ids_stable_across_mount(self):
        service = make_service()
        a = service.create_log_file("/a")
        mounted, _ = remount(service)
        assert mounted.open_log_file("/a").logfile_id == a.logfile_id

    def test_id_allocation_continues_after_mount(self):
        service = make_service()
        a = service.create_log_file("/a")
        mounted, _ = remount(service)
        b = mounted.create_log_file("/b")
        assert b.logfile_id > a.logfile_id


class TestCrashDurability:
    def test_forced_entries_survive_crash(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(25):
            log.append(f"forced-{i}".encode(), force=True)
        mounted, report = remount(service)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert got == [f"forced-{i}".encode() for i in range(25)]
        assert report.nvram_tail_recovered

    def test_unforced_tail_lost_without_nvram_battery(self):
        service = make_service(nvram_survives_crash=False)
        log = service.create_log_file("/app")
        log.append(b"durable", force=True)
        # Forcing stores to NVRAM; these later unforced entries only live
        # in the (volatile-on-crash) NVRAM image and the cache.
        log.append(b"volatile-1")
        log.append(b"volatile-2")
        mounted, report = remount(service)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        # The burned prefix (if any blocks filled) survives; the unforced
        # suffix in the lost tail does not.
        assert b"volatile-2" not in got
        assert not report.nvram_tail_recovered

    def test_prefix_durability_order(self):
        """If entry k survives, all earlier entries survive: the log
        service 'ensures that if a log entry is recorded in persistent
        storage, then previously-written entries are also recorded'."""
        service = make_service(nvram_survives_crash=False)
        log = service.create_log_file("/app")
        payloads = [f"e-{i:03d}".encode() * 4 for i in range(60)]
        for i, payload in enumerate(payloads):
            log.append(payload, force=(i == 30))
        mounted, _ = remount(service)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert got == payloads[: len(got)]
        assert len(got) >= 31  # everything up to the forced entry survived

    def test_forced_entries_survive_on_pure_worm(self):
        """Without NVRAM, a force burns the partial block (internal
        fragmentation) — but durability still holds."""
        service = make_service(nvram_tail=False)
        log = service.create_log_file("/app")
        for i in range(10):
            log.append(f"f-{i}".encode(), force=True)
        padding_before = service.space_stats.forced_padding
        assert padding_before > 0
        mounted, _ = remount(service)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert got == [f"f-{i}".encode() for i in range(10)]

    def test_entrymap_rebuilt_equivalently(self):
        """Locates after recovery give the same answers as before."""
        service = make_service()
        a = service.create_log_file("/a")
        b = service.create_log_file("/b")
        for i in range(120):
            (a if i % 7 == 0 else b).append(f"{i:04d}".encode() * 2, force=True)
        expected = [int(e.data[:4]) for e in a.entries()]
        mounted, _ = remount(service)
        got = [int(e.data[:4]) for e in mounted.open_log_file("/a").entries()]
        assert got == expected

    def test_crash_midway_through_fragmented_entry(self):
        """A crash that loses the tail mid-entry leaves a torn entry that
        is skipped; earlier entries remain readable."""
        service = make_service(nvram_survives_crash=False)
        log = service.create_log_file("/app")
        log.append(b"complete", force=True)
        log.append(b"Z" * 2000)  # spans many 256-byte blocks, unforced
        mounted, _ = remount(service)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert b"complete" in got
        assert b"Z" * 2000 not in got

    def test_multi_volume_recovery(self):
        service = make_service(volume_capacity_blocks=8)
        log = service.create_log_file("/app")
        payloads = [f"entry-{i:04d}".encode() * 4 for i in range(80)]
        for payload in payloads:
            log.append(payload, force=True)
        assert len(service.store.sequence.volumes) > 2
        mounted, report = remount(service)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert got == payloads
        assert len(report.volumes) == len(mounted.store.sequence.volumes)

    def test_recovery_without_tail_query_uses_binary_search(self):
        service = make_service(supports_tail_query=False)
        log = service.create_log_file("/app")
        for i in range(40):
            log.append(f"{i}".encode(), force=True)
        mounted, report = remount(service)
        assert report.volumes[0].tail_probes > 1
        got = [int(e.data) for e in mounted.open_log_file("/app").entries()]
        assert got == list(range(40))

    def test_torn_entrymap_record_does_not_hide_a_group(self):
        """Regression (found by hypothesis): if a level-1 entrymap record
        is torn (its continuation died with the lost tail), recovery must
        reconstruct that group's memberships from the blocks themselves —
        otherwise the rebuilt level-2 accumulator authoritatively denies
        the group's contents and a forced entry becomes unfindable."""
        from repro.worm import DeviceCrashed, WormDevice
        from repro.worm.corruption import CrashingWormDevice

        ops = [
            (0, 0, False), (0, 256, False), (0, 400, True), (0, 0, True),
            (0, 0, False), (0, 87, False), (0, 400, False), (0, 400, True),
            (0, 231, True), (0, 231, True), (0, 231, True), (0, 0, False),
            (1, 207, False), (0, 0, False), (2, 188, True), (0, 265, False),
            (1, 400, False),
        ]
        names = ("/a", "/b", "/c")
        inner = WormDevice(block_size=256, capacity_blocks=4096)
        proxy = CrashingWormDevice(inner, crash_after_writes=26, torn=False)
        try:
            service = LogService.create(
                block_size=256,
                degree_n=4,
                volume_capacity_blocks=4096,
                device_factory=lambda: proxy,
                nvram_tail=False,
            )
            logs = {name: service.create_log_file(name) for name in names}
            for index, size, force in ops:
                logs[names[index]].append(bytes([index + 1]) * size, force=force)
        except DeviceCrashed:
            pass
        device = proxy.reincarnate() if proxy.has_crashed else inner
        mounted, _ = LogService.mount([device])
        # /c's single forced entry lives in the group whose level-1
        # entrymap record is torn; it must still be locatable.
        got = [e.data for e in mounted.open_log_file("/c").entries()]
        assert len(got) == 1

    def test_timestamps_monotone_across_mounts(self):
        """Recovery resumes the clock past the newest on-media timestamp,
        so entry identities never regress across reboots."""
        service = make_service()
        log = service.create_log_file("/app")
        last_before = max(
            log.append(f"{i}".encode(), force=True).timestamp for i in range(10)
        )
        mounted, _ = remount(service)
        first_after = mounted.open_log_file("/app").append(b"next").timestamp
        assert first_after > last_before

    def test_crashed_instance_unusable(self):
        service = make_service()
        service.crash()
        with pytest.raises(ServiceCrashed):
            service.create_log_file("/x")


class TestCrashSweep:
    """Crash after every k-th device write; recovery must always yield a
    consistent prefix.  This is the classic crash-consistency sweep."""

    def run_workload(self, service, n=40):
        log = service.create_log_file("/app")
        for i in range(n):
            log.append(f"entry-{i:03d}".encode() * 3, force=(i % 5 == 0))
        return [f"entry-{i:03d}".encode() * 3 for i in range(n)]

    @pytest.mark.parametrize("crash_after", [1, 2, 3, 5, 8, 13, 21, 34])
    def test_sweep(self, crash_after):
        from repro.worm import DeviceCrashed, WormDevice
        from repro.worm.corruption import CrashingWormDevice

        inner = WormDevice(block_size=256, capacity_blocks=512)
        proxy = CrashingWormDevice(inner, crash_after_writes=crash_after)
        payloads = None
        try:
            service = LogService.create(
                block_size=256,
                degree_n=4,
                volume_capacity_blocks=512,
                device_factory=lambda: proxy,
                nvram_survives_crash=False,
            )
            payloads = self.run_workload(service)
        except DeviceCrashed:
            pass
        if payloads is None:
            payloads = [f"entry-{i:03d}".encode() * 3 for i in range(40)]
        device = proxy.reincarnate() if proxy.has_crashed else inner
        mounted, _ = LogService.mount([device])
        try:
            log = mounted.open_log_file("/app")
        except Exception:
            # The CREATE itself was lost — acceptable iff nothing after it
            # could have been acknowledged either.
            return
        got = [e.data for e in log.entries()]
        assert got == payloads[: len(got)]


class TestCorruption:
    def test_corrupt_written_block_is_skipped(self):
        service = make_service()
        log = service.create_log_file("/app")
        payloads = [f"entry-{i:03d}".encode() * 8 for i in range(40)]
        for payload in payloads:
            log.append(payload, force=True)
        # Corrupt an early data block on the device, then defeat the cache.
        corrupt_block(service.devices[0], 3)
        service.store.cache.clear()
        got = [e.data for e in log.entries()]
        assert 0 < len(got) < len(payloads)
        assert all(payload in payloads for payload in got)
        assert service.read_stats.corrupt_blocks_found >= 1

    def test_corrupt_block_gets_invalidated(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(30):
            log.append(f"{i}".encode() * 10, force=True)
        corrupt_block(service.devices[0], 2)
        service.store.cache.clear()
        list(log.entries())
        assert service.devices[0].is_invalidated(2)

    def test_corruption_beyond_tail_recorded_in_log(self):
        """'If a previously unwritten block is corrupted, then its location
        is recorded in a special log file.'  The writer discovers it when
        the burn fails (the garbage bits are already on the medium),
        invalidates the block, relocates the write, and logs the location."""
        from repro.core.ids import CORRUPTED_BLOCK_ID
        from repro.core.recovery import decode_corrupted_block_record

        service = make_service()
        log = service.create_log_file("/app")
        log.append(b"seed", force=True)
        device = service.devices[0]
        victim_device_block = device.next_writable  # next burn target
        corrupt_block(device, victim_device_block)
        # Fill blocks until the writer burns into the garbage region.
        payloads = [f"fill-{i:03d}".encode() * 8 for i in range(12)]
        for payload in payloads:
            log.append(payload, force=True)
        assert device.is_invalidated(victim_device_block)
        entries = list(
            service.reader.iter_entries(CORRUPTED_BLOCK_ID, start_global=0)
        )
        locations = [decode_corrupted_block_record(e.data) for e in entries]
        assert (0, victim_device_block - 1) in locations
        # All client data written around the corruption is intact.
        got = [e.data for e in log.entries()]
        assert got == [b"seed"] + payloads

    def test_remaining_volume_usable_after_corruption(self):
        """'The presence of corrupted blocks should not render the
        remainder of the volume unusable.'"""
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(20):
            log.append(f"pre-{i}".encode() * 6, force=True)
        corrupt_range(service.devices[0], 2, 3)
        service.store.cache.clear()
        list(log.entries())  # triggers detection/invalidation
        log.append(b"post-corruption", force=True)
        got = [e.data for e in log.entries()]
        assert b"post-corruption" in got

    def test_recovery_with_corrupted_volume(self):
        service = make_service()
        log = service.create_log_file("/app")
        for i in range(40):
            log.append(f"entry-{i:02d}".encode() * 4, force=True)
        corrupt_block(service.devices[0], 5)
        mounted, _ = remount(service)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert len(got) > 0
        expected = [f"entry-{i:02d}".encode() * 4 for i in range(40)]
        assert all(payload in expected for payload in got)
