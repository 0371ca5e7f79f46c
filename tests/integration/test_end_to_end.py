"""End-to-end integration scenarios crossing every subsystem."""

import random

import pytest

from repro.apps import HistoryFileServer, TransactionManager
from repro.core import LogService
from repro.core.fsck import check_service
from repro.workloads import EntryStream, uniform_size, zipf_weights


def make_service(**kwargs):
    defaults = dict(
        block_size=512,
        degree_n=8,
        volume_capacity_blocks=256,
        cache_capacity_blocks=128,
    )
    defaults.update(kwargs)
    return LogService.create(**defaults)


class TestMixedWorkload:
    def test_many_logfiles_multi_volume_with_recovery(self):
        """A Zipf-weighted mix of log files spanning several volumes, with
        a crash in the middle — every entry written with force survives
        and order is preserved per log file."""
        service = make_service(volume_capacity_blocks=64)
        paths = [f"/sub{i}" for i in range(6)]
        logs = {p: service.create_log_file(p) for p in paths}
        stream = EntryStream(zipf_weights(6), uniform_size(10, 300), seed=42)
        written: dict[str, list[bytes]] = {p: [] for p in paths}
        for target, payload in stream.generate(400):
            path = paths[target]
            logs[path].append(payload, force=True)
            written[path].append(payload)
        assert len(service.store.sequence.volumes) >= 2

        remains = service.crash()
        mounted, report = LogService.mount(remains.devices, remains.nvram)
        assert report.catalog_records_replayed == 6
        for path in paths:
            got = [e.data for e in mounted.open_log_file(path).entries()]
            assert got == written[path], path
        fsck = check_service(mounted)
        assert fsck.clean, [f.message for f in fsck.errors]

    def test_repeated_crash_mount_cycles(self):
        """Five generations of crash/mount, appending each time."""
        service = make_service()
        service.create_log_file("/gen")
        expected = []
        for generation in range(5):
            log = service.open_log_file("/gen")
            for i in range(20):
                payload = f"g{generation}-{i}".encode()
                log.append(payload, force=True)
                expected.append(payload)
            remains = service.crash()
            service, _ = LogService.mount(remains.devices, remains.nvram)
        got = [e.data for e in service.open_log_file("/gen").entries()]
        assert got == expected

    def test_all_applications_share_one_service(self):
        """Transactions + history FS on one volume sequence, then a crash,
        then everything recovers."""
        service = make_service(volume_capacity_blocks=2048)
        txns = TransactionManager(service)
        hfs = HistoryFileServer(service)

        txn = txns.begin()
        txn.write(b"k", b"v")
        txns.commit(txn)
        hfs.write("/shared/doc", 0, b"contents")

        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)

        txns2 = TransactionManager(mounted)
        assert txns2.recover() == 1
        assert txns2.data == {b"k": b"v"}

        hfs2 = HistoryFileServer(mounted)
        hfs2.recover()
        assert hfs2.read("/shared/doc") == b"contents"

        fsck = check_service(mounted)
        assert fsck.clean, [f.message for f in fsck.errors]

    def test_small_cache_pressure(self):
        """Everything still correct when the cache is far smaller than the
        working set (just slower)."""
        service = make_service(
            cache_capacity_blocks=4, volume_capacity_blocks=4096
        )
        log = service.create_log_file("/app")
        payloads = [f"entry-{i:04d}".encode() * 4 for i in range(300)]
        for payload in payloads:
            log.append(payload, force=True)
        assert [e.data for e in log.entries()] == payloads
        assert service.cache_stats.evictions > 0

    def test_interleaved_read_write(self):
        """Readers iterating while the writer keeps appending see a
        consistent prefix."""
        service = make_service(volume_capacity_blocks=4096)
        log = service.create_log_file("/app")
        for i in range(50):
            log.append(f"pre-{i}".encode())
        iterator = iter(log.entries())
        first_batch = [next(iterator).data for _ in range(10)]
        for i in range(50):
            log.append(f"post-{i}".encode())
        rest = [e.data for e in iterator]
        combined = first_batch + rest
        assert combined[:50] == [f"pre-{i}".encode() for i in range(50)]

    def test_deep_sublog_hierarchy_across_volumes(self):
        service = make_service(volume_capacity_blocks=64)
        service.create_log_file("/org")
        service.create_log_file("/org/eng")
        service.create_log_file("/org/eng/storage")
        leaf = service.open_log_file("/org/eng/storage")
        for i in range(160):
            leaf.append(f"deep-{i}".encode() * 40, force=True)
        assert len(service.store.sequence.volumes) > 1
        top = [e.data for e in service.open_log_file("/org").entries()]
        assert len(top) == 160

    def test_time_queries_across_volumes(self):
        service = make_service(volume_capacity_blocks=64)
        log = service.create_log_file("/app")
        timestamps = []
        for i in range(200):
            result = log.append(f"{i:04d}".encode() * 40, force=True)
            timestamps.append(result.timestamp)
        assert len(service.store.sequence.volumes) > 1
        # Query from the middle timestamp: exactly the later half remains.
        middle = timestamps[100]
        got = [e.data for e in log.entries(since=middle)]
        assert got[0] == b"0100" * 40
        assert len(got) == 100
        # And read a specific early entry by id after all that growth.
        from repro.core import EntryId

        found = log.read(EntryId(timestamps[3]))
        assert found.data == b"0003" * 40


class TestRandomizedCrashSweep:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_workload_random_crash(self, seed):
        """Random entries, random force points, a crash at a random device
        write — recovery always yields a per-log-file prefix of what was
        written, and forced entries always survive."""
        from repro.worm import DeviceCrashed, WormDevice
        from repro.worm.corruption import CrashingWormDevice

        rng = random.Random(seed)
        inner = WormDevice(block_size=512, capacity_blocks=4096)
        proxy = CrashingWormDevice(
            inner, crash_after_writes=rng.randrange(3, 60), torn=rng.random() < 0.5
        )
        written: dict[str, list[tuple[bytes, bool]]] = {}
        last_forced: dict[str, int] = {}
        try:
            service = LogService.create(
                block_size=512,
                degree_n=8,
                volume_capacity_blocks=4096,
                device_factory=lambda: proxy,
                nvram_tail=False,
            )
            names = ["/a", "/b", "/c"]
            logs = {}
            for name in names:
                logs[name] = service.create_log_file(name)
                written[name] = []
            for i in range(300):
                name = rng.choice(names)
                payload = rng.randbytes(rng.randrange(1, 200))
                force = rng.random() < 0.3
                logs[name].append(payload, force=force)
                written[name].append((payload, force))
                if force:
                    last_forced[name] = len(written[name]) - 1
        except DeviceCrashed:
            pass
        device = proxy.reincarnate() if proxy.has_crashed else inner
        mounted, _ = LogService.mount([device])
        for name, history in written.items():
            try:
                log = mounted.open_log_file(name)
            except Exception:
                # The CREATE was lost; nothing for this file can have been
                # forced after it (creates are forced first).
                assert name not in last_forced
                continue
            got = [e.data for e in log.entries()]
            expected_payloads = [p for p, _ in history]
            assert got == expected_payloads[: len(got)], name
