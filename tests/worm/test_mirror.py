"""Tests for device-level replication (mirrored write-once devices)."""

import pytest

from repro.core import LogService
from repro.worm import UnwrittenBlockError, WormDevice
from repro.worm.corruption import corrupt_block
from repro.worm.mirror import MirroredWormDevice, MirrorFailure

BS = 128


def make_mirror(k=2, capacity=32):
    replicas = [
        WormDevice(block_size=BS, capacity_blocks=capacity) for _ in range(k)
    ]
    return MirroredWormDevice(replicas), replicas


class TestMirrorBasics:
    def test_write_reaches_all_replicas(self):
        mirror, replicas = make_mirror()
        mirror.append_block(b"\x01" * BS)
        for replica in replicas:
            assert replica.read_block(0) == b"\x01" * BS

    def test_read_roundtrip(self):
        mirror, _ = make_mirror()
        mirror.append_block(b"\x02" * BS)
        assert mirror.read_block(0) == b"\x02" * BS

    def test_append_points_stay_in_lockstep(self):
        mirror, replicas = make_mirror(k=3)
        for i in range(5):
            mirror.append_block(bytes([i]) * BS)
        assert all(r.next_writable == 5 for r in replicas)

    def test_mismatched_geometry_rejected(self):
        a = WormDevice(block_size=BS, capacity_blocks=8)
        b = WormDevice(block_size=BS * 2, capacity_blocks=8)
        with pytest.raises(ValueError):
            MirroredWormDevice([a, b])

    def test_mismatched_state_rejected(self):
        a = WormDevice(block_size=BS, capacity_blocks=8)
        b = WormDevice(block_size=BS, capacity_blocks=8)
        a.append_block(bytes(BS))
        with pytest.raises(ValueError):
            MirroredWormDevice([a, b])

    def test_empty_mirror_rejected(self):
        with pytest.raises(ValueError):
            MirroredWormDevice([])

    def test_invalidate_applies_to_all(self):
        mirror, replicas = make_mirror()
        mirror.append_block(bytes(BS))
        mirror.invalidate(0)
        for replica in replicas:
            assert replica.is_invalidated(0)


class TestMirrorFaultTolerance:
    def test_write_survives_one_damaged_replica(self):
        mirror, replicas = make_mirror(k=2, capacity=16)
        mirror.append_block(b"\x01" * BS)
        # Garbage lands on replica 0's next block: its write will fail.
        corrupt_block(replicas[0], 1)
        mirror.append_block(b"\x02" * BS)
        assert mirror.healthy_replicas == 1
        assert mirror.read_block(1) == b"\x02" * BS

    def test_all_replicas_damaged_raises(self):
        mirror, replicas = make_mirror(k=2, capacity=16)
        mirror.append_block(b"\x01" * BS)
        for replica in replicas:
            corrupt_block(replica, 1)
        with pytest.raises(MirrorFailure):
            mirror.append_block(b"\x02" * BS)

    def test_read_falls_through_unwritten_replica_divergence(self):
        mirror, replicas = make_mirror(k=2, capacity=16)
        mirror.append_block(b"\x05" * BS)
        # Simulate replica 0 losing its copy (medium fault).
        del replicas[0]._blocks[0]
        assert mirror.read_block(0) == b"\x05" * BS
        assert (0, 0) in mirror.read_repairs

    def test_read_raises_when_no_replica_has_block(self):
        mirror, _ = make_mirror()
        with pytest.raises(UnwrittenBlockError):
            mirror.read_block(0)


class TestMirrorUnderService:
    def test_log_service_over_mirrored_devices(self):
        def factory():
            return MirroredWormDevice(
                [
                    WormDevice(block_size=256, capacity_blocks=512)
                    for _ in range(2)
                ]
            )

        service = LogService.create(
            block_size=256,
            degree_n=4,
            volume_capacity_blocks=512,
            device_factory=factory,
        )
        log = service.create_log_file("/app")
        payloads = [f"entry-{i}".encode() for i in range(50)]
        for payload in payloads:
            log.append(payload, force=True)
        assert [e.data for e in log.entries()] == payloads
        mirror = service.store.sequence.volumes[0].device
        assert mirror.healthy_replicas == 2

    def test_mirrored_store_crash_and_remount(self):
        """A service on mirrored media crashes and remounts from the
        mirror (recovery reads through the same replication layer)."""
        mirror = MirroredWormDevice(
            [WormDevice(block_size=256, capacity_blocks=512) for _ in range(2)]
        )
        service = LogService.create(
            block_size=256,
            degree_n=4,
            volume_capacity_blocks=512,
            device_factory=lambda: mirror,
        )
        log = service.create_log_file("/app")
        payloads = [f"entry-{i}".encode() * 3 for i in range(30)]
        for payload in payloads:
            log.append(payload, force=True)
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        got = [e.data for e in mounted.open_log_file("/app").entries()]
        assert got == payloads
        # Lose one replica's copy of an early block: reads still succeed.
        del mirror._replicas[0]._blocks[2]
        mounted.store.cache.clear()
        assert [e.data for e in mounted.open_log_file("/app").entries()] == payloads

    def test_service_survives_replica_loss(self):
        mirror = MirroredWormDevice(
            [WormDevice(block_size=256, capacity_blocks=512) for _ in range(2)]
        )
        service = LogService.create(
            block_size=256,
            degree_n=4,
            volume_capacity_blocks=512,
            device_factory=lambda: mirror,
        )
        log = service.create_log_file("/app")
        log.append(b"before", force=True)
        corrupt_block(mirror._replicas[0], mirror.next_writable)
        for i in range(20):
            log.append(f"after-{i}".encode() * 8, force=True)
        assert mirror.healthy_replicas == 1
        got = [e.data for e in log.entries()]
        assert got[0] == b"before"
        assert len(got) == 21


class TestMirrorDivergenceObservability:
    def test_read_repair_counts_and_reports(self):
        mirror, replicas = make_mirror(k=2, capacity=16)
        seen = []
        mirror.divergence_sink = lambda event, replica, block: seen.append(
            (event, replica, block)
        )
        mirror.append_block(b"\x05" * BS)
        del replicas[0]._blocks[0]
        assert mirror.read_block(0) == b"\x05" * BS
        assert mirror.divergences == 1
        assert seen == [("read_repair", 0, 0)]

    def test_replica_drop_counts_and_reports(self):
        mirror, replicas = make_mirror(k=2, capacity=16)
        seen = []
        mirror.divergence_sink = lambda event, replica, block: seen.append(
            (event, replica, block)
        )
        mirror.append_block(b"\x01" * BS)
        corrupt_block(replicas[0], 1)
        mirror.append_block(b"\x02" * BS)
        assert mirror.divergences == 1
        assert mirror.dropped_replicas == 1
        assert seen == [("replica_dropped", 0, 1)]

    def test_healthy_mirror_never_diverges(self):
        mirror, _ = make_mirror(k=3, capacity=16)
        for i in range(5):
            mirror.append_block(bytes([i]) * BS)
            mirror.read_block(i)
        assert mirror.divergences == 0
        assert mirror.read_repairs == []
        assert mirror.dropped_replicas == 0

    def test_service_journal_records_divergence_events(self):
        """The store binds the mirror's divergence sink at creation, so
        read repairs surface as ``mirror.read_repair`` journal events and
        in the ``clio_mirror_divergence_total`` counter."""
        mirror = MirroredWormDevice(
            [WormDevice(block_size=256, capacity_blocks=512) for _ in range(2)]
        )
        service = LogService.create(
            block_size=256,
            degree_n=4,
            volume_capacity_blocks=512,
            device_factory=lambda: mirror,
            observability=True,
        )
        log = service.create_log_file("/app")
        payloads = [f"payload-{i}".encode() * 4 for i in range(20)]
        for payload in payloads:
            log.append(payload, force=True)
        service.sync()
        assert mirror.blocks_written > 2  # header + burned data blocks
        del mirror._replicas[0]._blocks[1]  # first burned data block
        service.store.cache.clear()
        assert [e.data for e in log.entries()] == payloads
        kinds = [e.kind for e in service.journal.events()]
        assert "mirror.read_repair" in kinds
        event = next(
            e
            for e in service.journal.events()
            if e.kind == "mirror.read_repair"
        )
        assert event.attr("volume") == 0
        assert event.attr("replica") == 0
        from repro.obs.slo import metric_value

        assert metric_value(service, "clio_mirror_divergence_total") == 1
