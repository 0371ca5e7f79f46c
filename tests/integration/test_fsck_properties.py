"""Property-based fsck tests and a multi-volume soak test.

Whatever random (crash-free or crashed-and-recovered) history a service
accumulates, the on-media state must satisfy every invariant the checker
knows about.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LogService
from repro.core.fsck import check_service

operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),  # which log file
        st.integers(min_value=0, max_value=700),  # payload size
        st.booleans(),  # force?
        st.booleans(),  # timestamped?
    ),
    min_size=1,
    max_size=50,
)

fsck_settings = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_ops(ops, **service_kwargs):
    defaults = dict(
        block_size=256,
        degree_n=4,
        volume_capacity_blocks=64,
        cache_capacity_blocks=256,
    )
    defaults.update(service_kwargs)
    service = LogService.create(**defaults)
    names = ["/a", "/b", "/c"]
    logs = {name: service.create_log_file(name) for name in names}
    for index, size, force, timestamped in ops:
        logs[names[index]].append(
            bytes([index + 1]) * size,
            force=force,
            timestamped=timestamped or force,
        )
    return service


class TestFsckProperties:
    @given(ops=operations)
    @fsck_settings
    def test_any_live_history_is_clean(self, ops):
        service = run_ops(ops)
        report = check_service(service)
        assert report.clean, [f.message for f in report.errors]

    @given(ops=operations)
    @fsck_settings
    def test_any_recovered_history_is_clean(self, ops):
        service = run_ops(ops)
        remains = service.crash()
        mounted, _ = LogService.mount(remains.devices, remains.nvram)
        report = check_service(mounted)
        assert report.clean, [f.message for f in report.errors]

    @given(ops=operations)
    @fsck_settings
    def test_pure_worm_history_is_clean(self, ops):
        service = run_ops(ops, nvram_tail=False)
        report = check_service(service)
        assert report.clean, [f.message for f in report.errors]


class TestCorruptionProperties:
    @given(
        ops=operations,
        victims=st.lists(st.integers(min_value=1, max_value=200), max_size=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @fsck_settings
    def test_random_corruption_never_invents_data(self, ops, victims, seed):
        """Garbage random blocks; the service may lose the affected
        entries but must never return data that was not written, never
        crash, and the in-order property must hold per log file."""
        import random

        from repro.worm.corruption import corrupt_block

        service = run_ops(ops, volume_capacity_blocks=4096)
        # Record each file's history before damaging the media.
        names = ["/a", "/b", "/c"]
        history = {
            name: [e.data for e in service.open_log_file(name).entries()]
            for name in names
        }
        device = service.devices[0]
        rng = random.Random(seed)
        for victim in victims:
            if 0 < victim < device.blocks_written:
                corrupt_block(device, victim, rng)
        service.store.cache.clear()
        for name in names:
            got = [e.data for e in service.open_log_file(name).entries()]
            # Subsequence of the original, in order.
            position = 0
            for payload in got:
                while position < len(history[name]) and history[name][position] != payload:
                    position += 1
                assert position < len(history[name]), (name, "invented data")
                position += 1


class TestSoak:
    def test_long_mixed_run_with_periodic_crashes(self):
        """~1500 entries across many small volumes, five crash/recover
        cycles, entrymap-driven reads and fsck at every generation."""
        rng = random.Random(2024)
        service = LogService.create(
            block_size=256,
            degree_n=4,
            volume_capacity_blocks=32,
            cache_capacity_blocks=64,
        )
        names = [f"/app{i}" for i in range(4)]
        for name in names:
            service.create_log_file(name)
        written = {name: [] for name in names}
        for generation in range(5):
            for _ in range(300):
                name = rng.choice(names)
                payload = rng.randbytes(rng.randrange(1, 160))
                service.append(name, payload, force=True)
                written[name].append(payload)
            # Spot-check reads before crashing.
            probe = rng.choice(names)
            got = [e.data for e in service.open_log_file(probe).entries()]
            assert got == written[probe]
            report = check_service(service)
            assert report.clean, [f.message for f in report.errors]
            remains = service.crash()
            service, _ = LogService.mount(remains.devices, remains.nvram)
        assert len(service.store.sequence.volumes) > 10
        for name in names:
            got = [e.data for e in service.open_log_file(name).entries()]
            assert got == written[name]
