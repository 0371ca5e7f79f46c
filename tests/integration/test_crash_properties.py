"""Property-based crash-consistency tests.

The strongest statement the paper makes about durability is ordering:
"the logging service preserves the order that data is written to
persistent storage, and ensures that if a log entry is recorded in
persistent storage, then previously-written entries are also recorded"
(Section 4).  These hypothesis tests drive random workloads into randomly
crashing devices and assert exactly that, plus recovery idempotence and
catalog consistency.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LogService
from repro.worm import DeviceCrashed, WormDevice
from repro.worm.corruption import CrashingWormDevice

# One operation: (logfile index 0-2, payload size, force?)
operations = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2),
        st.integers(min_value=0, max_value=400),
        st.booleans(),
    ),
    min_size=1,
    max_size=60,
)

# Example counts come from the hypothesis profile (see tests/conftest.py);
# run HYPOTHESIS_PROFILE=deep for nightly-style fuzzing.
crash_settings = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def run_workload(ops, crash_after, torn):
    """Run ops against a crashing device; returns (written, device, inflight).

    ``inflight`` is the (name, payload) of the append the crash interrupted,
    or None.  Such an entry may have become fully durable before the crash
    hit a later device write (an entrymap record, a fragment of the next
    block), so recovery legitimately returns it even though the client
    never received the acknowledgement.
    """
    inner = WormDevice(block_size=256, capacity_blocks=4096)
    proxy = CrashingWormDevice(inner, crash_after_writes=crash_after, torn=torn)
    written = {name: [] for name in ("/a", "/b", "/c")}
    names = list(written)
    inflight = None
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
            name = names[index]
            payload = bytes([index + 1]) * size
            inflight = (name, payload)
            logs[name].append(payload, force=force)
            written[name].append(payload)
            inflight = None
    except DeviceCrashed:
        pass
    device = proxy.reincarnate() if proxy.has_crashed else inner
    return written, device, inflight


def allowed_history(written, inflight, name):
    """The per-file histories recovery may legally return a prefix of."""
    history = list(written[name])
    if inflight is not None and inflight[0] == name:
        history.append(inflight[1])
    return history


class TestPrefixDurability:
    @given(
        ops=operations,
        crash_after=st.integers(min_value=2, max_value=80),
        torn=st.booleans(),
    )
    @crash_settings
    def test_recovered_state_is_a_prefix_per_logfile(self, ops, crash_after, torn):
        written, device, inflight = run_workload(ops, crash_after, torn)
        mounted, _ = LogService.mount([device])
        for name in written:
            try:
                log = mounted.open_log_file(name)
            except Exception:
                continue  # CREATE lost: acceptable only with nothing after
            got = [e.data for e in log.entries()]
            history = allowed_history(written, inflight, name)
            assert got == history[: len(got)], name

    @given(
        ops=operations,
        crash_after=st.integers(min_value=2, max_value=80),
        torn=st.booleans(),
    )
    @crash_settings
    def test_double_recovery_is_idempotent(self, ops, crash_after, torn):
        """Mounting twice (a crash during recovery itself costs nothing:
        recovery only reads) yields identical state."""
        written, device, _inflight = run_workload(ops, crash_after, torn)
        first, report1 = LogService.mount([device])
        state1 = {
            name: [e.data for e in first.open_log_file(name).entries()]
            for name in written
            if name.strip("/") in first.list_dir("/")
        }
        second, report2 = LogService.mount([device])
        state2 = {
            name: [e.data for e in second.open_log_file(name).entries()]
            for name in written
            if name.strip("/") in second.list_dir("/")
        }
        assert state1 == state2
        assert report1.catalog_records_replayed == report2.catalog_records_replayed

    @given(
        ops=operations,
        crash_after=st.integers(min_value=2, max_value=80),
    )
    @crash_settings
    def test_global_order_preserved(self, ops, crash_after):
        """The volume sequence log file shows entries in exactly the order
        they were appended (Section 4's ordering guarantee)."""
        written, device, inflight = run_workload(ops, crash_after, torn=False)
        if inflight is not None:
            # The interrupted append may have landed durably without an ack;
            # allow it as an optional final entry of its own file.
            written[inflight[0]].append(inflight[1])
        mounted, _ = LogService.mount([device])
        # Attribute every recovered client entry in the root log to its file
        # by logfile id (payloads are not unique across files); each file's
        # subsequence must then be a prefix of that file's append history.
        ids = {}
        for name in written:
            try:
                ids[mounted.open_log_file(name).logfile_id] = name
            except Exception:
                continue  # CREATE lost: no entries can carry its id
        recovered = {name: [] for name in written}
        for e in mounted.reader.iter_entries(0, start_global=0):
            if e.logfile_id < 8:
                continue  # catalog/entrymap bookkeeping, not client data
            assert e.logfile_id in ids, "recovered an entry that was never written"
            recovered[ids[e.logfile_id]].append(e.data)
        for name, got in recovered.items():
            history = written[name]
            assert got == history[: len(got)], name


class TestForcedDurability:
    @given(
        ops=operations,
        torn=st.booleans(),
        data=st.data(),
    )
    @crash_settings
    def test_force_then_crash_preserves_everything_before(self, ops, torn, data):
        """Crash strictly after a force: every entry appended before that
        force (inclusive) must be recovered."""
        # First run without crashing to learn the device-write count at the
        # last force.
        inner = WormDevice(block_size=256, capacity_blocks=4096)
        service = LogService.create(
            block_size=256,
            degree_n=4,
            volume_capacity_blocks=4096,
            device_factory=lambda: inner,
            nvram_tail=False,
        )
        names = ("/a", "/b", "/c")
        logs = {name: service.create_log_file(name) for name in names}
        written = {name: [] for name in names}
        entries_at_force = None
        writes_at_force = None
        for index, size, force in ops:
            name = names[index]
            payload = bytes([index + 1]) * size
            logs[name].append(payload, force=force)
            written[name].append(payload)
            if force:
                entries_at_force = {k: len(v) for k, v in written.items()}
                writes_at_force = inner.stats.writes
        if entries_at_force is None:
            return  # no force in this example
        # Re-run, crashing at a write count strictly after the last force.
        crash_after = writes_at_force + data.draw(
            st.integers(min_value=0, max_value=5)
        )
        rerun_written, device, inflight = run_workload(ops, crash_after, torn)
        mounted, _ = LogService.mount([device])
        for name, minimum in entries_at_force.items():
            log = mounted.open_log_file(name)
            got = [e.data for e in log.entries()]
            assert len(got) >= minimum, name
            history = allowed_history(rerun_written, inflight, name)
            assert got == history[: len(got)], name
