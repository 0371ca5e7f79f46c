"""Hypothesis stateful testing: the service as a state machine.

Rules interleave appends (forced and not), group commits (``append_many``
batches of 1–40 entries, timestamped or not, forced or not, payloads up
to larger than a block), sublog creation, reads, crash/mount cycles, and
clean shutdowns; the model tracks, per log file, the
full append history and the index of the last forced entry.  Invariants:

* reading always yields a prefix of the history;
* after any recovery, at least everything up to the last force is there;
* a clean shutdown loses nothing;
* sublog entries always appear in their ancestors.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core import LogService

MAX_FILES = 4


class LogServiceMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.service = LogService.create(
            block_size=256,
            degree_n=4,
            volume_capacity_blocks=64,
            cache_capacity_blocks=128,
        )
        self.history: dict[str, list[bytes]] = {}
        self.forced_floor: dict[str, int] = {}
        self.parents: dict[str, str | None] = {}

    # -- helpers --------------------------------------------------------

    def _paths(self):
        return sorted(self.history)

    def _check_prefix(self, service, trim_allowed):
        for path, history in self.history.items():
            try:
                log = service.open_log_file(path)
            except Exception:
                assert not history or self.forced_floor.get(path, 0) == 0
                continue
            # Direct entries only: a parent's iteration also includes its
            # sublogs' entries, which have their own model histories.
            got = [
                e.data for e in log.entries() if e.logfile_id == log.logfile_id
            ]
            assert got == history[: len(got)], path
            if trim_allowed:
                assert len(got) >= self.forced_floor.get(path, 0), path
            else:
                assert len(got) == len(history), path

    # -- rules ---------------------------------------------------------------

    @rule(name_index=st.integers(min_value=0, max_value=MAX_FILES - 1))
    def create_log(self, name_index):
        path = f"/log{name_index}"
        if path in self.history:
            return
        self.service.create_log_file(path)
        self.history[path] = []
        self.forced_floor[path] = 0
        self.parents[path] = None

    @precondition(lambda self: self.history)
    @rule(
        data=st.data(),
        size=st.integers(min_value=0, max_value=500),
        force=st.booleans(),
    )
    def append(self, data, size, force):
        path = data.draw(st.sampled_from(self._paths()))
        payload = (path[-1].encode() + b"-") * 1 + bytes([size % 256]) * size
        self.service.append(path, payload, force=force)
        self.history[path].append(payload)
        if force:
            # A force makes everything appended so far durable, in every
            # log file (the log is one physical sequence).
            for p in self.history:
                self.forced_floor[p] = len(self.history[p])

    @precondition(lambda self: self.history)
    @rule(
        data=st.data(),
        sizes=st.lists(st.integers(min_value=0, max_value=600), min_size=1, max_size=40),
        timestamped=st.booleans(),
        force=st.booleans(),
    )
    def append_many(self, data, sizes, timestamped, force):
        path = data.draw(st.sampled_from(self._paths()))
        start = len(self.history[path])
        batch = [
            path[-1].encode() + b"%d-" % (start + i) + bytes([size % 256]) * size
            for i, size in enumerate(sizes)
        ]
        results = self.service.append_many(
            path, batch, timestamped=timestamped, force=force
        )
        assert len(results) == len(batch)
        self.history[path].extend(batch)
        log = self.service.open_log_file(path)
        direct = [e.data for e in log.entries() if e.logfile_id == log.logfile_id]
        assert direct == self.history[path]
        if force:
            for p in self.history:
                self.forced_floor[p] = len(self.history[p])

    @precondition(lambda self: self.history)
    @rule(data=st.data())
    def create_sublog(self, data):
        parent = data.draw(st.sampled_from(self._paths()))
        child = parent + "/sub"
        if child in self.history:
            return
        self.service.create_log_file(child)
        self.history[child] = []
        self.forced_floor[child] = 0
        self.parents[child] = parent

    @precondition(lambda self: self.history)
    @rule(data=st.data())
    def read_one(self, data):
        path = data.draw(st.sampled_from(self._paths()))
        log = self.service.open_log_file(path)
        direct = [
            e.data for e in log.entries() if e.logfile_id == log.logfile_id
        ]
        assert direct == self.history[path][: len(direct)]

    @rule()
    def crash_and_mount(self):
        remains = self.service.crash()
        self.service, _ = LogService.mount(remains.devices, remains.nvram)
        self._check_prefix(self.service, trim_allowed=True)
        # Resynchronize the model with what actually survived.
        for path in list(self.history):
            try:
                log = self.service.open_log_file(path)
                got = [
                    e.data
                    for e in log.entries()
                    if e.logfile_id == log.logfile_id
                ]
            except Exception:
                got = []
            self.history[path] = got
            self.forced_floor[path] = min(self.forced_floor[path], len(got))

    @rule()
    def clean_shutdown_and_mount(self):
        remains = self.service.shutdown()
        self.service, _ = LogService.mount(remains.devices, remains.nvram)
        self._check_prefix(self.service, trim_allowed=False)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def sublogs_contained_in_parents(self):
        if not hasattr(self, "service"):
            return
        for child, parent in self.parents.items():
            if parent is None or not self.history.get(child):
                continue
            parent_log = self.service.open_log_file(parent)
            parent_data = [e.data for e in parent_log.entries()]
            child_log = self.service.open_log_file(child)
            for entry in child_log.entries():
                assert entry.data in parent_data


LogServiceMachine.TestCase.settings = settings(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
TestLogServiceStateMachine = LogServiceMachine.TestCase
