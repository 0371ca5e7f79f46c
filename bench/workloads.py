"""The four workloads: what each builds, and what one segment of it does.

A workload is a fixed number of operations — nothing is time-boxed — and
every payload, file choice and read position comes from the run's seeded
generator, so two runs with one seed hand the program identical inputs.
A *segment* is one slice of the timed main loop: its appends, then its
reads, then its scan slice (``tail-follow`` interleaves the first two).
``bench/README.md`` says why each workload exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable

from bench.oracle import Oracle

__all__ = ["WORKLOADS", "Plan", "ReadOp", "Workload"]

#: Client log files live under one parent so the CLI samples have a home.
CLI_PATH = "/bench/cli"

#: About six entries to a block, so one append in six burns a block and
#: ``append_p90_us`` sits inside that mode, not on its edge.
_SMALL_SIZES = (80, 160, 240)
_MIXED_SIZES = (40, 80, 160, 300)
#: Share of ingest entries that span blocks (1500 B in 1024 B blocks).
_SPANNING_SHARE = 0.02
_SPANNING_SIZE = 1500


# -- the client's read operations (the code a reading client would write) ----


def op_tail(log: Any, count: int) -> list:
    return log.tail(count)


def op_since(log: Any, timestamp: int) -> list:
    return list(islice(log.entries(since=timestamp), 2))


def op_before(log: Any, timestamp: int) -> list:
    return list(islice(log.entries(before=timestamp, reverse=True), 2))


@dataclass(slots=True)
class ReadOp:
    """One timed read and what it must return."""

    call: Callable[[Any, int], list]
    path: str
    argument: int
    #: Index in the file's history of the first entry returned ...
    first: int
    #: ... how many entries, and whether they come newest-first.
    count: int
    reverse: bool = False


@dataclass(slots=True)
class Plan:
    """The inputs of one segment, generated before its clock starts."""

    #: (path, payload or batch, force)
    appends: list[tuple[str, Any, bool]] = field(default_factory=list)
    reads: list[ReadOp] = field(default_factory=list)
    #: True: each append is followed by that file's follower read.
    interleaved: bool = False


class Workload:
    """Base: file layout, preload, and per-segment plans."""

    name = ""
    cache_blocks = 2048
    file_count = 8
    #: The preload is this many segments' worth of appends, issued exactly
    #: as the main loop issues them, so the scan meets the same block
    #: layout everywhere in a file (sized so set-up takes >= 0.5 s).
    preload_segments = 0
    scan_entries = 300

    def __init__(self, seed: int, scale: float) -> None:
        self.rng = random.Random(f"clio-bench/{self.name}/{seed}")
        self.scale = scale
        self.paths = [f"/bench/f{index:02d}" for index in range(self.file_count)]
        #: Scan state: index of the next entry to scan, and where the
        #: last scanned entry lives (None = start of the file).
        self.scan_position = 0
        self.scan_cursor: Any = None

    # -- inputs ----------------------------------------------------------------

    def scaled(self, count: int) -> int:
        """A per-segment count at this run's scale (full size at 1.0)."""
        return max(8, round(count * self.scale))

    def payload(self, sizes: tuple[int, ...] = _SMALL_SIZES) -> bytes:
        return self.rng.randbytes(self.rng.choice(sizes))

    def pick_file(self) -> str:
        return self.rng.choice(self.paths)

    def segment_appends(self) -> list[tuple[str, Any, bool]]:
        """One segment's (path, payload or batch, force) triples."""
        raise NotImplementedError

    def preload(self) -> list[tuple[str, Any, bool]]:
        """The appends that build the store."""
        segments = max(1, round(self.preload_segments * self.scale))
        return [item for _ in range(segments) for item in self.segment_appends()]

    def plan(self, oracle: Oracle) -> Plan:
        raise NotImplementedError

    @property
    def scan_path(self) -> str:
        return self.paths[0]

    # -- shared plan pieces ------------------------------------------------------

    def _tail_reads(
        self, oracle: Oracle, plan: Plan, reads: int, count: int
    ) -> None:
        """``tail(count)`` of files this segment appends to, checked
        against the file's state once those appends have landed."""
        landed = {path: oracle.count(path) for path in self.paths}
        for path, item, _force in plan.appends:
            landed[path] += len(item) if isinstance(item, list) else 1
        appended_to = sorted({path for path, _item, _force in plan.appends})
        for index in range(reads):
            path = appended_to[index % len(appended_to)]
            got = min(count, landed[path])
            plan.reads.append(
                ReadOp(op_tail, path, count, landed[path] - got, got)
            )


class CommitForced(Workload):
    name = "commit-forced"
    preload_segments = 13
    appends = 900
    reads = 120
    scan_entries = 250

    def segment_appends(self) -> list[tuple[str, Any, bool]]:
        return [
            (self.paths[index % len(self.paths)], self.payload(), True)
            for index in range(self.scaled(self.appends))
        ]

    def plan(self, oracle: Oracle) -> Plan:
        plan = Plan(self.segment_appends())
        self._tail_reads(oracle, plan, self.scaled(self.reads), 1)
        return plan


class IngestBatched(Workload):
    name = "ingest-batched"
    preload_segments = 11
    batches = 100
    batch_entries = 32
    reads = 100
    scan_entries = 250

    def _entry(self) -> bytes:
        if self.rng.random() < _SPANNING_SHARE:
            return self.rng.randbytes(_SPANNING_SIZE)
        return self.payload(_MIXED_SIZES)

    def segment_appends(self) -> list[tuple[str, Any, bool]]:
        return [
            (
                self.paths[index % len(self.paths)],
                [self._entry() for _ in range(self.batch_entries)],
                True,
            )
            for index in range(self.scaled(self.batches))
        ]

    def plan(self, oracle: Oracle) -> Plan:
        plan = Plan(self.segment_appends())
        self._tail_reads(oracle, plan, self.scaled(self.reads), 5)
        return plan


class HistoryScan(Workload):
    name = "history-scan"
    #: About 1 % of the data: the larger-than-cache case.
    cache_blocks = 80
    file_count = 32
    #: This store is built in batches, not as the main loop appends: it
    #: has to be big, and the few appends of the main loop barely grow it.
    preload_entries = 48_000
    preload_batch = 16
    appends = 100
    reads = 120
    scan_entries = 800
    #: Files from this rank on are "sparse": the timed reads go to them.
    sparse_from = 8

    def __init__(self, seed: int, scale: float) -> None:
        super().__init__(seed, scale)
        # Zipf-like with a rare tail: rank r weighs r^-1.1, the last eight
        # files a tenth of that (densest ~31 %, sparsest ~0.07 %).
        self.weights = [
            (rank ** -1.1) * (0.1 if rank > self.file_count - 8 else 1.0)
            for rank in range(1, self.file_count + 1)
        ]

    def pick_file(self) -> str:
        return self.rng.choices(self.paths, self.weights)[0]

    def _batch(self, size: int) -> list[bytes]:
        return [self.payload(_MIXED_SIZES) for _ in range(size)]

    def preload(self) -> list[tuple[str, Any, bool]]:
        # Every file gets one early batch so the sparsest exist at all;
        # the rest follows the skew.
        batches = max(2, int(self.preload_entries * self.scale) // self.preload_batch)
        return [(path, self._batch(4), True) for path in self.paths] + [
            (self.pick_file(), self._batch(self.preload_batch), True)
            for _ in range(batches)
        ]

    def segment_appends(self) -> list[tuple[str, Any, bool]]:
        return [
            (self.pick_file(), self.payload(_MIXED_SIZES), False)
            for _ in range(self.scaled(self.appends))
        ]

    def plan(self, oracle: Oracle) -> Plan:
        plan = Plan(self.segment_appends())
        sparse = self.paths[self.sparse_from :]
        for index in range(self.scaled(self.reads)):
            path = self.rng.choice(sparse)
            position = self.rng.randrange(1, oracle.count(path) - 1)
            timestamp = oracle.stamps[path][position]
            if index % 2:
                plan.reads.append(
                    ReadOp(op_before, path, timestamp, position - 1, 2, reverse=True)
                )
            else:
                plan.reads.append(ReadOp(op_since, path, timestamp, position, 2))
        return plan


class TailFollow(Workload):
    name = "tail-follow"
    file_count = 4
    preload_segments = 50
    iterations = 400
    force_every = 8
    scan_entries = 200

    def segment_appends(self) -> list[tuple[str, Any, bool]]:
        return [
            (
                self.pick_file(),
                self.payload(),
                index % self.force_every == self.force_every - 1,
            )
            for index in range(self.scaled(self.iterations))
        ]

    def plan(self, oracle: Oracle) -> Plan:
        return Plan(self.segment_appends(), interleaved=True)


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (CommitForced, IngestBatched, HistoryScan, TailFollow)
}
