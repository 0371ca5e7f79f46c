"""The run loop: set-up, timed segments, crash/remount epilogue, checks.

One process, one thread, one closed-loop client.  Three rules make the
numbers repeat (``bench/README.md`` has the measurements behind them):

1. *Fixed counts.*  A run is a fixed number of operations, a function of
   ``--seconds`` and nothing else, so every count metric repeats exactly.
2. *Interleaved segments.*  The main loop is many short segments, each
   running appends, reads and a scan slice; every timing is computed per
   segment and the reported value is the median over segments.
3. *Speed calibration.*  Each segment (and each mount and CLI sample) is
   bracketed by :func:`bench.kernel.time_kernel`, and a set-up has kernel
   runs all through it; timings are divided by ``mean(those kernel times)
   / CAL_REF_NS``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from dataclasses import dataclass, fields, is_dataclass
from itertools import islice
from typing import Any, Callable, Iterator

from bench.kernel import CAL_REF_NS, time_kernel
from bench.metrics import demoted_timings, end_to_end, per_layer, raw_timings
from bench.oracle import Oracle
from bench.storedir import BLOCK_SIZE, StoreDir
from bench.trace import LayerTracer, clio_layer_points
from bench.workloads import CLI_PATH, WORKLOADS, Plan, Workload

from repro.core.fsck import check_service

__all__ = ["Sizes", "RunResult", "run", "SEGMENTS_PER_SECOND"]

#: ``--seconds`` fixes the operation count: this many segments (each about
#: 1/8 s at reference speed) per second asked for.
SEGMENTS_PER_SECOND = 8

#: Set-up issues its preload in this many pieces, a kernel run between them.
_BUILD_CHUNKS = 16

#: Appends before each crash; the last few are unforced and may be lost.
_CYCLE_APPENDS = 50
_CYCLE_UNFORCED_TAIL = 3

#: Final read-back: whole files until this many entries are covered, then
#: this many entries at each end of the others; fsck per-volume block cap.
_VERIFY_ENTRIES = 15_000
_VERIFY_WINDOW = 300
_FSCK_BLOCKS = 500

Clock = Callable[[], int]

#: The checkout: the directory holding ``bench/`` and ``src/``.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@dataclass(frozen=True, slots=True)
class Sizes:
    """How much work one run does; all counts, no durations."""

    segments: int
    #: Of a traced run: segments with the wrappers on / with the program's
    #: own observability stack on (after ``segments`` plain ones).
    traced_segments: int
    obs_segments: int
    setup_repeats: int
    mount_cycles: int
    cli_samples: int
    #: Scale of the preload and of per-segment operation counts.
    scale: float = 1.0

    @classmethod
    def for_seconds(cls, seconds: int, trace: bool) -> "Sizes":
        if trace:
            return cls(
                segments=2 * seconds,
                traced_segments=4 * seconds,
                obs_segments=seconds,
                setup_repeats=1,
                mount_cycles=8,
                cli_samples=8,
            )
        return cls(
            segments=SEGMENTS_PER_SECOND * seconds,
            traced_segments=0,
            obs_segments=0,
            setup_repeats=3,
            mount_cycles=25,
            cli_samples=25,
        )

    @classmethod
    def smoke(cls, trace: bool = False) -> "Sizes":
        """Small counts for the tests: same code paths, a few seconds."""
        return cls(
            segments=4,
            traced_segments=3 if trace else 0,
            obs_segments=2 if trace else 0,
            setup_repeats=2,
            mount_cycles=3,
            cli_samples=2,
            scale=0.05,
        )


@dataclass(slots=True)
class RunResult:
    """What one run found; :meth:`as_json` is the contract's last line."""

    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    #: The timings as the clock read them, before scaling by speed.
    raw: dict[str, float]
    #: The timings that carry no bound (``scaled.*``), at reference speed.
    demoted: dict[str, float]
    #: Everything that must repeat exactly for a seed.
    counts: dict[str, float]
    fingerprint: str
    failures: list[str]

    def as_json(self) -> str:
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in self.metrics.items()
                },
            }
        )


# ---------------------------------------------------------------------------
# Counters: the program's own counts, attributed to phases
# ---------------------------------------------------------------------------


def _flatten(prefix: str, stats: Any, out: dict[str, int]) -> None:
    for item in fields(stats):
        value = getattr(stats, item.name)
        if is_dataclass(value):
            _flatten(f"{prefix}.{item.name}", value, out)
        elif isinstance(value, int):
            out[f"{prefix}.{item.name}"] = value


def _snapshot(service: Any) -> dict[str, int]:
    """Every sim-side counter of a live service, flat."""
    out: dict[str, int] = {"clock.now_us": service.clock.now_us}
    _flatten("read", service.read_stats, out)
    _flatten("cache", service.cache_stats, out)
    _flatten("space", service.space_stats, out)
    out["writer.tail_refreshes"] = service.writer.tail_refreshes
    for device in service.devices:
        one: dict[str, int] = {}
        _flatten("device", device.stats, one)
        for key, value in one.items():
            out[key] = out.get(key, 0) + value
    return out


class Ledger:
    """Counter deltas per phase, folded across remounts."""

    def __init__(self) -> None:
        self.phases: dict[str, dict[str, int]] = {}
        self._last: dict[str, int] = {}

    def restart(self) -> None:
        """A new service starts from zero counters."""
        self._last = {}

    def mark(self, service: Any, phase: str) -> None:
        """Attribute everything counted since the last mark to ``phase``."""
        now = _snapshot(service)
        totals = self.phases.setdefault(phase, {})
        for key, value in now.items():
            totals[key] = totals.get(key, 0) + value - self._last.get(key, 0)
        self._last = now

    def get(self, key: str, *phases: str) -> int:
        return sum(self.phases.get(phase, {}).get(key, 0) for phase in phases)

    def fingerprint(self) -> str:
        return hashlib.sha256(
            json.dumps(self.phases, sort_keys=True).encode()
        ).hexdigest()


# ---------------------------------------------------------------------------
# Timed loops
# ---------------------------------------------------------------------------


def _timed_appends(
    clock: Clock, samples: array, calls: list[tuple[Callable, Any, bool]]
) -> list:
    results = []
    keep = results.append
    index = 0
    for append, item, force in calls:
        started = clock()
        result = append(item, force=force)
        samples[index] = clock() - started
        keep(result)
        index += 1
    return results


def _timed_reads(
    clock: Clock, samples: array, calls: list[tuple[Callable, Any, int]]
) -> list:
    results = []
    keep = results.append
    index = 0
    for read, log, argument in calls:
        started = clock()
        result = read(log, argument)
        samples[index] = clock() - started
        keep(result)
        index += 1
    return results


def _timed_follow(
    clock: Clock,
    append_samples: array,
    read_samples: array,
    calls: list[tuple[Any, str, bytes, bool]],
    cursors: dict[str, Any],
    set_phase: Callable[[str], None] | None,
) -> tuple[list, list]:
    """Append one entry, then that file's follower reads what is new."""
    results, reads = [], []
    index = 0
    for log, path, payload, force in calls:
        if set_phase is not None:
            set_phase("append")
        started = clock()
        result = log.append(payload, force=force)
        append_samples[index] = clock() - started
        if set_phase is not None:
            set_phase("read")
        started = clock()
        new = list(log.entries(after=cursors[path]))
        read_samples[index] = clock() - started
        if new:
            cursors[path] = new[-1].location
        results.append(result)
        reads.append(new)
        index += 1
    return results, reads


def _percentile(ordered: list[int], share: float) -> int:
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _SegmentTimes:
    """Raw (unscaled) numbers of one segment plus its machine speed."""

    speed: float
    append_p50_ns: int
    append_p90_ns: int
    append_ns: int
    append_calls: int
    forced_calls: int
    entries: int
    read_p50_ns: int
    read_p90_ns: int
    read_ns: int
    reads: int
    scan_ns: int
    scan_bytes: int
    scan_entries: int


class _Run:
    """State of one benchmark run."""

    def __init__(
        self,
        workload: str,
        seed: int,
        sizes: Sizes,
        clock: Clock,
        work_root: str,
    ) -> None:
        self.workload_name = workload
        self.seed = seed
        self.sizes = sizes
        self.clock = clock
        self.work_root = work_root
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.ledger = Ledger()
        self.tracer: LayerTracer | None = None
        #: Prefix of the ledger phases: "" plain, "traced." or "obs.".
        self.mode = ""
        self.speeds: list[float] = []
        # Set by build():
        self.workload: Workload
        self.oracle: Oracle
        self.store: StoreDir
        self.service: Any = None
        self.logs: dict[str, Any] = {}
        self.cursors: dict[str, Any] = {}
        self.recovery_blocks: list[int] = []
        self.build_ns = 0
        self.build_speed = 1.0
        self.preload_calls = 0
        largest = 4096
        self._append_samples = array("q", bytes(8 * largest))
        self._read_samples = array("q", bytes(8 * largest))

    # -- bookkeeping -----------------------------------------------------------

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def expect(self, condition: bool, message: str) -> None:
        """One correctness check; a failed check is a failed operation."""
        self.attempted += 1
        if not condition:
            self.fail(message)

    def _phase(self, phase: str) -> None:
        if self.tracer is not None:
            self.tracer.set_phase(phase)

    def calibrated(self, work: Callable[[], Any]) -> tuple[int, float, Any]:
        """Run ``work`` between two kernel runs: (ns, speed, result)."""
        before = time_kernel(self.clock)
        started = self.clock()
        result = work()
        elapsed = self.clock() - started
        after = time_kernel(self.clock)
        speed = (before + after) / 2 / CAL_REF_NS
        self.speeds.append(speed)
        return elapsed, speed, result

    # -- set-up ------------------------------------------------------------------

    def build(self, directory: str) -> None:
        """Create the store and preload it (this is what ``setup_s`` times).

        The preload is generated before and recorded in the model after,
        so the timed part is the program's work alone.  It is issued in
        ``_BUILD_CHUNKS`` pieces with a kernel run (not timed) between
        them: one bracket at each end says little about a stretch of most
        of a second, a kernel every ~40 ms does.
        """
        clock = self.clock
        workload = WORKLOADS[self.workload_name](self.seed, self.sizes.scale)
        preload = workload.preload()
        kernel_ns = [time_kernel(clock)]
        started = clock()
        store = StoreDir(directory, workload.cache_blocks)
        service = store.create()
        service.create_log_file("/bench")
        logs = {
            path: service.create_log_file(path)
            for path in [*workload.paths, CLI_PATH]
        }
        build_ns = clock() - started
        results: list = []
        step = -(-len(preload) // _BUILD_CHUNKS)
        for first in range(0, len(preload), step):
            kernel_ns.append(time_kernel(clock))
            started = clock()
            results += [
                (logs[path].append_many if isinstance(item, list) else logs[path].append)(
                    item, force=force
                )
                for path, item, force in preload[first : first + step]
            ]
            build_ns += clock() - started
        kernel_ns.append(time_kernel(clock))
        self.build_ns = build_ns
        self.build_speed = statistics.fmean(kernel_ns) / CAL_REF_NS
        self.speeds.append(self.build_speed)
        oracle = Oracle()
        for path in logs:
            oracle.add_file(path)
        self.workload, self.oracle, self.store = workload, oracle, store
        self.service, self.logs = service, logs
        self.record_appends(preload, results)
        self.preload_calls = len(preload)
        # Followers start from the newest entry of their file.
        self.cursors = {
            path: log.tail(1)[0].location
            for path, log in logs.items()
            if path != CLI_PATH and oracle.count(path)
        }

    def record_appends(self, appends: list[tuple[str, Any, bool]], results: list) -> None:
        """Enter acknowledged appends into the model, in order."""
        oracle = self.oracle
        # Only the last force matters: it made everything before it durable.
        last_forced = max(
            (index for index, (_p, _i, force) in enumerate(appends) if force),
            default=-1,
        )
        for index, ((path, item, _force), result) in enumerate(zip(appends, results)):
            if isinstance(item, list):
                for payload, one in zip(item, result):
                    oracle.appended(path, payload, one.timestamp)
            else:
                oracle.appended(path, item, result.timestamp)
            if index == last_forced:
                oracle.forced()

    def discard(self) -> None:
        StoreDir.crash(self.service)
        self.service = None
        shutil.rmtree(self.store.path)

    def setup(self) -> tuple[list[int], list[float]]:
        """Build the store ``setup_repeats`` times; keep the last."""
        raw, scaled = [], []
        for repeat in range(self.sizes.setup_repeats):
            if repeat:
                self.discard()
            self.build(os.path.join(self.work_root, f"store-{repeat}"))
            raw.append(self.build_ns)
            scaled.append(self.build_ns / self.build_speed)
        self.attempted += self.preload_calls
        self.ledger.mark(self.service, "setup")
        return raw, scaled

    # -- the main loop -------------------------------------------------------------

    def segment(self, before_ns: int) -> tuple[_SegmentTimes, int]:
        """Run one segment; returns its numbers and the closing kernel time."""
        workload, oracle, clock = self.workload, self.oracle, self.clock
        plan = workload.plan(oracle)
        logs = self.logs
        appends, reads = self._append_samples, self._read_samples
        set_phase = self.tracer.set_phase if self.tracer is not None else None
        if plan.interleaved:
            calls = [
                (logs[path], path, payload, force)
                for path, payload, force in plan.appends
            ]
            self._phase("append")
            results, followed = _timed_follow(
                clock, appends, reads, calls, self.cursors, set_phase
            )
            read_count = len(calls)
        else:
            append_calls = [
                (
                    logs[path].append_many if isinstance(item, list) else logs[path].append,
                    item,
                    force,
                )
                for path, item, force in plan.appends
            ]
            read_calls = [(op.call, logs[op.path], op.argument) for op in plan.reads]
            self._phase("append")
            results = _timed_appends(clock, appends, append_calls)
            self.ledger.mark(self.service, self.mode + "append")
            self._phase("read")
            followed = _timed_reads(clock, reads, read_calls)
            read_count = len(read_calls)
        self.ledger.mark(self.service, self.mode + "read")
        self._phase("scan")
        log = logs[workload.scan_path]
        started = clock()
        if workload.scan_cursor is None:
            iterator = log.entries()
        else:
            iterator = log.entries(after=workload.scan_cursor)
        wanted = workload.scaled(workload.scan_entries)
        scanned = list(islice(iterator, wanted))
        scan_ns = clock() - started
        self._phase("idle")
        after_ns = time_kernel(clock)
        self.ledger.mark(self.service, self.mode + "scan")
        speed = (before_ns + after_ns) / 2 / CAL_REF_NS
        self.speeds.append(speed)

        append_sorted = sorted(appends[: len(plan.appends)])
        read_sorted = sorted(reads[:read_count])
        payloads = [entry.data for entry in scanned]
        times = _SegmentTimes(
            speed=speed,
            append_p50_ns=_percentile(append_sorted, 0.5),
            append_p90_ns=_percentile(append_sorted, 0.9),
            append_ns=sum(append_sorted),
            append_calls=len(plan.appends),
            forced_calls=sum(force for _path, _item, force in plan.appends),
            entries=sum(
                len(item) if isinstance(item, list) else 1
                for _path, item, _force in plan.appends
            ),
            read_p50_ns=_percentile(read_sorted, 0.5),
            read_p90_ns=_percentile(read_sorted, 0.9),
            read_ns=sum(read_sorted),
            reads=read_count,
            scan_ns=scan_ns,
            scan_bytes=sum(map(len, payloads)),
            scan_entries=len(payloads),
        )
        self._check_segment(plan, results, followed, scanned, payloads, wanted)
        return times, after_ns

    def _check_segment(
        self, plan: Plan, results: list, followed: list, scanned: list,
        payloads: list[bytes], wanted: int,
    ) -> None:
        workload, oracle = self.workload, self.oracle
        self.attempted += len(plan.appends) + len(followed) + 1
        self.record_appends(plan.appends, results)
        if plan.interleaved:
            # A follower must have read exactly the entry just appended.
            for (path, payload, _force), new in zip(plan.appends, followed):
                if [entry.data for entry in new] != [payload]:
                    self.fail(f"follower of {path} did not read the new entry")
        else:
            for op, got in zip(plan.reads, followed):
                data = [entry.data for entry in got]
                if op.reverse:
                    data.reverse()
                if len(data) != op.count or not oracle.matches(op.path, op.first, data):
                    self.fail(f"{op.call.__name__}({op.path}) returned wrong entries")
        path = workload.scan_path
        if not oracle.check_scan(path, workload.scan_position, payloads):
            self.fail(f"scan of {path} returned wrong entries")
        workload.scan_position += len(scanned)
        if len(scanned) < wanted:
            # Reached the end of the file: start over from its beginning.
            workload.scan_position, workload.scan_cursor = 0, None
        elif scanned:
            workload.scan_cursor = scanned[-1].location

    def segments(self, count: int) -> list[_SegmentTimes]:
        out = []
        kernel_ns = time_kernel(self.clock)
        for _ in range(count):
            try:
                times, kernel_ns = self.segment(kernel_ns)
            except Exception as exc:  # the program failed an operation
                self.attempted += 1
                self.fail(f"segment raised {type(exc).__name__}: {exc}")
                kernel_ns = time_kernel(self.clock)
                continue
            out.append(times)
        return out

    # -- crash / remount ----------------------------------------------------------

    def _cycle_appends(self) -> None:
        """The appends before a crash: forced in groups of ten, with an
        unforced tail the crash is allowed to take."""
        workload = self.workload
        last_forced = _CYCLE_APPENDS - _CYCLE_UNFORCED_TAIL
        appends = [
            (
                workload.paths[index % len(workload.paths)],
                workload.payload(),
                index % 10 == 9 and index < last_forced,
            )
            for index in range(_CYCLE_APPENDS)
        ]
        results = [
            self.logs[path].append(payload, force=force)
            for path, payload, force in appends
        ]
        self.record_appends(appends, results)
        self.attempted += _CYCLE_APPENDS

    def _mount(self) -> None:
        self.service, report = self.store.mount()
        self.recovery_blocks.append(report.total_blocks_examined)

    def release(self) -> None:
        """Crash the service and close its image files."""
        self.ledger.mark(self.service, self.mode + "mount")
        StoreDir.crash(self.service)
        self.service = None
        self.ledger.restart()
        # A crashed process takes its memory with it; here the dead
        # service is cyclic garbage still holding every block.
        gc.collect()

    def acquire(self) -> tuple[int, float]:
        """Reopen every image from its path and recover (timed from first
        open to mounted), then check that what survived is a hole-free
        prefix holding every forced entry.  Returns (mount ns, speed)."""
        self._phase("mount")
        elapsed, speed, _ = self.calibrated(self._mount)
        self._phase("idle")
        self.attempted += 1
        self.ledger.mark(self.service, self.mode + "mount")
        self.reopen_logs()
        self.ledger.mark(self.service, "verify")
        return elapsed, speed

    @contextlib.contextmanager
    def tracing(self, tracer: LayerTracer) -> Iterator[None]:
        """Wrappers on, ledger phases prefixed, for the duration."""
        tracer.install(clio_layer_points())
        self.tracer, self.mode = tracer, "traced."
        try:
            yield
        finally:
            tracer.uninstall()
            self.tracer, self.mode = None, ""

    def reopen_logs(self) -> None:
        oracle, workload = self.oracle, self.workload
        self.logs = {
            path: self.service.open_log_file(path) for path in oracle.prints
        }
        surviving = {}
        for path, log in self.logs.items():
            asked = oracle.count(path) - oracle.durable[path] + 3
            newest = log.tail(asked)
            length = oracle.survivors(path, [entry.data for entry in newest], asked)
            self.expect(
                length is not None,
                f"after remount {path} is not a prefix holding its forced entries",
            )
            surviving[path] = oracle.count(path) if length is None else length
            if path in self.cursors and newest:
                self.cursors[path] = newest[-1].location
        self.expect(oracle.truncate(surviving), "crash left a hole in the log")
        if workload.scan_position > oracle.count(workload.scan_path):
            workload.scan_position, workload.scan_cursor = 0, None

    def mount_cycles(self, count: int) -> tuple[list[int], list[float], list[int]]:
        """(raw ns, scaled ns, blocks recovery examined) per cycle."""
        raw, scaled, blocks = [], [], []
        for _ in range(count):
            try:
                self._cycle_appends()
                self.release()
                elapsed, speed = self.acquire()
            except Exception as exc:
                self.attempted += 1
                self.fail(f"mount cycle raised {type(exc).__name__}: {exc}")
                continue
            raw.append(elapsed)
            scaled.append(elapsed / speed)
            blocks.append(self.recovery_blocks[-1])
        return raw, scaled, blocks

    # -- cold CLI ---------------------------------------------------------------------

    def _spawn(self, *arguments: str) -> bool:
        environment = dict(
            os.environ, PYTHONPATH=os.path.join(_ROOT, "src"), PYTHONHASHSEED="0"
        )
        # No timeout: waiting with one polls with sleeps of up to 50 ms,
        # which quantizes the very time being measured.
        done = subprocess.run(
            [sys.executable, *arguments],
            env=environment,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return done.returncode == 0

    def cli_samples(
        self, count: int, *arguments: str
    ) -> tuple[list[int], list[float]]:
        """Spawn-to-exit time of ``python <arguments>``, ``count`` times."""
        raw, scaled = [], []
        for _ in range(count):
            elapsed, speed, ok = self.calibrated(lambda: self._spawn(*arguments))
            self.expect(ok, f"`python {' '.join(arguments[:4])} ...` failed")
            raw.append(elapsed)
            scaled.append(elapsed / speed)
        return raw, scaled

    def cli_appends(self, count: int) -> tuple[list[int], list[float]]:
        """``python -m repro append`` against the closed store."""
        raw, scaled = [], []
        for _ in range(count):
            payload = self.workload.rng.randbytes(30).hex()
            one_raw, one_scaled = self.cli_samples(
                1, "-m", "repro", "append", self.store.path, CLI_PATH, payload
            )
            # The CLI syncs before it exits: the entry is durable.
            self.oracle.appended(CLI_PATH, payload.encode(), 0)
            self.oracle.forced()
            raw += one_raw
            scaled += one_scaled
        return raw, scaled

    # -- final checks ------------------------------------------------------------------

    def verify_everything(self) -> None:
        """Read the files back and fsck.

        Reading back costs what a scan costs (~40 us an entry), so files
        are read whole in a seeded order until ``_VERIFY_ENTRIES`` are
        covered (which files differs from seed to seed); the rest are
        checked at both ends.  fsck walks the first ``_FSCK_BLOCKS``
        blocks of every volume.
        """
        oracle = self.oracle
        order = sorted(self.logs)
        self.workload.rng.shuffle(order)
        covered = 0
        for path in order:
            log, count = self.logs[path], oracle.count(path)
            if covered < _VERIFY_ENTRIES:
                covered += count
                data = [entry.data for entry in log.entries()]
                good = len(data) == count and oracle.matches(path, 0, data)
            else:
                window = min(count, _VERIFY_WINDOW)
                head = [entry.data for entry in islice(log.entries(), window)]
                tail = [entry.data for entry in log.tail(window)]
                good = oracle.matches(path, 0, head) and oracle.matches(
                    path, count - window, tail
                )
            self.expect(good, f"{path} does not hold the acknowledged entries")
        self.expect(oracle.scan_digests_agree, "scan digest differs from the generator's")
        report = check_service(self.service, max_blocks=_FSCK_BLOCKS)
        self.expect(
            report.clean,
            "fsck: " + "; ".join(f.message for f in report.errors[:3]),
        )
        self.ledger.mark(self.service, "verify")

    def stored_bytes(self) -> int:
        """Device blocks written plus what the NVRAM image holds."""
        blocks = sum(device.blocks_written for device in self.service.devices)
        return blocks * BLOCK_SIZE + os.path.getsize(self.store.nvram_path)


def _work_root() -> str:
    """A fresh directory for the store files, on tmpfs when there is one:
    forced-append p50 is ~36 us +-1 % there against ~250 us +-17 % on the
    VM's disk, where the rename in the NVRAM persist starts real I/O."""
    shared = "/dev/shm"
    if os.path.isdir(shared) and os.access(shared, os.W_OK):
        return tempfile.mkdtemp(prefix="clio-bench-", dir=shared)
    parent = os.path.join(_ROOT, ".bench_work")
    os.makedirs(parent, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=parent)


_EXPECTED = os.path.join(_ROOT, "bench", "expected.json")


def _recorded(workload: str, seed: int, seconds: int, trace: bool) -> dict | None:
    """The exact counts and sim fingerprint recorded for this run, if any
    (``aa_check.py --record`` writes them for the seeds it runs)."""
    if trace or not os.path.exists(_EXPECTED):
        return None
    with open(_EXPECTED) as handle:
        expected = json.load(handle)
    if expected["run_seconds"] != seconds:
        return None
    return expected["workloads"].get(workload, {}).get(str(seed))


def run(
    workload: str,
    seed: int,
    seconds: int,
    trace: bool,
    *,
    sizes: Sizes | None = None,
    clock: Clock = time.perf_counter_ns,
) -> RunResult:
    """Run one workload once and return everything it measured."""
    recorded = None
    if sizes is None:
        sizes = Sizes.for_seconds(seconds, trace)
        recorded = _recorded(workload, seed, seconds, trace)
    work_root = _work_root()
    state = _Run(workload, seed, sizes, clock, work_root)
    try:
        measured = _measure(state, trace)
        state.verify_everything()
        counts = _counts(state)
        fingerprint = state.ledger.fingerprint()
        if recorded is not None:
            state.expect(
                recorded == {"counts": counts, "fingerprint": fingerprint},
                "counts or sim fingerprint differ from those recorded for this seed",
            )
        metrics = (per_layer if trace else end_to_end)(state, measured, counts)
        return RunResult(
            correct=state.failed == 0,
            attempted=state.attempted,
            failed=state.failed,
            metrics=metrics,
            raw=raw_timings(measured),
            demoted=demoted_timings(measured),
            counts=counts,
            fingerprint=fingerprint,
            failures=state.failures,
        )
    finally:
        try:
            if state.service is not None:
                StoreDir.crash(state.service)
        finally:
            shutil.rmtree(work_root, ignore_errors=True)


def _measure(state: _Run, trace: bool) -> dict[str, Any]:
    """Set-up, mount cycles and cold CLI on the preloaded store, then the
    main loop, then one last crash and remount.

    Mount and CLI times grow with the store (every image block is loaded
    at open), so they are taken before the main loop has grown it: they
    then measure the same store whatever ``--seconds`` is, and 25 cycles
    cost about a second instead of a quarter of the run.
    """
    sizes = state.sizes
    measured: dict[str, Any] = {}
    measured["setup"] = state.setup()
    measured["mount"] = state.mount_cycles(sizes.mount_cycles)
    tracer = LayerTracer(state.clock) if trace else None
    if trace:
        with state.tracing(tracer):
            measured["traced_mount"] = state.mount_cycles(sizes.mount_cycles)

    # The CLI opens the images itself, so the service lets go of them.
    state.release()
    measured["cli"] = state.cli_appends(sizes.cli_samples)
    if trace:
        count = sizes.cli_samples
        measured["cli_floor"] = state.cli_samples(count, "-c", "pass")
        measured["cli_import"] = state.cli_samples(count, "-c", "import repro.cli")
        measured["cli_cat"] = state.cli_samples(
            count, "-m", "repro", "cat", state.store.path, CLI_PATH, "--limit", "1"
        )
    state.acquire()

    gc.collect()
    gc.freeze()
    measured["segments"] = state.segments(sizes.segments)
    if trace:
        with state.tracing(tracer):
            measured["traced_segments"] = state.segments(sizes.traced_segments)
        measured["tracer"] = tracer
        # The program's own observability stack, costed like any layer:
        # the same segments with it on, over the plain ones above.
        state.service.enable_observability()
        state.mode = "obs."
        measured["obs_segments"] = state.segments(sizes.obs_segments)
        state.mode = ""
    gc.unfreeze()
    state.release()
    state.acquire()
    measured["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return measured


def _counts(state: _Run) -> dict[str, float]:
    """The numbers that must repeat exactly for (workload, seed, sizes)."""
    ledger, oracle = state.ledger, state.oracle
    stored = state.stored_bytes()
    return {
        "entries": oracle.entries,
        "user_bytes": oracle.user_bytes,
        "stored_bytes": stored,
        "stored_bytes_per_user_byte": stored / oracle.user_bytes,
        "device_writes": ledger.get("device.writes", *ledger.phases),
        "device_reads": ledger.get("device.reads", *ledger.phases),
        "cache_misses": ledger.get("cache.misses", *ledger.phases),
        "block_accesses": ledger.get("read.block_accesses", *ledger.phases),
        "entrymap_entries_examined": ledger.get(
            "read.search.entrymap_entries_examined", *ledger.phases
        ),
        "recovery_blocks_examined": sum(state.recovery_blocks),
        "sim_ms_total": state.service.clock.now_us / 1000,
    }
