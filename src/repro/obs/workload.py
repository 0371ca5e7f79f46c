"""Year-in-the-life workload observatory: long-horizon phased replay.

ROADMAP item 5's second half.  The fault campaign (:mod:`repro.obs.campaign`)
proves detection coverage on short, idle, single-fault drives; this module
replays *long-horizon* phased traffic — bursty login storms, diurnal
day/night cycles, mixed append/locate/scan, multi-tenant Zipf skew, and
the Section 4.1 file trace — against a fully-observable service, and
scores every run through the same four channels (event journal, SLO
alerts, recovery reports, trace spans).

The design leans on three existing mechanisms:

* **Think time is charged, never skipped.**  Inter-operation gaps go
  through :meth:`~repro.core.store.LogStore.charge_us` under the
  ``workload_think`` component, inside an open ``workload.phase`` span —
  so every simulated microsecond of a phase, idle or busy, is attributed
  by the cost profiler and per-phase coverage stays ≈100% (the artifact
  asserts ≥95%).
* **Faults are schedulable mid-replay.**  The reusable injections of
  :mod:`repro.obs.injectors` fire from an inject hook checked at every
  operation boundary (simulated clock + warm-up op count), so the
  campaign's silent-miss gate is re-proved *under load* rather than on
  idle drives.
* **Runs are cataloged.**  Each run emits a byte-deterministic JSON
  artifact (phase-attributed cost breakdowns, registry picks, alert
  timeline, trace digests, sim-counter fingerprint) registered in an
  ``INDEX.csv``-style catalog under ``benchmarks/runs/`` — the
  Darshan-style "year in the life" index of replayable traffic.

Everything is a pure function of the profile definition: generators use
private seeded RNGs, trace ids derive from the simulated clock, and two
runs of the same profile produce byte-identical artifacts (the CI
``workload-smoke`` job runs the profile twice and ``cmp``\\ s the bytes).
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any

from repro.apps import HistoryFileServer
from repro.core.catalog import CatalogError
from repro.obs.campaign import CampaignReport, FaultOutcome, menu_specs
from repro.obs.canonical import canonical_json
from repro.obs.critical_path import summarize
from repro.obs.injectors import (
    Drive,
    FaultSpec,
    Injection,
    counters_fingerprint,
    create_service,
    stage,
)
from repro.obs.slo import AlertLog, SloEngine, default_ruleset, metric_value
from repro.workloads.entries import EntryStream, uniform_size, zipf_weights
from repro.workloads.filetrace import FileOp, FileTrace
from repro.workloads.login_log import LoginLogWorkload

__all__ = [
    "INDEX_COLUMNS",
    "INDEX_FILE",
    "Phase",
    "Profile",
    "SLO_INTERVAL_MS",
    "UNDER_LOAD_WARMUP_OPS",
    "artifact_sha256",
    "builtin_profiles",
    "get_profile",
    "read_index",
    "register_run",
    "run_under_load_campaign",
    "run_workload",
    "verify_index",
]

#: Simulated day in microseconds.
_DAY_US = 24 * 60 * 60 * 1_000_000

#: Evaluate the SLO ruleset at most once per simulated minute (checked at
#: operation boundaries, so long think gaps cost one evaluation, not many).
SLO_INTERVAL_MS = 60_000

#: Under load, an injection trigger additionally waits for this many
#: operations so fault premises (blocks burned, a staged NVRAM tail) hold
#: under arbitrary think-time profiles — ``spec.at_us`` values are
#: hundreds of milliseconds, which a single long think gap could leap past
#: before anything was written.
UNDER_LOAD_WARMUP_OPS = 150

#: Per-phase sim-time attribution floor the artifact asserts.
COVERAGE_FLOOR = 0.95

#: Registry families sampled into each phase record (unlabeled,
#: sim-deterministic).
_REGISTRY_PICKS = (
    "clio_writer_client_entries_total",
    "clio_writer_blocks_written_total",
    "clio_cache_hits_total",
    "clio_cache_misses_total",
    "clio_locate_entrymap_entries_examined_total",
    "clio_reader_block_accesses_total",
    "clio_corrupt_blocks_known",
    "clio_sim_clock_ms",
)


# --------------------------------------------------------------------- #
# Profiles
# --------------------------------------------------------------------- #


@dataclass(frozen=True, slots=True)
class Phase:
    """One traffic phase: ``ops`` operations of one ``kind`` with a
    deterministic think-time schedule given by ``params``."""

    name: str
    kind: str  # "bursty" | "diurnal" | "mixed" | "multi_tenant" | "filetrace"
    ops: int
    params: tuple[tuple[str, int | float | str], ...] = ()

    def param(self, name: str) -> int | float | str:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"phase {self.name!r}: no parameter {name!r}")

    def int_param(self, name: str) -> int:
        return int(self.param(name))

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "name": self.name,
            "ops": self.ops,
            "params": {key: value for key, value in sorted(self.params)},
        }


@dataclass(frozen=True, slots=True)
class Profile:
    """A named, seeded sequence of phases — one scenario."""

    name: str
    seed: int
    phases: tuple[Phase, ...]

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "phases": [phase.as_dict() for phase in self.phases],
            "seed": self.seed,
        }


def builtin_profiles() -> dict[str, Profile]:
    """The canonical scenario library.

    ``smoke`` — minutes of simulated time, seconds of wall time: the CI
    determinism gate and the tier-1 live profile.  ``year`` — a full
    year in the life (≥365 simulated days): a January login storm, two
    long diurnal stretches, a mixed read/write quarter, a multi-tenant
    quarter, and a file-server quarter replaying Ousterhout lifetimes
    against the five-minute delayed-write policy.
    """
    smoke = Profile(
        name="smoke",
        seed=1987,
        phases=(
            Phase(
                "login-burst",
                "bursty",
                150,
                (
                    ("burst", 25),
                    ("inter_gap_us", 2_000_000),
                    ("intra_gap_us", 20_000),
                ),
            ),
            Phase(
                "noon-mixed",
                "mixed",
                90,
                (
                    ("gap_us", 500_000),
                    ("locate_every", 7),
                    ("scan_every", 23),
                    ("streams", 4),
                ),
            ),
            Phase(
                "tenant-skew",
                "multi_tenant",
                90,
                (("gap_us", 400_000), ("skew", 1.2), ("tenants", 6)),
            ),
            Phase(
                "night-trace",
                "filetrace",
                24,
                (
                    ("flush_delay_us", 300_000_000),
                    ("mean_interarrival_us", 3_000_000),
                ),
            ),
        ),
    )
    year = Profile(
        name="year",
        seed=1987,
        phases=(
            Phase(
                "new-year-burst",
                "bursty",
                400,
                (
                    ("burst", 40),
                    ("inter_gap_us", 120_000_000),
                    ("intra_gap_us", 50_000),
                ),
            ),
            Phase(
                "q1-diurnal",
                "diurnal",
                1080,
                (
                    ("day_gap_us", 1_800_000_000),
                    ("day_ops", 12),
                    ("night_gap_us", 64_800_000_000),
                ),
            ),
            Phase(
                "q2-mixed",
                "mixed",
                900,
                (
                    ("gap_us", 7_200_000_000),
                    ("locate_every", 5),
                    ("scan_every", 17),
                    ("streams", 6),
                ),
            ),
            Phase(
                "q3-tenants",
                "multi_tenant",
                1200,
                (("gap_us", 5_400_000_000), ("skew", 1.1), ("tenants", 12)),
            ),
            Phase(
                "q4-filetrace",
                "filetrace",
                220,
                (
                    ("flush_delay_us", 300_000_000),
                    ("mean_interarrival_us", 28_800_000_000),
                ),
            ),
            Phase(
                "dec-diurnal",
                "diurnal",
                700,
                (
                    ("day_gap_us", 1_800_000_000),
                    ("day_ops", 10),
                    ("night_gap_us", 68_400_000_000),
                ),
            ),
        ),
    )
    return {smoke.name: smoke, year.name: year}


def get_profile(name: str) -> Profile:
    profiles = builtin_profiles()
    if name not in profiles:
        known = ", ".join(sorted(profiles))
        raise ValueError(f"unknown profile {name!r} (expected one of: {known})")
    return profiles[name]


# --------------------------------------------------------------------- #
# Replay machinery
# --------------------------------------------------------------------- #


class _ReplayContext(Drive):
    """A :class:`Drive` over a whole profile, plus the per-replay state
    shared across phases: the lazily-created log-file handles and the
    think and alert bookkeeping."""

    def __init__(
        self,
        service: Any,
        profile: Profile,
        *,
        engine: SloEngine | None = None,
        inject: Injection | None = None,
        at_us: int = 0,
        warmup_ops: int = 0,
    ) -> None:
        super().__init__(service, inject, at_us=at_us, warmup_ops=warmup_ops)
        self.profile = profile
        self.engine = engine
        self.think_us = 0
        self.timeline: list[dict[str, Any]] = []
        self.phases: list[dict[str, Any]] = []
        self.phase_name = ""
        self.handles: dict[str, Any] = {}

    def think(self, gap_us: int) -> None:
        """Advance simulated time *with attribution*: the gap is charged
        to the ``workload_think`` component of the open phase span."""
        if gap_us > 0:
            self.service.store.charge_us("workload_think", gap_us)
            self.think_us += gap_us

    def op_done(self) -> None:
        self.ops_done += 1
        if self.engine is not None:
            for alert in self.engine.maybe_evaluate(SLO_INTERVAL_MS):
                record = alert.as_dict()
                record["phase"] = self.phase_name
                self.timeline.append(record)

    def logfile(self, path: str) -> Any:
        handle = self.handles.get(path)
        if handle is None:
            try:
                handle = self.service.open_log_file(path)
            except CatalogError:
                handle = self.service.create_log_file(path)
            self.handles[path] = handle
        return handle

    def sublog(self, root_path: str, name: str) -> Any:
        key = f"{root_path}/{name}"
        if key not in self.handles:
            self.logfile(root_path)  # the parent must exist first
        return self.logfile(key)


def _phase_seed(profile: Profile, index: int) -> int:
    # Arithmetic, not hash(): stable across interpreters and PYTHONHASHSEED.
    return profile.seed * 1_000_003 + index


#: Per login-phase kind, the names of its (period, short gap, long gap)
#: parameters: every ``period``-th operation waits the long gap, the rest
#: the short one.  The names are the artifact's, so they stay per kind.
_LOGIN_SCHEDULES = {
    # Login storms: tight clusters separated by long quiet gaps.
    "bursty": ("burst", "intra_gap_us", "inter_gap_us"),
    # Day/night cycles: the schedule that makes a thousand operations span
    # a quarter of simulated wall-calendar.
    "diurnal": ("day_ops", "day_gap_us", "night_gap_us"),
}


def _run_login(ctx: _ReplayContext, phase: Phase, index: int) -> None:
    """Section 3.5 login/logout records on a two-gap think schedule."""
    period, short, long = (
        phase.int_param(name) for name in _LOGIN_SCHEDULES[phase.kind]
    )
    workload = LoginLogWorkload(seed=_phase_seed(ctx.profile, index))
    for position, record in enumerate(workload.generate(phase.ops)):
        ctx.maybe_fire()
        ctx.think(long if position > 0 and position % period == 0 else short)
        ctx.sublog("/access", record.user).append(record.encode())
        ctx.op_done()


def _run_mixed(ctx: _ReplayContext, phase: Phase, index: int) -> None:
    """Appends interleaved with locates (newest-entry tail queries, the
    paper's dominant access) and bounded history scans."""
    gap = phase.int_param("gap_us")
    locate_every = phase.int_param("locate_every")
    scan_every = phase.int_param("scan_every")
    streams = phase.int_param("streams")
    stream = EntryStream(
        logfile_weights=zipf_weights(streams),
        size_dist=uniform_size(24, 180),
        seed=_phase_seed(ctx.profile, index),
    )
    entries = stream.generate(phase.ops)
    for position in range(phase.ops):
        ctx.maybe_fire()
        ctx.think(gap)
        if position % scan_every == scan_every - 1:
            target = ctx.sublog("/stream", f"s{position % streams:02d}")
            for _entry in target.tail(25):
                pass
            ctx.op_done()
        elif position % locate_every == locate_every - 1:
            target = ctx.sublog("/stream", f"s{position % streams:02d}")
            target.tail(1)
            ctx.op_done()
        else:
            index_target, payload = next(entries)
            ctx.sublog("/stream", f"s{index_target:02d}").append(payload)
            ctx.op_done()


def _run_multi_tenant(ctx: _ReplayContext, phase: Phase, index: int) -> None:
    """Zipf-skewed appends across tenant sublogs: a few hot tenants, a
    long cold tail (LogBase's sustained multi-tenant regime)."""
    gap = phase.int_param("gap_us")
    tenants = phase.int_param("tenants")
    skew = float(phase.param("skew"))
    stream = EntryStream(
        logfile_weights=zipf_weights(tenants, skew=skew),
        size_dist=uniform_size(32, 220),
        seed=_phase_seed(ctx.profile, index),
    )
    for target, payload in stream.generate(phase.ops):
        ctx.maybe_fire()
        ctx.think(gap)
        ctx.sublog("/tenants", f"t{target:02d}").append(payload)
        ctx.op_done()


def _run_filetrace(ctx: _ReplayContext, phase: Phase, index: int) -> None:
    """The Section 4.1 Ousterhout-lifetime replay through the history
    file server, with the trace's own interarrival times charged as
    think time (so the phase stays fully attributed)."""
    flush_delay = phase.int_param("flush_delay_us")
    trace = FileTrace(
        file_count=phase.ops,
        mean_interarrival_us=phase.int_param("mean_interarrival_us"),
        seed=_phase_seed(ctx.profile, index),
    )
    server = HistoryFileServer(ctx.service, flush_delay_us=flush_delay)
    clock = ctx.service.clock
    # Trace event times are relative to the trace's own zero; rebase them
    # onto the phase's start so interarrival gaps become think time.
    base_us = clock.now_us
    for event in trace.generate():
        ctx.maybe_fire()
        target_us = base_us + event.time_us
        if target_us > clock.now_us:
            ctx.think(target_us - clock.now_us)
        if event.op is FileOp.WRITE:
            server.write(event.path, 0, event.data)
            ctx.op_done()
        elif server.exists(event.path):
            server.delete(event.path)
            ctx.op_done()
        server.flush(now_us=clock.now_us)
    server.flush()


_PHASE_RUNNERS = {
    "bursty": _run_login,
    "diurnal": _run_login,
    "mixed": _run_mixed,
    "multi_tenant": _run_multi_tenant,
    "filetrace": _run_filetrace,
}


def _registry_picks(service: Any) -> dict[str, float]:
    # metric_value raises ValueError on an unknown name, so a renamed or
    # removed family fails the run.
    return {name: metric_value(service, name) for name in _REGISTRY_PICKS}


def _span_digest(span: Any) -> str:
    payload = canonical_json(span.as_dict()).encode()
    return hashlib.sha256(payload).hexdigest()


def _replay_phases(ctx: _ReplayContext, collect: bool) -> None:
    """The replay's steps: each phase of the profile under its own
    ``workload.phase`` span, scored into ``ctx.phases`` when ``collect``."""
    service = ctx.service
    tracer: Any = service.tracer
    for index, phase in enumerate(ctx.profile.phases):
        runner = _PHASE_RUNNERS.get(phase.kind)
        if runner is None:
            raise ValueError(f"unknown phase kind {phase.kind!r}")
        ctx.phase_name = phase.name
        ops_before = ctx.ops_done
        think_before = ctx.think_us
        with tracer.span("workload.phase", kind=phase.kind, phase=phase.name):
            runner(ctx, phase, index)
        if not collect:
            continue
        record: dict[str, Any] = {
            "kind": phase.kind,
            "name": phase.name,
            "ops": ctx.ops_done - ops_before,
            # Scored replays carry no injection, so none ends in a stop.
            "stopped": False,
            "think_us": ctx.think_us - think_before,
        }
        span = tracer.last("workload.phase") if tracer.enabled else None
        if span is not None:
            breakdown = summarize(phase.name, [span])
            record["start_us"] = span.start_us
            record["end_us"] = span.end_us
            record["sim_ms"] = round(breakdown.total_ms, 3)
            record["attribution"] = {
                "attributed_ms": round(breakdown.attributed_ms, 3),
                "components": {
                    component: round(ms, 3)
                    for component, ms in sorted(breakdown.components.items())
                },
                "coverage": round(breakdown.coverage, 6),
            }
            record["trace"] = {
                "digest": _span_digest(span),
                "dropped_children": span.dropped_children,
                "spans": sum(1 for _node in span.walk()),
            }
        record["registry"] = _registry_picks(service)
        ctx.phases.append(record)


def _replay(
    service: Any,
    profile: Profile,
    *,
    engine: SloEngine | None = None,
    inject: Injection | None = None,
    at_us: int = 0,
    warmup_ops: int = 0,
    collect: bool = True,
) -> _ReplayContext:
    """Replay every phase of ``profile`` against ``service`` as one
    stepped drive; returns the finished drive (phase records, totals,
    hook state)."""
    tracer: Any = service.tracer
    if getattr(tracer, "enabled", False):
        # A year-long phase can hold thousands of op spans; raise the
        # tracer's child bound so charges on dropped children cannot
        # leak out of the per-phase attribution sums.
        tracer.max_children = 1 << 20
        tracer.max_roots = 256
    ctx = _ReplayContext(
        service,
        profile,
        engine=engine,
        inject=inject,
        at_us=at_us,
        warmup_ops=warmup_ops,
    )
    ctx.run(_replay_phases, collect)
    return ctx


# --------------------------------------------------------------------- #
# The under-load fault campaign
# --------------------------------------------------------------------- #


def _under_load_outcome(profile: Profile, spec: FaultSpec) -> FaultOutcome:
    """One fault staged inside a fresh full replay of ``profile``."""
    def drive_for(service: Any, injection: Injection) -> Drive:
        return _replay(
            service,
            profile,
            inject=injection,
            at_us=spec.at_us,
            warmup_ops=UNDER_LOAD_WARMUP_OPS,
            collect=False,
        )

    return FaultOutcome(spec, stage(spec, drive_for))


def run_under_load_campaign(profile: Profile, menu: str) -> dict[str, Any]:
    """Every fault of ``menu``, each injected mid-replay into its own
    fresh replay of ``profile`` — the campaign's silent-miss gate under
    sustained load."""
    outcomes = [_under_load_outcome(profile, spec) for spec in menu_specs(menu)]
    record = CampaignReport(menu, outcomes, control={}).as_dict()
    return {
        **record["campaign"],
        "matrix": record["matrix"],
        "warmup_ops": UNDER_LOAD_WARMUP_OPS,
    }


# --------------------------------------------------------------------- #
# Scored runs
# --------------------------------------------------------------------- #


def run_workload(profile_name: str, menu: str | None = None) -> dict[str, Any]:
    """Replay ``profile_name`` against a fresh observable service, score
    it through the four obs channels, and (optionally) re-prove the
    ``menu`` fault campaign under that load.  Returns the artifact record
    (``canonical_json`` of it is the artifact's bytes)."""
    profile = get_profile(profile_name)
    service = create_service()
    alert_log = AlertLog(service)
    engine = SloEngine(service, rules=default_ruleset(), alert_log=alert_log)
    replay = _replay(service, profile, engine=engine, collect=True)

    persisted = alert_log.read_back()
    alerts_record = {
        "persisted": len(persisted),
        "readback_ok": len(persisted) == len(replay.timeline),
        "timeline": replay.timeline,
    }

    campaign = run_under_load_campaign(profile, menu) if menu else None

    clock_us = int(service.clock.now_us)
    sim_days = round(clock_us / _DAY_US, 4)
    coverages = [
        float(record["attribution"]["coverage"])
        for record in replay.phases
        if "attribution" in record
    ]
    min_coverage = min(coverages) if coverages else 0.0

    failures: list[str] = []
    if min_coverage < COVERAGE_FLOOR:
        failures.append(
            f"phase attribution {min_coverage:.4f} below {COVERAGE_FLOOR}"
        )
    if not alerts_record["readback_ok"]:
        failures.append("alert log read-back diverged from the live timeline")
    if campaign is not None and not campaign["passed"]:
        failures.append(
            "under-load campaign silent misses: "
            + ", ".join(campaign["silent_misses"])
        )

    run_id = f"{profile.name}-s{profile.seed}" + (f"-{menu}" if menu else "")
    record: dict[str, Any] = {
        "alerts": alerts_record,
        "campaign": campaign,
        "fingerprint": counters_fingerprint(service),
        "phases": replay.phases,
        "profile": profile.as_dict(),
        "run": {
            "clock_us": clock_us,
            "failures": failures,
            "menu": menu,
            "min_phase_coverage": round(min_coverage, 6),
            "ops": replay.ops_done,
            "passed": not failures,
            "profile": profile.name,
            "run_id": run_id,
            "seed": profile.seed,
            "sim_days": sim_days,
            "think_us": replay.think_us,
        },
    }
    return record


# --------------------------------------------------------------------- #
# The run catalog
# --------------------------------------------------------------------- #

INDEX_FILE = "INDEX.csv"

INDEX_COLUMNS = (
    "run_id",
    "profile",
    "seed",
    "menu",
    "phases",
    "ops",
    "sim_days",
    "alerts",
    "min_phase_coverage",
    "campaign_coverage",
    "silent_misses",
    "passed",
    "sha256",
)


def artifact_sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _index_row(record: dict[str, Any], sha: str) -> dict[str, str]:
    run = record["run"]
    campaign = record.get("campaign")
    return {
        "run_id": str(run["run_id"]),
        "profile": str(run["profile"]),
        "seed": str(run["seed"]),
        "menu": str(run["menu"] or "-"),
        "phases": str(len(record["phases"])),
        "ops": str(run["ops"]),
        "sim_days": str(run["sim_days"]),
        "alerts": str(record["alerts"]["persisted"]),
        "min_phase_coverage": str(run["min_phase_coverage"]),
        "campaign_coverage": (
            str(campaign["coverage"]) if campaign else "-"
        ),
        "silent_misses": (
            str(len(campaign["silent_misses"])) if campaign else "-"
        ),
        "passed": "yes" if run["passed"] else "NO",
        "sha256": sha,
    }


def read_index(runs_dir: str) -> list[dict[str, str]]:
    """Parse ``INDEX.csv`` (missing file → empty catalog)."""
    path = os.path.join(runs_dir, INDEX_FILE)
    if not os.path.exists(path):
        return []
    rows: list[dict[str, str]] = []
    with open(path, encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    for line in lines[1:]:
        values = line.split(",")
        rows.append(dict(zip(header, values)))
    return rows


def _write_index(runs_dir: str, rows: list[dict[str, str]]) -> str:
    path = os.path.join(runs_dir, INDEX_FILE)
    ordered = sorted(rows, key=lambda row: row["run_id"])
    lines = [",".join(INDEX_COLUMNS)]
    for row in ordered:
        lines.append(
            ",".join(row.get(column, "-") for column in INDEX_COLUMNS)
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


def register_run(runs_dir: str, record: dict[str, Any]) -> str:
    """Write the run's artifact as ``<run_id>.json`` under ``runs_dir``
    and upsert its row (keyed by run id, sorted) into ``INDEX.csv``."""
    os.makedirs(runs_dir, exist_ok=True)
    run_id = str(record["run"]["run_id"])
    text = canonical_json(record)
    artifact_path = os.path.join(runs_dir, f"{run_id}.json")
    with open(artifact_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    rows = [row for row in read_index(runs_dir) if row.get("run_id") != run_id]
    rows.append(_index_row(record, artifact_sha256(text)))
    _write_index(runs_dir, rows)
    return artifact_path


def verify_index(runs_dir: str) -> list[str]:
    """Check the catalog: ``runs_dir`` and its ``INDEX.csv`` exist, every
    row's artifact is present and hashes to the row's digest, and every
    ``*.json`` artifact has a row.  Returns the problems found; empty
    means the catalog is sound."""
    if not os.path.isdir(runs_dir):
        return [f"catalog directory missing ({runs_dir})"]
    if not os.path.exists(os.path.join(runs_dir, INDEX_FILE)):
        return [f"{INDEX_FILE} missing in {runs_dir}"]
    problems: list[str] = []
    rows = read_index(runs_dir)
    for row in rows:
        run_id = row.get("run_id", "?")
        path = os.path.join(runs_dir, f"{run_id}.json")
        if not os.path.exists(path):
            problems.append(f"{run_id}: artifact missing ({path})")
            continue
        with open(path, encoding="utf-8") as handle:
            digest = artifact_sha256(handle.read())
        if digest != row.get("sha256"):
            problems.append(
                f"{run_id}: sha256 mismatch (index {row.get('sha256')}, "
                f"artifact {digest})"
            )
    cataloged = {f"{row.get('run_id')}.json" for row in rows}
    for name in sorted(os.listdir(runs_dir)):
        if name.endswith(".json") and name not in cataloged:
            problems.append(f"{name}: artifact has no {INDEX_FILE} row")
    return problems

