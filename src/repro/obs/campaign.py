"""Deterministic fault campaigns with a silent-miss detection gate.

ROADMAP item 5: the obs stack (events, SLO alerts, flight recorder,
traces) has never been adversarially tested against the failure modes the
paper claims the log service survives cheaply.  A *campaign* runs the
canonical workloads (the Section 3.5 login log, the Section 4.1 file
trace) while injecting the systematic fault menu of
:mod:`repro.obs.faultspec` at simulated-clock-scheduled points, then
scores **detection coverage**: every injected fault must surface in at
least one observability channel —

* ``events``   — the :class:`~repro.obs.events.EventJournal` ring,
* ``alerts``   — the :class:`~repro.obs.slo.SloEngine` ruleset,
* ``recovery`` — the mount-time RecoveryReport / crash flight recorder,
* ``traces``   — an error-attributed span root.

A fault no channel reports is a *silent miss* — a bug in either the fault
or the alerting, and a hard failure of ``clio campaign run``.  Campaigns
contain no randomness of their own (the corruption helpers use fixed
seeds), so the coverage-matrix artifact is byte-identical across runs, and
the no-fault control drive is byte-identical — in simulated-time counters
— to the same workload run without the harness.

The fault *machinery* — staging, the inject hook, the settle/probe steps —
lives in :mod:`repro.obs.injectors` as one reusable :class:`Injection` per
fault class; this module is the idle-drive glue around those objects (and
the long-horizon workload harness of :mod:`repro.obs.workload` schedules
the same hooks mid-replay, under load).
"""

from __future__ import annotations

from repro.apps import HistoryFileServer
from repro.obs.canonical import canonical_json
from repro.obs.faultspec import (
    CHANNELS,
    FaultSpec,
    full_menu,
    small_menu,
)
from repro.obs.injectors import (
    CampaignAbort,
    CampaignError,
    Drive,
    counters_fingerprint,
    create_service,
    stage,
)
from repro.workloads.filetrace import FileOp, FileTrace
from repro.workloads.login_log import LoginLogWorkload

__all__ = [
    "CampaignAbort",
    "CampaignError",
    "CampaignReport",
    "FaultOutcome",
    "counters_fingerprint",
    "diff_reports",
    "filetrace_steps",
    "format_report",
    "login_log_steps",
    "menu_specs",
    "run_campaign",
    "run_spec",
]


# --------------------------------------------------------------------- #
# Workload steps
# --------------------------------------------------------------------- #
#
# The canonical idle drives, written once as :meth:`Drive.run` bodies: the
# same service calls in the same order as the plain workloads, plus
# ``drive.maybe_fire()`` before every step.


def login_log_steps(drive: Drive, count: int, root_path: str = "/access") -> None:
    """Step-wise replica of :meth:`LoginLogWorkload.drive`."""
    root = drive.service.create_log_file(root_path)
    sublogs: dict[str, object] = {}
    for record in LoginLogWorkload().generate(count):
        drive.maybe_fire()
        if record.user not in sublogs:
            sublogs[record.user] = root.create_sublog(record.user)
        sublogs[record.user].append(record.encode())
        drive.ops_done += 1


def filetrace_steps(drive: Drive, file_count: int) -> None:
    """The canonical Section 4.1 replay: every event of the trace hits the
    history file server with an immediate flush policy."""
    service = drive.service
    server = HistoryFileServer(service, flush_delay_us=0)
    for event in FileTrace(file_count=file_count).generate():
        drive.maybe_fire()
        now = service.clock.now_us
        if event.time_us > now:
            service.clock.advance_us(event.time_us - now)
        if event.op is FileOp.WRITE:
            server.write(event.path, 0, event.data)
        elif server.exists(event.path):
            server.delete(event.path)
        server.flush(now_us=service.clock.now_us)
        drive.ops_done += 1
    server.flush()


#: Per canonical workload: its steps, the spec parameter that sizes them,
#: and the control-run size (kept small: the control proves harness
#: transparency, not throughput).
_IDLE_DRIVES = {
    "login_log": (login_log_steps, "records", 200),
    "filetrace": (filetrace_steps, "files", 40),
}


# --------------------------------------------------------------------- #
# Outcomes and reports
# --------------------------------------------------------------------- #


class FaultOutcome:
    """One injected fault and the channels that reported it."""

    def __init__(self, spec: FaultSpec, channels: dict) -> None:
        self.spec = spec
        self.channels = {name: channels.get(name) for name in CHANNELS}

    @property
    def detected(self) -> bool:
        return any(value is not None for value in self.channels.values())

    @property
    def silent_miss(self) -> bool:
        return not self.detected

    @property
    def expected_missed(self) -> list:
        """Designed channels that did not report (informational)."""
        return [
            name
            for name in self.spec.expected_channels
            if self.channels.get(name) is None
        ]

    def as_dict(self) -> dict:
        return {
            "channels": dict(self.channels),
            "detected": self.detected,
            "expected_missed": list(self.expected_missed),
            "fault_class": self.spec.fault_class,
            "fault_id": self.spec.fault_id,
            "silent_miss": self.silent_miss,
            "spec": self.spec.as_dict(),
            "workload": self.spec.workload,
        }


class CampaignReport:
    """The fault x channel coverage matrix plus the control check."""

    def __init__(self, menu: str, outcomes: list, control: dict) -> None:
        self.menu = menu
        self.outcomes = outcomes
        self.control = control

    @property
    def silent_misses(self) -> list:
        return [o.spec.fault_id for o in self.outcomes if o.silent_miss]

    @property
    def coverage(self) -> float:
        if not self.outcomes:
            return 1.0
        detected = sum(1 for o in self.outcomes if o.detected)
        return detected / len(self.outcomes)

    @property
    def control_ok(self) -> bool:
        return all(entry["match"] for entry in self.control.values())

    @property
    def passed(self) -> bool:
        return not self.silent_misses and self.control_ok

    def as_dict(self) -> dict:
        return {
            "campaign": {
                "channels": list(CHANNELS),
                "coverage": self.coverage,
                "detected": sum(1 for o in self.outcomes if o.detected),
                "faults": len(self.outcomes),
                "menu": self.menu,
                "passed": self.passed,
                "silent_misses": list(self.silent_misses),
            },
            "control": self.control,
            "matrix": [outcome.as_dict() for outcome in self.outcomes],
        }

    def encode(self) -> str:
        """Byte-deterministic artifact form (sorted keys, compact)."""
        return canonical_json(self.as_dict())


# --------------------------------------------------------------------- #
# Scenarios — thin glue over repro.obs.injectors
# --------------------------------------------------------------------- #


#: Idle-drive sizing per fault class (the campaign's short canonical
#: drives; the under-load harness sizes its own replays).
_IDLE_SIZES = {
    "torn_write": 300,
    "bit_rot": 60,
    "mirror_divergence": 300,
    "nvram_loss": 240,
    "crash_mid_batch": 200,
    "volume_exhaustion": 1200,
}


def run_spec(spec: FaultSpec) -> FaultOutcome:
    """Stage and score one fault on its idle canonical drive, the inject
    hook scheduled at ``spec.at_us``."""
    steps, size_param, _control_size = _IDLE_DRIVES[spec.workload]
    size = spec.param(size_param, _IDLE_SIZES[spec.fault_class])

    def drive_for(service, injection) -> Drive:
        drive = Drive(service, injection, at_us=spec.at_us)
        drive.run(steps, size)
        return drive

    return FaultOutcome(spec, stage(spec, drive_for))


# --------------------------------------------------------------------- #
# The campaign
# --------------------------------------------------------------------- #


def menu_specs(menu: str) -> tuple:
    if menu == "small":
        return small_menu()
    if menu == "full":
        return full_menu()
    raise ValueError(f"unknown menu {menu!r} (expected 'small' or 'full')")


def _control_check(workload: str) -> dict:
    """Prove the stepped driver is invisible: the same workload with and
    without the harness, byte-identical sim-time counters.  The login log
    has a plain form of its own (:meth:`LoginLogWorkload.drive`); the
    file trace has only its steps, run bare and under :meth:`Drive.run`."""
    steps, _size_param, size = _IDLE_DRIVES[workload]
    plain, stepped = create_service(), create_service()
    if workload == "login_log":
        LoginLogWorkload().drive(plain, size)
    else:
        steps(Drive(plain), size)
    Drive(stepped).run(steps, size)
    baseline = counters_fingerprint(plain)
    harnessed = counters_fingerprint(stepped)
    return {
        "fingerprint": baseline,
        "match": baseline == harnessed,
        "workload": workload,
    }


def run_campaign(menu: str = "small") -> CampaignReport:
    """Run every fault of ``menu`` plus the no-fault control drives."""
    specs = menu_specs(menu)
    outcomes = [run_spec(spec) for spec in specs]
    control = {
        workload: _control_check(workload)
        for workload in sorted({spec.workload for spec in specs})
    }
    return CampaignReport(menu=menu, outcomes=outcomes, control=control)


# --------------------------------------------------------------------- #
# Rendering and diffing
# --------------------------------------------------------------------- #


def format_report(report_dict: dict) -> str:
    """Human-readable rendering of a campaign artifact dict."""
    campaign = report_dict["campaign"]
    lines = [
        "fault campaign: menu={menu} faults={faults} detected={detected} "
        "coverage={coverage:.0%} passed={passed}".format(**campaign)
    ]
    if campaign["silent_misses"]:
        lines.append(
            "SILENT MISSES: " + ", ".join(campaign["silent_misses"])
        )
    for workload, entry in sorted(report_dict["control"].items()):
        state = "ok" if entry["match"] else "MISMATCH"
        lines.append(f"control {workload}: {state}")
    lines.append("")
    channels = campaign["channels"]
    header = f"{'fault':<28} {'class':<20} {'workload':<10}" + "".join(
        f" {name:<9}" for name in channels
    )
    lines.append(header)
    lines.append("-" * len(header))
    for row in report_dict["matrix"]:
        cells = ""
        for name in channels:
            hit = row["channels"].get(name) is not None
            expected = name in row["spec"]["expected_channels"]
            cells += " " + f"{'hit' if hit else ('MISS' if expected else '-'):<9}"
        lines.append(
            f"{row['fault_id']:<28} {row['fault_class']:<20} "
            f"{row['workload']:<10}{cells}"
        )
    lines.append("")
    lines.append("evidence:")
    for row in report_dict["matrix"]:
        for name in channels:
            evidence = row["channels"].get(name)
            if evidence is not None:
                lines.append(f"  {row['fault_id']} {name}: {evidence}")
    return "\n".join(lines)


def diff_reports(old: dict, new: dict) -> list:
    """Channel-level differences between two campaign artifacts."""
    changes = []
    old_rows = {row["fault_id"]: row for row in old["matrix"]}
    new_rows = {row["fault_id"]: row for row in new["matrix"]}
    for fault_id in sorted(old_rows.keys() - new_rows.keys()):
        changes.append(f"- fault removed: {fault_id}")
    for fault_id in sorted(new_rows.keys() - old_rows.keys()):
        changes.append(f"+ fault added: {fault_id}")
    for fault_id in sorted(old_rows.keys() & new_rows.keys()):
        before, after = old_rows[fault_id], new_rows[fault_id]
        for name in new["campaign"]["channels"]:
            was = before["channels"].get(name) is not None
            now = after["channels"].get(name) is not None
            if was and not now:
                changes.append(f"! {fault_id} lost channel {name}")
            elif now and not was:
                changes.append(f"+ {fault_id} gained channel {name}")
    old_cov = old["campaign"]["coverage"]
    new_cov = new["campaign"]["coverage"]
    if old_cov != new_cov:
        changes.append(f"! coverage {old_cov:.0%} -> {new_cov:.0%}")
    return changes
