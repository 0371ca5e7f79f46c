"""Deterministic fault campaigns with a silent-miss detection gate.

ROADMAP item 5: the obs stack (events, SLO alerts, flight recorder,
traces) has never been adversarially tested against the failure modes the
paper claims the log service survives cheaply.  A *campaign* runs the
canonical workloads (the Section 3.5 login log, the Section 4.1 file
trace) while injecting the systematic fault menu (:func:`menu_specs`) at
simulated-clock-scheduled points, then
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

from typing import Any, Callable

from repro.apps import HistoryFileServer
from repro.core.logfile import LogFile
from repro.core.service import LogService
from repro.obs.injectors import (
    CHANNELS,
    CampaignAbort,
    CampaignError,
    Drive,
    FaultSpec,
    Injection,
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
    "filetrace_steps",
    "full_menu",
    "login_log_steps",
    "menu_specs",
    "run_campaign",
    "run_spec",
    "small_menu",
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
    sublogs: dict[str, LogFile] = {}
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
_IDLE_DRIVES: dict[str, tuple[Callable[[Drive, int], None], str, int]] = {
    "login_log": (login_log_steps, "records", 200),
    "filetrace": (filetrace_steps, "files", 40),
}


# --------------------------------------------------------------------- #
# Outcomes and reports
# --------------------------------------------------------------------- #


class FaultOutcome:
    """One injected fault and the channels that reported it."""

    def __init__(self, spec: FaultSpec, channels: dict[str, str | None]) -> None:
        self.spec = spec
        self.channels = {name: channels.get(name) for name in CHANNELS}

    @property
    def detected(self) -> bool:
        return any(value is not None for value in self.channels.values())

    @property
    def silent_miss(self) -> bool:
        return not self.detected

    @property
    def expected_missed(self) -> list[str]:
        """Designed channels that did not report (informational)."""
        return [
            name
            for name in self.spec.expected_channels
            if self.channels.get(name) is None
        ]

    def as_dict(self) -> dict[str, Any]:
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

    def __init__(
        self,
        menu: str,
        outcomes: list[FaultOutcome],
        control: dict[str, dict[str, Any]],
    ) -> None:
        self.menu = menu
        self.outcomes = outcomes
        self.control = control

    @property
    def silent_misses(self) -> list[str]:
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

    def as_dict(self) -> dict[str, Any]:
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


# --------------------------------------------------------------------- #
# Scenarios — thin glue over repro.obs.injectors
# --------------------------------------------------------------------- #


def run_spec(spec: FaultSpec) -> FaultOutcome:
    """Stage and score one fault on its idle canonical drive, the inject
    hook scheduled at ``spec.at_us``."""
    if spec.workload not in _IDLE_DRIVES:
        raise ValueError(f"unknown workload {spec.workload!r}")
    steps, size_param, _control_size = _IDLE_DRIVES[spec.workload]
    size = spec.param(size_param)

    def drive_for(service: LogService, injection: Injection) -> Drive:
        drive = Drive(service, injection, at_us=spec.at_us)
        drive.run(steps, size)
        return drive

    return FaultOutcome(spec, stage(spec, drive_for))


# --------------------------------------------------------------------- #
# The campaign
# --------------------------------------------------------------------- #


def small_menu() -> tuple[FaultSpec, ...]:
    """The CI smoke menu: one fault per channel family, fast to run."""
    return (
        FaultSpec(
            fault_id="torn-write-tail",
            fault_class="torn_write",
            workload="login_log",
            at_us=150_000,
            params=(("records", 300), ("crash_after_writes", 1)),
        ),
        FaultSpec(
            fault_id="bit-rot-mid-volume",
            fault_class="bit_rot",
            workload="filetrace",
            at_us=30_000_000,
            params=(("files", 60),),
        ),
        FaultSpec(
            fault_id="crash-mid-batch",
            fault_class="crash_mid_batch",
            workload="login_log",
            at_us=200_000,
            params=(("records", 200), ("crash_after_writes", 2)),
        ),
    )


def full_menu() -> tuple[FaultSpec, ...]:
    """Every fault class in the catalog, one deterministic instance each."""
    return small_menu() + (
        FaultSpec(
            fault_id="mirror-replica-divergence",
            fault_class="mirror_divergence",
            workload="login_log",
            at_us=250_000,
            params=(("records", 300), ("replicas", 2)),
        ),
        FaultSpec(
            fault_id="nvram-tail-loss",
            fault_class="nvram_loss",
            workload="login_log",
            at_us=180_000,
            params=(("records", 240),),
        ),
        FaultSpec(
            fault_id="volume-sequence-exhausted",
            fault_class="volume_exhaustion",
            workload="login_log",
            at_us=0,
            params=(("records", 1200), ("capacity_blocks", 48)),
        ),
    )


def menu_specs(menu: str) -> tuple[FaultSpec, ...]:
    if menu == "small":
        return small_menu()
    if menu == "full":
        return full_menu()
    raise ValueError(f"unknown menu {menu!r} (expected 'small' or 'full')")


def _control_check(workload: str) -> dict[str, Any]:
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

