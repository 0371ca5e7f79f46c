"""The fault menu's vocabulary, its injectors, and the one stepped driver
that fires them.

Section 2.3.2's failure catalog ("a failure may cause a portion of the log
volume to be written with garbage"), the mirrored-volume option of Section
5.1, and the NVRAM tail staging of Section 2.3.1 each name a way the log
service can be damaged.  A :class:`FaultSpec` pins one such fault to a
deterministic injection point, a simulated-clock trigger inside a
canonical workload.  One :class:`Injection` subclass per fault class
(listed once, in ``_INJECTION_CLASSES``) declares the channels its fault is
designed to reach and carries the whole staging of that fault, in four
steps:

* :meth:`Injection.service_overrides` — constructor kwargs the fault
  needs staged before the service exists (a mirrored device factory, a
  volatile NVRAM, a pure write-once configuration);
* :meth:`Injection.fire` — the **inject hook**: called against a *live*
  service at the simulated-clock trigger, mid-drive or mid-replay;
* :meth:`Injection.settle` — post-drive actions that bring the fault to
  its observable state (forcing the staged crash, corrupting the cold
  block, remounting) and return the service to probe;
* :meth:`Injection.probe` — the four-channel evidence scan.

:class:`Drive` is the stepped driver both harnesses share — the idle
canonical drives of :mod:`repro.obs.campaign` and the phased replays of
:mod:`repro.obs.workload` — and :func:`stage` runs the four steps around
it, so the silent-miss gate is proved on idle drives *and* under load by
one set of injectors and one hook schedule.

Everything stays deterministic: injection points read only the simulated
clock, corruption helpers use fixed seeds, and a failed premise raises
:class:`CampaignError`.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.core.service import CrashRemains, LogService
from repro.obs.slo import SloEngine, default_ruleset
from repro.vsystem.clock import SimClock
from repro.worm.corruption import CrashingWormDevice, corrupt_block
from repro.worm.device import WormDevice
from repro.worm.errors import DeviceCrashed, VolumeSequenceError
from repro.worm.geometry import NULL_GEOMETRY
from repro.worm.mirror import MirroredWormDevice
from repro.worm.nvram import NvramTail

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.recovery import RecoveryReport
    from repro.obs.events import Event

__all__ = [
    "CHANNELS",
    "CORRUPT_KINDS",
    "CORRUPT_RULES",
    "MIRROR_KINDS",
    "MIRROR_RULES",
    "BitRotInjection",
    "CampaignAbort",
    "CampaignError",
    "CrashMidBatchInjection",
    "Drive",
    "FaultSpec",
    "Injection",
    "MirrorDivergenceInjection",
    "NvramLossInjection",
    "TornWriteInjection",
    "VolumeExhaustionInjection",
    "alert_evidence",
    "counters_fingerprint",
    "create_service",
    "event_evidence",
    "make_injection",
    "recovery_evidence",
    "stage",
    "trace_evidence",
]

#: SLO rules consulted per fault evidence class.
CORRUPT_RULES = frozenset({"corrupt_blocks_present", "corrupt_records_present"})
MIRROR_RULES = frozenset({"mirror_divergence"})

#: Journal kinds that report damaged media content.
CORRUPT_KINDS = frozenset({"block.corrupt", "record.corrupt"})

#: Journal kinds a diverged mirror surfaces through.
MIRROR_KINDS = frozenset({"mirror.read_repair", "mirror.replica_dropped"})


#: The observability channels a fault can surface in, in report order.
CHANNELS: tuple[str, ...] = ("events", "alerts", "recovery", "traces")


@dataclass(frozen=True)
class FaultSpec:
    """One fault, pinned to a deterministic injection point.

    ``at_us`` is the simulated-clock trigger: the driver fires the
    injection before the first workload step at or past that instant
    (``0`` means the fault is configured before the workload starts, e.g.
    a device factory that runs out of media).  ``params`` are per-class
    integer knobs, stored as sorted pairs so the spec hashes and encodes
    deterministically.  ``workload`` names the idle drive the campaign
    runs the fault on (checked where that drive is looked up).
    """

    fault_id: str
    fault_class: str
    workload: str
    at_us: int
    params: tuple[tuple[str, int], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.fault_class not in _INJECTION_CLASSES:
            raise ValueError(f"unknown fault class {self.fault_class!r}")
        if self.at_us < 0:
            raise ValueError("at_us must be >= 0")
        object.__setattr__(self, "params", tuple(sorted(self.params)))

    def param(self, name: str) -> int:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(f"{self.fault_id}: no parameter {name!r}")

    @property
    def expected_channels(self) -> tuple[str, ...]:
        """The channels this fault's class is designed to surface in (the
        "Detection coverage matrix" section of docs/OBSERVABILITY.md).
        The silent-miss gate needs only one; this records the design."""
        return _INJECTION_CLASSES[self.fault_class].expected_channels

    def as_dict(self) -> dict[str, object]:
        return {
            "at_us": self.at_us,
            "expected_channels": list(self.expected_channels),
            "fault_class": self.fault_class,
            "fault_id": self.fault_id,
            "params": {name: value for name, value in self.params},
            "workload": self.workload,
        }


class CampaignError(RuntimeError):
    """A fault's premise failed (the fault could not be staged)."""


class CampaignAbort(Exception):
    """Raised by an injection hook to stop the workload drive."""


# --------------------------------------------------------------------- #
# Deterministic counters fingerprint
# --------------------------------------------------------------------- #


def counters_fingerprint(service: "LogService") -> dict[str, Any]:
    """Every simulated-time counter a harness must not perturb, as a
    JSON-stable dict: the clock, per-volume device stats, and the space
    accounting.  Volume ids (uuid4) are deliberately excluded."""
    store: Any = service.store
    volumes = []
    for volume in store.sequence.volumes:
        stats = volume.device.stats
        volumes.append(
            {
                "blocks_written": volume.device.blocks_written,
                "busy_ms": stats.busy_ms,
                "invalidations": stats.invalidations,
                "reads": stats.reads,
                "seeks": stats.seeks,
                "tail_queries": stats.tail_queries,
                "writes": stats.writes,
                "written_probes": stats.written_probes,
            }
        )
    space = store.space
    return {
        "clock_us": store.clock.now_us,
        "space": {
            "blocks_written": space.blocks_written,
            "catalog": space.catalog,
            "client_data": space.client_data,
            "client_entries": space.client_entries,
            "entry_headers": space.entry_headers,
            "entrymap": space.entrymap,
            "forced_padding": space.forced_padding,
            "size_index": space.size_index,
        },
        "volumes": volumes,
    }


# --------------------------------------------------------------------- #
# Channel probes
# --------------------------------------------------------------------- #


def event_evidence(
    events: "Iterable[Event]", kinds: frozenset[str]
) -> str | None:
    """First journal event whose kind is in ``kinds``, rendered."""
    for event in events:
        if event.kind in kinds:
            return f"{event.kind} seq={event.seq} ts_us={event.ts_us}"
    return None


def alert_evidence(
    service: "LogService", rule_names: frozenset[str]
) -> str | None:
    """Evaluate the named default-ruleset rules against ``service``."""
    rules = [rule for rule in default_ruleset() if rule.name in rule_names]
    engine = SloEngine(service, rules=rules)
    for alert in engine.evaluate():
        if alert.rule in rule_names:
            return f"{alert.rule} value={alert.value}"
    return None


def trace_evidence(service: "LogService", span_names: set[str]) -> str | None:
    """First error-attributed span with one of ``span_names`` in the
    tracer's recent roots (descendants included)."""
    tracer: Any = service.tracer
    for root in tracer.recent():
        for span in root.walk():
            error = span.attributes.get("error")
            if error is not None and span.name in span_names:
                return f"span={span.name} error={error}"
    return None


def recovery_evidence(
    report: "RecoveryReport | None", kinds: frozenset[str]
) -> str | None:
    """Mount-time recovery evidence: known-corrupt blocks, or a matching
    flight-recorder event."""
    if report is None:
        return None
    if report.corrupted_blocks_known > 0:
        return f"corrupted_blocks_known={report.corrupted_blocks_known}"
    for event in report.flight_recorder:
        if event.kind in kinds:
            return f"flight:{event.kind} seq={event.seq}"
    return None


# --------------------------------------------------------------------- #
# The Injection base
# --------------------------------------------------------------------- #


def _remount(remains: CrashRemains) -> tuple[LogService, "RecoveryReport"]:
    """Mount what survived a crash, observably (a settle step)."""
    return LogService.mount(remains.devices, remains.nvram, observability=True)


class Injection:
    """One staged fault: the reusable spec → inject-hook machinery.

    A driver (campaign scenario or workload replay) uses an injection in
    four ordered steps (:func:`stage`): build the service with
    ``**injection.service_overrides()``; run the workload under a
    :class:`Drive`, which fires the hook before the first step at or past
    ``spec.at_us`` (``stop_on`` names the exception classes a planned
    stop raises); then ``settle`` and ``probe``.
    """

    #: The channels the fault is designed to surface in, in CHANNELS order.
    expected_channels: tuple[str, ...] = ()
    #: Exceptions the driver should treat as the fault's planned stop.
    stop_on: tuple[type[BaseException], ...] = ()

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec

    def service_overrides(self) -> dict[str, Any]:
        """Constructor kwargs the fault needs staged at create time."""
        return {}

    def fire(self, service: "LogService") -> None:
        """The inject hook: damage the live service at the trigger."""

    def check_drive(self, fired: bool, stopped: bool) -> None:
        """Validate the drive-level premise from the driver's returns
        (``fired``: the hook ran; ``stopped``: a ``stop_on`` exception
        ended the drive).  Raises :class:`CampaignError` on failure."""

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        """Bring the fault to its observable state (crash/remount as the
        class requires); returns ``(service_to_probe, recovery_report)``.
        Raises :class:`CampaignError` when the fault's premise failed."""
        return service, None

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        """Scan the channels this fault can surface in (a channel left
        out did not report): ``service`` is the instance the fault was
        injected into, ``settled``/``report`` what :meth:`settle` returned
        (the same instance when no remount happened)."""
        raise NotImplementedError


class TornWriteInjection(Injection):
    """A torn sector write at the tail: the crash block carries a garbage
    suffix, which recovery's tail scan must flag as corrupt."""

    expected_channels = ("events", "alerts", "recovery")
    stop_on = (DeviceCrashed,)

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.staged: list[tuple[Any, Any]] = []

    def service_overrides(self) -> dict[str, Any]:
        # Pure write-once configuration: no firmware tail query (the
        # garbage block must be *found* by the binary search) and no NVRAM
        # staging.
        return {
            "supports_tail_query": False,
            "nvram_tail": False,
            "volume_capacity_blocks": 256,
        }

    def fire(self, service: "LogService") -> None:
        volume: Any = service.store.sequence.volumes[-1]
        crasher = CrashingWormDevice(
            volume.device,
            crash_after_writes=self.spec.param("crash_after_writes"),
            torn=True,
        )
        volume.device = crasher
        self.staged.append((volume, crasher))

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        if not self.staged:
            raise CampaignError(f"{self.spec.fault_id}: injection never fired")
        volume, crasher = self.staged[0]
        # The crash may not have landed during the drive (e.g. the trigger
        # fired between burns); force appends until the device dies.
        root = service.open_log_file("/access")
        while not crasher.has_crashed:
            try:
                root.append(b"torn-write filler entry")
            except DeviceCrashed:
                break
        volume.device = crasher.reincarnate()

        return _remount(service.crash())

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(settled.journal.events(), CORRUPT_KINDS),
            "alerts": alert_evidence(settled, CORRUPT_RULES),
            "recovery": recovery_evidence(report, CORRUPT_KINDS),
            "traces": trace_evidence(service, {"append", "append_many"}),
        }


class BitRotInjection(Injection):
    """Cold bit-rot: a written block rots to garbage while the service is
    down; the mount-time scan must flag it."""

    expected_channels = ("events", "alerts", "recovery")
    stop_on = (CampaignAbort,)

    def fire(self, service: "LogService") -> None:
        raise CampaignAbort

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        device: Any = service.store.sequence.volumes[0].device
        if device.next_writable < 3:
            raise CampaignError(
                f"{self.spec.fault_id}: too few blocks written before the trigger"
            )
        # The newest burned block: always inside recovery's tail re-scan.
        block = device.next_writable - 1
        remains = service.crash()
        corrupt_block(remains.devices[0], block)
        return _remount(remains)

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(settled.journal.events(), CORRUPT_KINDS),
            "alerts": alert_evidence(settled, CORRUPT_RULES),
            "recovery": recovery_evidence(report, CORRUPT_KINDS),
            "traces": trace_evidence(settled, {"recovery"}),
        }


class MirrorDivergenceInjection(Injection):
    """One replica of a mirrored volume diverges (a block invalidated on
    it only); the next read must repair from a survivor and say so."""

    expected_channels = ("events", "alerts")

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.replica_sets: list[list[Any]] = []

    def _factory(self) -> Any:
        pair = [
            WormDevice(1024, 4096, NULL_GEOMETRY)
            for _ in range(self.spec.param("replicas"))
        ]
        self.replica_sets.append(pair)
        return MirroredWormDevice(pair)

    def service_overrides(self) -> dict[str, Any]:
        return {"device_factory": self._factory}

    def fire(self, service: "LogService") -> None:
        pair = self.replica_sets[0]
        mirror: Any = service.store.sequence.volumes[0].device
        if mirror.next_writable < 3:
            raise CampaignError(
                f"{self.spec.fault_id}: too few blocks written before the trigger"
            )
        # Diverge replica 0 only: the mirror believes the block is good.
        pair[0].invalidate(mirror.next_writable // 2)
        service.store.cache.clear()

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        # Read everything back: the diverged block forces a read repair.
        for _entry in service.open_root().entries():
            pass
        return service, None

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(service.journal.events(), MIRROR_KINDS),
            "alerts": alert_evidence(service, MIRROR_RULES),
        }


class NvramLossInjection(Injection):
    """The NVRAM staging the forced tail does not survive the crash; the
    remount must record that the staged image is gone."""

    expected_channels = ("events", "recovery")
    stop_on = (CampaignAbort,)

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.clock = SimClock()
        self.nvram = NvramTail(
            capacity_bytes=1024, survives_crash=False, clock=self.clock
        )

    def service_overrides(self) -> dict[str, Any]:
        return {"clock": self.clock, "nvram": self.nvram}

    def fire(self, service: "LogService") -> None:
        service.sync()
        raise CampaignAbort

    def settle(
        self, service: "LogService"
    ) -> tuple["LogService", "RecoveryReport | None"]:
        if self.nvram.load() is None:
            raise CampaignError(
                f"{self.spec.fault_id}: no tail image staged before the crash"
            )
        mounted, report = _remount(service.crash())
        if report.nvram_tail_recovered:
            raise CampaignError(
                f"{self.spec.fault_id}: the lost image was somehow recovered"
            )
        return mounted, report

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(
                settled.journal.events(), frozenset({"recovery.nvram_empty"})
            ),
            "recovery": recovery_evidence(
                report, frozenset({"recovery.nvram_empty"})
            ),
        }


class CrashMidBatchInjection(Injection):
    """The device dies part-way through a server-side group commit; the
    failed ``append_many`` must leave an error-attributed trace."""

    expected_channels = ("traces",)
    stop_on = (DeviceCrashed,)

    def fire(self, service: "LogService") -> None:
        volume: Any = service.store.sequence.volumes[-1]
        volume.device = CrashingWormDevice(
            volume.device,
            crash_after_writes=self.spec.param("crash_after_writes"),
        )
        batch = [f"batch entry {index:04d} ".encode() * 8 for index in range(64)]
        service.open_log_file("/access").append_many(batch)

    def check_drive(self, fired: bool, stopped: bool) -> None:
        if not (fired and stopped):
            raise CampaignError(f"{self.spec.fault_id}: the batch did not crash")

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "traces": trace_evidence(service, {"append_many"}),
        }


class VolumeExhaustionInjection(Injection):
    """The media library runs dry: extending the volume sequence fails,
    which must be journalled and error-attributed before the error
    reaches the client.  The fault is configured at create time
    (``at_us=0``); :meth:`fire` is passive."""

    expected_channels = ("events", "traces")
    stop_on = (VolumeSequenceError,)

    def __init__(self, spec: FaultSpec) -> None:
        super().__init__(spec)
        self.capacity = spec.param("capacity_blocks")
        self.made: list[Any] = []

    def _factory(self) -> Any:
        if self.made:
            raise VolumeSequenceError(
                "media library exhausted: no successor volume"
            )
        device = WormDevice(1024, self.capacity, NULL_GEOMETRY)
        self.made.append(device)
        return device

    def service_overrides(self) -> dict[str, Any]:
        return {
            "device_factory": self._factory,
            "volume_capacity_blocks": self.capacity,
        }

    def check_drive(self, fired: bool, stopped: bool) -> None:
        if not stopped:
            raise CampaignError(f"{self.spec.fault_id}: the volume never filled")

    def probe(
        self,
        service: "LogService",
        settled: "LogService",
        report: "RecoveryReport | None",
    ) -> dict[str, str | None]:
        return {
            "events": event_evidence(
                service.journal.events(), frozenset({"volume.exhausted"})
            ),
            "traces": trace_evidence(service, {"append", "append_many"}),
        }


_INJECTION_CLASSES: dict[str, type[Injection]] = {
    "torn_write": TornWriteInjection,
    "bit_rot": BitRotInjection,
    "mirror_divergence": MirrorDivergenceInjection,
    "nvram_loss": NvramLossInjection,
    "crash_mid_batch": CrashMidBatchInjection,
    "volume_exhaustion": VolumeExhaustionInjection,
}


def make_injection(spec: FaultSpec) -> Injection:
    """The staged, reusable injection machinery for one fault spec."""
    return _INJECTION_CLASSES[spec.fault_class](spec)


# --------------------------------------------------------------------- #
# The stepped driver
# --------------------------------------------------------------------- #


def create_service(**overrides: Any) -> "LogService":
    """A fresh, fully observable service (what every harness drives)."""
    overrides.setdefault("observability", True)
    return LogService.create(**overrides)


@dataclass
class Drive:
    """One stepped drive of a live service, with an optional inject hook.

    The workload steps call :meth:`maybe_fire` before every step (and
    count finished steps in ``ops_done``); the hook fires before the
    first step at or past ``at_us`` once ``warmup_ops`` steps are done.
    The check reads only the simulated clock, so a drive with no
    injection is indistinguishable — in sim-time counters — from the same
    steps run without the harness (the campaign's control criterion).
    """

    service: LogService
    injection: Injection | None = None
    _: KW_ONLY
    at_us: int = 0
    warmup_ops: int = 0
    ops_done: int = 0
    fired: bool = False
    stopped: bool = False

    def maybe_fire(self) -> None:
        if (
            self.injection is not None
            and not self.fired
            and self.ops_done >= self.warmup_ops
            and self.service.clock.now_us >= self.at_us
        ):
            self.fired = True
            self.injection.fire(self.service)

    def run(self, steps: Callable[..., None], *args: Any) -> None:
        """Run ``steps(self, *args)`` to its end or to the injection's
        planned stop (``stopped``); a hook still pending when the steps
        end fires then, so every staged fault is injected exactly once."""
        stop_on = self.injection.stop_on if self.injection is not None else ()
        try:
            steps(self, *args)
            if self.injection is not None and not self.fired:
                self.fired = True
                self.injection.fire(self.service)
        except stop_on:
            self.stopped = True


def stage(
    spec: FaultSpec, drive_for: Callable[["LogService", Injection], Drive]
) -> dict[str, str | None]:
    """Stage and score one fault: build the service with the injection's
    overrides, let ``drive_for`` run its workload over it (returning the
    finished :class:`Drive`), check the drive-level premise, then settle
    and probe the four channels."""
    injection = make_injection(spec)
    service = create_service(**injection.service_overrides())
    drive = drive_for(service, injection)
    injection.check_drive(drive.fired, drive.stopped)
    settled, report = injection.settle(service)
    return injection.probe(service, settled, report)
