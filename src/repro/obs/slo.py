"""SLO rules and alerting, evaluated on the simulated clock.

A rule is a predicate over the live service — a metric threshold, a ratio
of two metrics, or a *model delta* comparing an observed cost against the
paper's closed-form prediction (:mod:`repro.analysis.recovery_model`,
:mod:`repro.analysis.locate_model`).  The :class:`SloEngine` evaluates its
ruleset at points in simulated time; each rule is edge-triggered: an
:class:`Alert` fires when the predicate transitions from holding to
violated, and re-arms once it clears.

Alerts are dogfooded onto the store exactly like events and metric
samples: :class:`AlertLog` appends every fired alert to an append-only
``/alerts`` sublog, so the alert history of a service is itself a log
file, recoverable after a crash.

Model-delta rules are the interesting ones: the paper gives worst-case
bounds for recovery (N·log_N b blocks examined, Section 3.4) and locate
(≈2·log_N d − 1 entrymap entries, Section 3.3.1).  An implementation that
exceeds its own paper's bound is misbehaving — e.g. a corrupted tail
forcing level-1 fallback scans during entrymap reconstruction — and that
is precisely what these rules catch.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable

from repro.core.catalog import CatalogError
from repro.obs.canonical import canonical_json
from repro.obs.registry import HistogramValue
from repro.obs.wiring import Instruments

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.logfile import LogFile
    from repro.core.service import LogService

__all__ = [
    "Alert",
    "AlertLog",
    "format_alert",
    "SloEngine",
    "ThresholdRule",
    "RatioRule",
    "ModelDeltaRule",
    "recovery_model_rule",
    "locate_model_rule",
    "default_ruleset",
    "parse_rule",
    "metric_value",
]

_OPS: dict[str, Callable[[float, float], bool]] = {
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


@dataclass(frozen=True, slots=True)
class Alert:
    """One fired SLO violation."""

    rule: str
    ts_us: int
    severity: str
    value: float
    bound: float
    message: str

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "ts_us": self.ts_us,
            "severity": self.severity,
            "value": self.value,
            "bound": self.bound,
            "message": self.message,
        }

    def encode(self) -> bytes:
        return canonical_json(self.as_dict()).encode()

    @classmethod
    def decode(cls, payload: bytes) -> "Alert":
        raw = json.loads(payload)
        return cls(
            rule=str(raw["rule"]),
            ts_us=int(raw["ts_us"]),
            severity=str(raw["severity"]),
            value=float(raw["value"]),
            bound=float(raw["bound"]),
            message=str(raw["message"]),
        )


def format_alert(alert: Alert) -> str:
    return (
        f"[{alert.ts_us:>10d}us] {alert.severity.upper():<8s} {alert.rule}: "
        f"{alert.message} (value={alert.value:g}, bound={alert.bound:g})"
    )


# --------------------------------------------------------------------- #
# Metric resolution
# --------------------------------------------------------------------- #

_METRIC_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?$"
)


def metric_value(service: "LogService", spec: str) -> float:
    """Resolve ``name`` or ``name{label=value,...}`` against the service's
    registry (samplers run, so the value is current).

    Counters and gauges resolve to their value; a histogram resolves to
    its *mean* observation (sum/count, 0 when empty).
    """
    match = _METRIC_RE.match(spec.strip())
    if match is None:
        raise ValueError(f"bad metric spec {spec!r}")
    registry = service.metrics
    metric = registry.get(match.group("name"))
    if metric is None:
        raise ValueError(f"unknown metric {match.group('name')!r}")
    want: dict[str, str] = {}
    if match.group("labels"):
        for part in match.group("labels").split(","):
            key, _, value = part.partition("=")
            want[key.strip()] = value.strip().strip('"')
    for family in registry.collect():
        if family.name != metric.name:
            continue
        for labels, value in family.samples:
            if all(dict(labels).get(k) == v for k, v in want.items()):
                if isinstance(value, HistogramValue):
                    return value.sum / value.count if value.count else 0.0
                assert isinstance(value, (int, float))
                return float(value)
    return 0.0


# --------------------------------------------------------------------- #
# Rules
# --------------------------------------------------------------------- #


class ThresholdRule:
    """Fires when ``metric OP bound`` holds (e.g. hit ratio below 50%).

    ``guard`` names a metric that must be positive for the rule to apply
    at all — e.g. a hit-ratio check guarded on total accesses, so a
    service that has seen no read traffic is not "unhealthy".
    """

    def __init__(
        self,
        name: str,
        metric: str,
        op: str,
        bound: float,
        severity: str = "warning",
        guard: str | None = None,
    ) -> None:
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.name = name
        self.metric = metric
        self.op = op
        self.bound = float(bound)
        self.severity = severity
        self.guard = guard

    def check(self, service: "LogService") -> tuple[bool, float, float, str]:
        value = metric_value(service, self.metric)
        if self.guard is not None and metric_value(service, self.guard) <= 0:
            return False, value, self.bound, f"{self.metric} (guarded)"
        violated = _OPS[self.op](value, self.bound)
        return violated, value, self.bound, f"{self.metric} {self.op} {self.bound:g}"


class RatioRule:
    """Fires when ``numerator/denominator OP bound`` holds.

    The ratio is 0 while the denominator is 0 (no traffic, no alert).
    """

    def __init__(
        self,
        name: str,
        numerator: str,
        denominator: str,
        op: str,
        bound: float,
        severity: str = "warning",
    ) -> None:
        if op not in _OPS:
            raise ValueError(f"unknown operator {op!r}")
        self.name = name
        self.numerator = numerator
        self.denominator = denominator
        self.op = op
        self.bound = float(bound)
        self.severity = severity

    def check(self, service: "LogService") -> tuple[bool, float, float, str]:
        denominator = metric_value(service, self.denominator)
        value = (
            metric_value(service, self.numerator) / denominator
            if denominator
            else 0.0
        )
        violated = _OPS[self.op](value, self.bound)
        return (
            violated,
            value,
            self.bound,
            f"{self.numerator}/{self.denominator} {self.op} {self.bound:g}",
        )


class ModelDeltaRule:
    """Fires when an observed cost exceeds ``tolerance ×`` a model bound.

    ``observed`` and ``model`` are callables over the service, so the
    bound can depend on live state (blocks written, entrymap degree, log
    extent) — the rule tracks the paper's curve, not a fixed number.
    """

    def __init__(
        self,
        name: str,
        observed: Callable[["LogService"], float],
        model: Callable[["LogService"], float],
        tolerance: float = 1.0,
        severity: str = "critical",
        describe: str = "observed cost vs model bound",
    ) -> None:
        self.name = name
        self.observed = observed
        self.model = model
        self.tolerance = float(tolerance)
        self.severity = severity
        self.describe = describe

    def check(self, service: "LogService") -> tuple[bool, float, float, str]:
        value = float(self.observed(service))
        bound = self.tolerance * float(self.model(service))
        return value > bound, value, bound, self.describe


# --------------------------------------------------------------------- #
# Model-delta rule factories
# --------------------------------------------------------------------- #


def _recovery_observed(service: "LogService") -> float:
    report = service.last_recovery_report
    return float(report.total_blocks_examined) if report is not None else 0.0


def _recovery_bound(service: "LogService") -> float:
    """Worst case over the mounted sequence: Σ N·log_N(b) per volume, with
    b taken from what the recovery pass actually saw (the last opened
    block — which includes a recovered NVRAM tail, unlike the burned
    count)."""
    from repro.analysis.recovery_model import worst_case_blocks_examined

    report = service.last_recovery_report
    if report is None:
        return 0.0
    total = 0.0
    for stats in report.volumes:
        blocks = stats.last_opened_block + 1
        if blocks > 0:
            degree = service.store.sequence.volumes[stats.volume_index].degree_n
            total += worst_case_blocks_examined(blocks, degree)
    return total


def recovery_model_rule(
    tolerance: float = 1.0, severity: str = "critical"
) -> ModelDeltaRule:
    """Recovery examined more blocks than Section 3.4's worst case allows.

    A healthy mount stays under N·log_N(b) per volume; a corrupted or torn
    tail forces the entrymap rebuild into level-1 fallback scans and blows
    through the bound.
    """
    return ModelDeltaRule(
        "recovery_blocks_vs_model",
        _recovery_observed,
        _recovery_bound,
        tolerance=tolerance,
        severity=severity,
        describe="recovery blocks examined vs N*log_N(b) worst case",
    )


def _locate_observed(service: "LogService") -> float:
    instruments = service.store.instruments
    if not isinstance(instruments, Instruments):
        return 0.0
    total = 0.0
    count = 0
    for child in instruments.locate_entries_examined._children.values():
        total += child.sum
        count += child.count
    return total / count if count else 0.0


def _locate_bound(service: "LogService") -> float:
    """2·log_N(d) − 1 with d = the whole written extent (the worst
    distance any single locate in this log could cover)."""
    extent = service.reader.global_extent()
    degree = service.store.config.degree_n
    if extent < 2:
        return 1.0
    return max(1.0, 2.0 * math.log(extent, degree) - 1.0)


def locate_model_rule(
    tolerance: float = 1.0, severity: str = "warning"
) -> ModelDeltaRule:
    """Mean entrymap entries examined per locate exceeds Figure 3's bound
    for the worst possible distance (the full written extent)."""
    return ModelDeltaRule(
        "locate_entries_vs_model",
        _locate_observed,
        _locate_bound,
        tolerance=tolerance,
        severity=severity,
        describe="mean entrymap entries/locate vs 2*log_N(extent)-1",
    )


def default_ruleset() -> list["ThresholdRule | RatioRule | ModelDeltaRule"]:
    """The stock health checks ``repro health`` runs."""
    return [
        recovery_model_rule(),
        locate_model_rule(),
        ThresholdRule(
            "cache_hit_ratio_low",
            "clio_cache_hit_ratio",
            "<",
            0.5,
            severity="warning",
            guard="clio_reader_block_accesses_total",
        ),
        ThresholdRule(
            "corrupt_blocks_present",
            "clio_corrupt_blocks_known",
            ">",
            0,
            severity="critical",
        ),
        ThresholdRule(
            "mirror_divergence",
            "clio_mirror_divergence_total",
            ">",
            0,
            severity="critical",
        ),
        ThresholdRule(
            "corrupt_records_present",
            "clio_reader_corrupt_records_found_total",
            ">",
            0,
            severity="critical",
        ),
        RatioRule(
            "forced_padding_overhead",
            "clio_writer_forced_padding_bytes_total",
            "clio_writer_client_bytes_total",
            ">",
            0.5,
            severity="warning",
        ),
    ]


# --------------------------------------------------------------------- #
# Rule parsing (the ``repro health --rule`` syntax)
# --------------------------------------------------------------------- #

_RULE_RE = re.compile(
    r"^\s*(?:(?P<name>[\w.-]+)\s*:)?\s*"
    r"(?P<num>[a-zA-Z_:][\w:]*(?:\{[^}]*\})?)\s*"
    r"(?:/\s*(?P<den>[a-zA-Z_:][\w:]*(?:\{[^}]*\})?)\s*)?"
    r"(?P<op><=|>=|<|>)\s*"
    r"(?P<bound>-?[\d.eE+]+)\s*"
    r"(?:\[(?P<severity>\w+)\])?\s*$"
)


def parse_rule(spec: str) -> "ThresholdRule | RatioRule":
    """Parse one rule from its text form.

    Grammar::

        [name:] metric OP bound [severity]
        [name:] metric / metric OP bound [severity]

    where ``metric`` is ``name`` or ``name{label=value}``, ``OP`` is one
    of ``< <= > >=``, and ``severity`` (in square brackets) defaults to
    ``warning``.  Examples::

        clio_cache_hit_ratio < 0.5
        misses: clio_cache_misses_total / clio_cache_hits_total > 2 [critical]
    """
    match = _RULE_RE.match(spec)
    if match is None:
        raise ValueError(f"cannot parse rule {spec!r}")
    severity = match.group("severity") or "warning"
    bound = float(match.group("bound"))
    op = match.group("op")
    if match.group("den"):
        name = match.group("name") or (
            f"{match.group('num')}/{match.group('den')}{op}{bound:g}"
        )
        return RatioRule(
            name, match.group("num"), match.group("den"), op, bound, severity
        )
    name = match.group("name") or f"{match.group('num')}{op}{bound:g}"
    return ThresholdRule(name, match.group("num"), op, bound, severity)


# --------------------------------------------------------------------- #
# Engine and alert persistence
# --------------------------------------------------------------------- #


class SloEngine:
    """Evaluates a ruleset against a service, edge-triggered.

    ``evaluate()`` runs every rule once at the current simulated time; a
    rule in violation fires an :class:`Alert` only on the transition into
    violation (it re-arms when the condition clears).  Fired alerts are
    journalled (``alert.fired``) and, when an :class:`AlertLog` is
    attached, persisted to the alert sublog immediately.
    """

    def __init__(
        self,
        service: "LogService",
        rules: "Iterable[ThresholdRule | RatioRule | ModelDeltaRule] | None" = None,
        alert_log: "AlertLog | None" = None,
    ) -> None:
        self.service = service
        self.rules = list(rules) if rules is not None else default_ruleset()
        self.alert_log = alert_log
        self.alerts: list[Alert] = []
        self._active: set[str] = set()
        self._last_eval_us = -1

    def evaluate(self) -> list[Alert]:
        """Check every rule; returns the alerts that fired *this* pass."""
        service = self.service
        fired: list[Alert] = []
        for rule in self.rules:
            violated, value, bound, describe = rule.check(service)
            if violated and rule.name not in self._active:
                alert = Alert(
                    rule=rule.name,
                    ts_us=service.clock.now_us,
                    severity=rule.severity,
                    value=value,
                    bound=bound,
                    message=describe,
                )
                fired.append(alert)
                self._active.add(rule.name)
                service.store.journal.emit(
                    "alert.fired",
                    rule=rule.name,
                    severity=rule.severity,
                    value=round(value, 6),
                    bound=round(bound, 6),
                )
            elif not violated:
                self._active.discard(rule.name)
        self.alerts.extend(fired)
        self._last_eval_us = service.clock.now_us
        if fired and self.alert_log is not None:
            self.alert_log.persist(fired)
        return fired

    def maybe_evaluate(self, interval_ms: float) -> list[Alert]:
        """Evaluate only if ``interval_ms`` of simulated time has passed
        since the last evaluation (the cron-style entry point)."""
        now_us = self.service.clock.now_us
        if self._last_eval_us >= 0 and (
            now_us - self._last_eval_us < interval_ms * 1000
        ):
            return []
        return self.evaluate()


class AlertLog:
    """The append-only ``/alerts`` sublog: every fired alert, durable."""

    def __init__(self, service: "LogService", path: str = "/alerts") -> None:
        self.service = service
        try:
            self.log: "LogFile" = service.open_log_file(path)
        except CatalogError:
            self.log = service.create_log_file(path)

    def persist(self, alerts: list[Alert]) -> int:
        journal = self.service.store.journal
        with journal.suppress():
            for alert in alerts:
                self.log.append(alert.encode(), timestamped=False)
            self.service.sync()
        return len(alerts)

    def read_back(self) -> list[Alert]:
        return [Alert.decode(entry.data) for entry in self.log.entries()]
