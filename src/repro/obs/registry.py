"""A label-aware metrics registry: counters, gauges, histograms.

The paper's evaluation is phrased in operation counts — "the cost of a log
read operation ... is determined primarily by the number of cache misses"
(Section 3.3.2) — and the reproduction keeps those counts in per-subsystem
stats dataclasses (:class:`~repro.cache.stats.CacheStats`,
:class:`~repro.worm.device.DeviceStats`, ...).  This module gives them one
uniform, observable surface: a registry of named metric families that can
be scraped as Prometheus text or dumped as a JSON snapshot
(:mod:`repro.obs.export`).

Two usage styles coexist:

* **Direct instruments** — hot paths that need distributions call
  ``histogram.observe(...)`` (e.g. per-append simulated latency, tail-block
  amortization batch sizes).
* **Samplers** — the existing stats dataclasses stay the source of truth;
  a sampler callback registered with :meth:`MetricsRegistry.register_sampler`
  copies their values into registry children at collection time, so the
  hot paths pay nothing (see :mod:`repro.obs.wiring`).

All values are driven by operation counts and the simulated clock, never
the host's wall clock, so two identical runs export identical snapshots.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Generic, Iterable, TypeVar

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricFamily",
    "HistogramValue",
    "LabelCardinalityError",
    "MetricError",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "COUNT_BUCKETS",
]

#: Sim-latency buckets (milliseconds) spanning the paper's constants: the
#: 0.6 ms cached-block access, 0.75 ms local IPC, the 2.0/2.9 ms write
#: operations (Section 3.2), the 16.7 ms device write and 25 ms average
#: seek of the testbed's drives, and long recovery-scale tails.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.25,
    0.5,
    1.0,
    2.0,
    3.0,
    5.0,
    10.0,
    16.7,
    25.0,
    50.0,
    100.0,
    250.0,
    1000.0,
)

#: Power-of-two buckets for operation-count distributions (entries examined
#: per locate — Figure 3's x-axis spans 1..10^6 blocks of distance).
COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


class MetricError(ValueError):
    """Bad metric name, label set, or conflicting re-registration."""


class LabelCardinalityError(MetricError):
    """A metric exceeded its configured maximum number of label sets."""


@dataclass(frozen=True, slots=True)
class HistogramValue:
    """Snapshot of one histogram child: cumulative bucket counts, sum, count."""

    buckets: tuple[tuple[float, int], ...]  # (upper_bound, cumulative_count)
    sum: float
    count: int

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1) by linear interpolation
        within the bucket containing the target rank — the standard
        Prometheus ``histogram_quantile`` estimator.

        The lowest bucket interpolates from 0; a rank landing in the
        +Inf overflow bucket is clamped to the highest finite bound
        (there is no upper edge to interpolate toward).  Returns 0.0 for
        an empty histogram.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        lower_bound = 0.0
        lower_cum = 0
        for bound, cumulative in self.buckets:
            if rank <= cumulative:
                if bound == float("inf"):
                    return lower_bound
                in_bucket = cumulative - lower_cum
                if in_bucket == 0:
                    return bound
                fraction = (rank - lower_cum) / in_bucket
                return lower_bound + (bound - lower_bound) * fraction
            lower_bound, lower_cum = bound, cumulative
        return lower_bound


@dataclass(frozen=True, slots=True)
class MetricFamily:
    """One collected metric family: every labelled child's current value."""

    name: str
    help: str
    kind: str  # "counter" | "gauge" | "histogram"
    samples: tuple[tuple[tuple[tuple[str, str], ...], object], ...]
    # samples: ((labels, value), ...) with labels as sorted (name, value)
    # pairs; value is a float for counter/gauge, HistogramValue otherwise.


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Overwrite the cumulative total (sampler use: mirror an external
        counter such as ``DeviceStats.reads``).  Totals may go backward only
        when the backing stats object was explicitly ``reset()``."""
        self.value = float(value)


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class _HistogramChild:
    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.bucket_counts = [0] * len(bounds)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += 1
                break

    def snapshot(self) -> HistogramValue:
        cumulative = 0
        buckets = []
        for bound, n in zip(self.bounds, self.bucket_counts):
            cumulative += n
            buckets.append((bound, cumulative))
        buckets.append((float("inf"), self.count))
        return HistogramValue(
            buckets=tuple(buckets), sum=self.sum, count=self.count
        )


_Child = TypeVar("_Child", _CounterChild, _GaugeChild, _HistogramChild)


class _Metric(Generic[_Child]):
    """Shared machinery for the three metric kinds."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        max_label_sets: int = 1000,
    ):
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in labelnames:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r}")
        if len(set(labelnames)) != len(labelnames):
            raise MetricError(f"duplicate label names in {labelnames!r}")
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self.max_label_sets = max_label_sets
        self._children: dict[tuple[str, ...], _Child] = {}
        if not self.labelnames:
            # Label-less metrics have exactly one child, created eagerly so
            # the family appears in exports even before the first increment.
            self._children[()] = self._make_child()

    def _make_child(self) -> _Child:
        raise NotImplementedError

    def labels(self, **labels: str) -> _Child:
        """The child instrument for one label set (created on first use)."""
        if set(labels) != set(self.labelnames):
            raise MetricError(
                f"metric {self.name!r} takes labels {self.labelnames!r}, "
                f"got {tuple(sorted(labels))!r}"
            )
        key = tuple(str(labels[name]) for name in self.labelnames)
        child = self._children.get(key)
        if child is None:
            if len(self._children) >= self.max_label_sets:
                raise LabelCardinalityError(
                    f"metric {self.name!r} exceeded {self.max_label_sets} "
                    f"label sets; refusing to create {key!r}"
                )
            child = self._make_child()
            self._children[key] = child
        return child

    @property
    def _default(self) -> _Child:
        if self.labelnames:
            raise MetricError(
                f"metric {self.name!r} has labels {self.labelnames!r}; "
                "use .labels(...) to pick a child"
            )
        return self._children[()]

    def _collect_samples(
        self,
    ) -> tuple[tuple[tuple[tuple[str, str], ...], object], ...]:
        samples: list[tuple[tuple[tuple[str, str], ...], object]] = []
        for key in sorted(self._children):
            labels = tuple(zip(self.labelnames, key))
            samples.append((labels, self._child_value(self._children[key])))
        return tuple(samples)

    def _child_value(self, child: _Child) -> object:
        raise NotImplementedError


class Counter(_Metric[_CounterChild]):
    """A monotonically increasing count (operation totals)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set_total(self, value: float) -> None:
        self._default.set_total(value)

    @property
    def value(self) -> float:
        return self._default.value

    def _child_value(self, child: _CounterChild) -> object:
        return child.value


class Gauge(_Metric[_GaugeChild]):
    """A value that can go up and down (resident blocks, sim-clock time)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        self._default.set(value)

    @property
    def value(self) -> float:
        return self._default.value

    def _child_value(self, child: _GaugeChild) -> object:
        return child.value


class Histogram(_Metric[_HistogramChild]):
    """A distribution over fixed buckets (latencies, batch sizes)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
        max_label_sets: int = 1000,
    ):
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise MetricError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise MetricError(f"duplicate bucket bounds in {bounds!r}")
        self.buckets = bounds
        super().__init__(name, help, labelnames, max_label_sets)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    def quantile(self, q: float) -> float:
        """The q-quantile of the (label-less) histogram's snapshot."""
        return self._default.snapshot().quantile(q)

    def _child_value(self, child: _HistogramChild) -> object:
        return child.snapshot()


_AnyMetric = (
    _Metric[_CounterChild] | _Metric[_GaugeChild] | _Metric[_HistogramChild]
)


class MetricsRegistry:
    """A named collection of metric families plus pull-time samplers."""

    def __init__(self) -> None:
        self._metrics: dict[str, _AnyMetric] = {}
        self._samplers: list[Callable[["MetricsRegistry"], None]] = []

    # -- registration ----------------------------------------------------

    def counter(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Counter:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Counter):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as counter"
                )
            return existing
        metric = Counter(name, help, labelnames=labelnames)
        self._metrics[name] = metric
        return metric

    def gauge(
        self, name: str, help: str = "", labelnames: tuple[str, ...] = ()
    ) -> Gauge:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Gauge):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as gauge"
                )
            return existing
        metric = Gauge(name, help, labelnames=labelnames)
        self._metrics[name] = metric
        return metric

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> Histogram:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, Histogram):
                raise MetricError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, cannot re-register as histogram"
                )
            return existing
        metric = Histogram(name, help, labelnames=labelnames, buckets=buckets)
        self._metrics[name] = metric
        return metric

    def register_sampler(
        self, sampler: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Register a callback run at the start of every :meth:`collect`.

        Samplers mirror external stats objects (``CacheStats``,
        ``DeviceStats``, ``ReadStats``, ``SpaceStats``) into the registry so
        the instrumented hot paths stay exactly as cheap as before.
        """
        self._samplers.append(sampler)

    # -- introspection ---------------------------------------------------

    def get(self, name: str) -> _AnyMetric | None:
        return self._metrics.get(name)

    # -- collection ------------------------------------------------------

    def collect(self) -> list[MetricFamily]:
        """Run samplers, then snapshot every family, sorted by name."""
        for sampler in self._samplers:
            sampler(self)
        families = []
        for name in sorted(self._metrics):
            metric = self._metrics[name]
            families.append(
                MetricFamily(
                    name=metric.name,
                    help=metric.help,
                    kind=metric.kind,
                    samples=metric._collect_samples(),
                )
            )
        return families
