"""The metrics registry: named families read from live state when collected.

The paper's evaluation is phrased in operation counts — "the cost of a log
read operation ... is determined primarily by the number of cache misses"
(Section 3.3.2) — and the reproduction keeps those counts in per-subsystem
stats dataclasses (:class:`~repro.cache.stats.CacheStats`,
:class:`~repro.worm.device.DeviceStats`, ...).  This module gives them one
uniform, observable surface that can be scraped as Prometheus text or
dumped as a JSON snapshot (:mod:`repro.obs.export`).

A family is a name, a kind, a help string and a *read* function that
returns the family's current ``(labels, value)`` samples.  Counters and
gauges hold no state here: their read functions look at the stats objects
at collection time (see :mod:`repro.obs.wiring`), so the hot paths pay
nothing.  :class:`Histogram` is the one instrument that keeps state, for
the distributions the dataclasses cannot express.

All values are driven by operation counts and the simulated clock, never
the host's wall clock, so two identical runs export identical snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "MetricFamily",
    "HistogramValue",
    "Labels",
    "Sample",
    "Read",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "COUNT_BUCKETS",
]

#: Sim-latency buckets (milliseconds) spanning the paper's constants: the
#: 0.6 ms cached-block access, 0.75 ms local IPC, the 2.0/2.9 ms write
#: operations (Section 3.2), the 16.7 ms device write and 25 ms average
#: seek of the testbed's drives, and long recovery-scale tails.
DEFAULT_LATENCY_BUCKETS_MS = (
    0.25, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 16.7, 25.0, 50.0, 100.0, 250.0, 1000.0
)

#: Power-of-two buckets for operation-count distributions (entries examined
#: per locate — Figure 3's x-axis spans 1..10^6 blocks of distance).
COUNT_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096)

#: Sorted ``(name, value)`` label pairs; ``()`` for an unlabelled sample.
Labels = tuple[tuple[str, str], ...]
#: One sample: a float for a counter or gauge, a HistogramValue otherwise.
Sample = tuple[Labels, object]
#: A family's read function: its samples as of the call.
Read = Callable[[], Iterable[Sample]]


@dataclass(frozen=True, slots=True)
class HistogramValue:
    """Snapshot of one histogram: cumulative bucket counts, sum, count."""

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
    """One collected metric family: every sample's current value, sorted
    by labels."""

    name: str
    help: str
    kind: str  # "counter" | "gauge" | "histogram"
    samples: tuple[Sample, ...]


class Histogram:
    """A distribution over fixed buckets (latencies, batch sizes)."""

    __slots__ = ("bounds", "bucket_counts", "sum", "count")

    def __init__(self, buckets: Iterable[float]) -> None:
        self.bounds = tuple(sorted(float(b) for b in buckets))
        if not self.bounds or len(set(self.bounds)) != len(self.bounds):
            raise ValueError(f"bucket bounds must be unique: {self.bounds!r}")
        self.bucket_counts = [0] * len(self.bounds)
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


class MetricsRegistry:
    """Metric families by name, each read when it is collected."""

    def __init__(self) -> None:
        self._families: dict[str, tuple[str, str, Read]] = {}

    def add(self, name: str, kind: str, help: str, read: Read) -> None:
        """Declare a family whose samples ``read()`` returns on demand."""
        if name in self._families:
            raise ValueError(f"metric {name!r} is already registered")
        self._families[name] = (kind, help, read)

    def histogram(
        self,
        name: str,
        help: str,
        buckets: Iterable[float] = DEFAULT_LATENCY_BUCKETS_MS,
    ) -> Histogram:
        """Declare an unlabelled histogram family and return its
        instrument."""
        histogram = Histogram(buckets)
        self.add(name, "histogram", help, lambda: [((), histogram.snapshot())])
        return histogram

    def get(self, name: str) -> MetricFamily | None:
        """The family ``name`` as of now, or None if nothing declares it."""
        entry = self._families.get(name)
        return None if entry is None else _read(name, *entry)

    def collect(self) -> list[MetricFamily]:
        """Every family as of now, sorted by name."""
        families = self._families
        return [_read(name, *families[name]) for name in sorted(families)]


def _read(name: str, kind: str, help: str, read: Read) -> MetricFamily:
    samples = tuple(sorted(read(), key=lambda sample: sample[0]))
    return MetricFamily(name=name, help=help, kind=kind, samples=samples)
