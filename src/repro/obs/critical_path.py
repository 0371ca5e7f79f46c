"""Per-trace critical paths and cost-component breakdowns.

The Section-3 cost model explains *operations*; a persisted trace
(:mod:`repro.obs.tracelog`) explains *requests*.  This module closes the
loop: given the forest of root spans sharing one trace id, it computes

* the **critical path** — from each root, the chain of spans obtained by
  always descending into the longest child, annotated with each span's
  self time (duration minus children) and dominant cost component; and
* the **component breakdown** — the trace's simulated time folded by cost
  component ("ipc", "device", "timestamp", ...), which must account for
  the trace's duration to within the acceptance bar's 1% (unattributed
  time means an uncharged code path — exactly what the charge-discipline
  lint rule exists to prevent).

A trace's *duration* is the sum of its roots' durations (its busy time on
the simulated clock); its *wall window* stretches from the first root's
start to the last root's end, and the difference between the two is the
delayed-write window — sim time that elapsed between the client reply and
the deferred device work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.obs.tracing import Span

__all__ = [
    "PathStep",
    "TraceSummary",
    "component_breakdown",
    "critical_path",
    "summarize_trace",
    "summarize_traces",
    "top_traces",
    "format_trace_summary",
    "format_critical_path",
]


def component_breakdown(roots: Iterable[Span]) -> dict[str, float]:
    """Simulated milliseconds charged across the forest, by component."""
    totals: dict[str, float] = {}
    for root in roots:
        for span in root.walk():
            if span.costs:
                for component, ms in span.costs.items():
                    totals[component] = totals.get(component, 0.0) + ms
    return totals


@dataclass(frozen=True, slots=True)
class PathStep:
    """One span on a trace's critical path."""

    name: str
    depth: int
    start_us: int
    duration_us: int
    #: Time spent in this span itself (duration minus direct children).
    self_us: int
    #: The costliest charged component of this span, or "" if uncharged.
    dominant_component: str


def critical_path(roots: Iterable[Span]) -> list[PathStep]:
    """The longest-child descent through each root, in causal order.

    Roots are visited oldest first; within a span the walk descends into
    the child with the largest duration (first such child on ties, so the
    path is deterministic).  The result concatenates one descent per root
    — a multi-root trace's path crosses the delayed-write gap between the
    client-side root and the deferred delivery.
    """
    steps: list[PathStep] = []
    for root in sorted(roots, key=lambda r: (r.start_us, r.span_id)):
        node = root
        depth = 0
        while True:
            children_us = sum(child.duration_us for child in node.children)
            costs = node.costs
            dominant = (
                max(sorted(costs), key=costs.__getitem__) if costs else ""
            )
            steps.append(
                PathStep(
                    name=node.name,
                    depth=depth,
                    start_us=node.start_us,
                    duration_us=node.duration_us,
                    self_us=node.duration_us - children_us,
                    dominant_component=dominant,
                )
            )
            if not node.children:
                break
            node = max(node.children, key=lambda child: child.duration_us)
            depth += 1
    return steps


@dataclass(frozen=True, slots=True)
class TraceSummary:
    """One trace's identity, extent, and cost decomposition."""

    trace_id: str
    root_names: tuple[str, ...]
    span_count: int
    start_us: int
    end_us: int
    #: Busy time: the sum of root durations (what the components explain).
    duration_us: int
    #: Wall window minus busy time — the delayed-write gap made visible.
    idle_us: int
    components: tuple[tuple[str, float], ...]  # sorted by ms, descending
    error: bool

    @property
    def attributed_ms(self) -> float:
        return sum(ms for _, ms in self.components)

    @property
    def coverage(self) -> float:
        """Attributed ms over busy ms (1.0 = fully explained)."""
        busy_ms = self.duration_us / 1000.0
        return (self.attributed_ms / busy_ms) if busy_ms else 1.0


def summarize_trace(trace_id: str, roots: list[Span]) -> TraceSummary:
    """Fold one trace's root forest into a :class:`TraceSummary`."""
    if not roots:
        raise ValueError(f"trace {trace_id!r} has no roots")
    ordered = sorted(roots, key=lambda r: (r.start_us, r.span_id))
    start = ordered[0].start_us
    end = max(
        (r.end_us if r.end_us is not None else r.start_us) for r in ordered
    )
    busy = sum(r.duration_us for r in ordered)
    breakdown = component_breakdown(ordered)
    components = tuple(
        sorted(breakdown.items(), key=lambda item: (-item[1], item[0]))
    )
    return TraceSummary(
        trace_id=trace_id,
        root_names=tuple(r.name for r in ordered),
        span_count=sum(1 for r in ordered for _ in r.walk()),
        start_us=start,
        end_us=end,
        duration_us=busy,
        idle_us=(end - start) - busy,
        components=components,
        error=any("error" in s.attributes for r in ordered for s in r.walk()),
    )


def summarize_traces(traces: dict[str, list[Span]]) -> list[TraceSummary]:
    """Summaries for every trace, oldest first."""
    summaries = [
        summarize_trace(trace_id, roots)
        for trace_id, roots in traces.items()
        if roots
    ]
    summaries.sort(key=lambda s: (s.start_us, s.trace_id))
    return summaries


def top_traces(
    summaries: Iterable[TraceSummary],
    count: int = 10,
    component: str | None = None,
) -> list[TraceSummary]:
    """The ``count`` costliest traces — by total duration, or by one
    component's charged milliseconds when ``component`` is given (the
    ``clio trace top --slowest N --component device`` query)."""

    def cost(summary: TraceSummary) -> float:
        if component is None:
            return float(summary.duration_us)
        return dict(summary.components).get(component, 0.0)

    ordered = sorted(
        summaries, key=lambda s: (-cost(s), s.start_us, s.trace_id)
    )
    return ordered[: max(0, count)]


def format_trace_summary(summary: TraceSummary) -> str:
    """One trace as a compact single line (the ``find``/``top`` listing)."""
    parts = " ".join(
        f"{component}={ms:.3f}ms" for component, ms in summary.components[:3]
    )
    flags = " ERROR" if summary.error else ""
    return (
        f"{summary.trace_id}  roots={len(summary.root_names)} "
        f"spans={summary.span_count} busy={summary.duration_us / 1000.0:.3f}ms "
        f"idle={summary.idle_us / 1000.0:.3f}ms  {parts}{flags}"
    )


def format_critical_path(summary: TraceSummary, steps: list[PathStep]) -> str:
    """The critical path plus the component accounting, as shown by
    ``clio trace show <id> --critical-path``."""
    lines = [
        f"trace {summary.trace_id}: busy {summary.duration_us / 1000.0:.3f}ms"
        f" over {len(summary.root_names)} root(s),"
        f" delayed-write gap {summary.idle_us / 1000.0:.3f}ms"
    ]
    for step in steps:
        dominant = (
            f" <- {step.dominant_component}" if step.dominant_component else ""
        )
        lines.append(
            f"{'  ' * step.depth}{step.name}  "
            f"[{step.start_us}us +{step.duration_us}us "
            f"self={step.self_us}us]{dominant}"
        )
    lines.append("components:")
    for component, ms in summary.components:
        lines.append(f"  {component:<16} {ms:9.3f}ms")
    lines.append(
        f"attributed {summary.attributed_ms:.3f}ms of "
        f"{summary.duration_us / 1000.0:.3f}ms "
        f"({summary.coverage * 100.0:.1f}% coverage)"
    )
    return "\n".join(lines)
