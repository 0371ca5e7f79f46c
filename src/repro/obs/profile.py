"""Cost-attribution profiling: where did the simulated time go?

Every clock advance in the service goes through
:meth:`~repro.core.store.LogStore.charge`, which tags the charged
milliseconds onto the innermost open span by *cost component* — ``ipc``,
``write_fixed``, ``copy``, ``timestamp``, ``entrymap_maint``,
``cache_interpret``, ``device``, ``read_fixed``.  This module folds those
tags back out of a span tree into per-operation breakdowns: the live
equivalent of Section 3's latency decompositions ("a null synchronous
write costs 2.0 ms: ~0.75 ms IPC, ~0.4 ms timestamp, ...").

Charges go only to the innermost span, so summing a root's whole subtree
counts every charged millisecond exactly once; the breakdown's components
therefore sum to the root's traced duration up to the clock's
microsecond rounding (one rounding step per ``charge``/``charge_many``
call).  ``repro profile`` asserts that coverage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.tracing import Span

__all__ = [
    "CostBreakdown",
    "profile_span",
    "profile_roots",
    "format_profile",
    "attribution_summary",
]


def profile_span(span: Span) -> dict[str, float]:
    """Aggregate charged cost components over ``span`` and its subtree."""
    components: dict[str, float] = {}
    for node in span.walk():
        if node.costs:
            for component, ms in node.costs.items():
                components[component] = components.get(component, 0.0) + ms
    return components


@dataclass(slots=True)
class CostBreakdown:
    """Aggregated cost attribution for one operation kind (root span name)."""

    operation: str
    count: int = 0
    total_ms: float = 0.0
    components: dict[str, float] = field(default_factory=dict)

    @property
    def attributed_ms(self) -> float:
        return sum(self.components.values())

    @property
    def unattributed_ms(self) -> float:
        return self.total_ms - self.attributed_ms

    @property
    def coverage(self) -> float:
        """Fraction of traced time explained by cost components."""
        return self.attributed_ms / self.total_ms if self.total_ms else 1.0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count if self.count else 0.0

    def merge(self, span: Span) -> None:
        self.count += 1
        self.total_ms += span.duration_us / 1000.0
        for component, ms in profile_span(span).items():
            self.components[component] = self.components.get(component, 0.0) + ms


def profile_roots(roots: list[Span]) -> list[CostBreakdown]:
    """Fold finished root spans into per-operation breakdowns, sorted by
    total simulated time (descending)."""
    by_name: dict[str, CostBreakdown] = {}
    for root in roots:
        breakdown = by_name.get(root.name)
        if breakdown is None:
            breakdown = by_name[root.name] = CostBreakdown(root.name)
        breakdown.merge(root)
    return sorted(
        by_name.values(), key=lambda b: (-b.total_ms, b.operation)
    )


def attribution_summary(breakdowns: list[CostBreakdown]) -> tuple[float, float]:
    """(attributed_ms, total_ms) across every breakdown."""
    attributed = sum(b.attributed_ms for b in breakdowns)
    total = sum(b.total_ms for b in breakdowns)
    return attributed, total


def format_profile(breakdowns: list[CostBreakdown]) -> str:
    """Render breakdowns as the ``repro profile`` table."""
    if not breakdowns:
        return "no finished spans to profile (is tracing enabled?)"
    lines: list[str] = []
    for breakdown in breakdowns:
        lines.append(
            f"{breakdown.operation:<24s} x{breakdown.count:<6d} "
            f"total {breakdown.total_ms:10.3f}ms  "
            f"mean {breakdown.mean_ms:8.3f}ms  "
            f"attributed {100.0 * breakdown.coverage:5.1f}%"
        )
        for component, ms in sorted(
            breakdown.components.items(), key=lambda kv: -kv[1]
        ):
            share = ms / breakdown.total_ms if breakdown.total_ms else 0.0
            lines.append(
                f"    {component:<20s} {ms:10.3f}ms  {100.0 * share:5.1f}%"
            )
    attributed, total = attribution_summary(breakdowns)
    ratio = attributed / total if total else 1.0
    lines.append(
        f"attributed {attributed:.3f}ms of {total:.3f}ms traced "
        f"({100.0 * ratio:.2f}%)"
    )
    return "\n".join(lines)
