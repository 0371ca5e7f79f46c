"""Where did the simulated time go: one span-cost fold, two views.

Every clock advance in the service goes through
:meth:`~repro.core.store.LogStore.charge`, which tags the charged
milliseconds onto the innermost open span by *cost component* — ``ipc``,
``write_fixed``, ``copy``, ``timestamp``, ``entrymap_maint``,
``cache_interpret``, ``device``, ``read_fixed``.  :func:`summarize` folds
those tags back out of a group of root spans into one
:class:`CostSummary` — the live equivalent of Section 3's latency
decompositions ("a null synchronous write costs 2.0 ms: ~0.75 ms IPC,
~0.4 ms timestamp, ...").  Grouped by root-span name
(:func:`per_operation`) it explains *operations*; grouped by trace id
(:func:`per_trace`) it explains *requests*, e.g. the forests persisted by
:mod:`repro.obs.tracelog`.

Charges go only to the innermost span, so summing a subtree counts every
charged millisecond exactly once: a summary's components must account for
its busy time to within 1% (one microsecond of clock rounding per charge;
more means an uncharged code path — what the charge-discipline lint rule
exists to prevent).

A request's *busy* time is the sum of its roots' durations; its window
stretches from the first root's start to the last root's end, and the
difference is the delayed-write gap — sim time that elapsed between the
client reply and the deferred device work.  :func:`critical_path` is the
longest-child descent through each root, and :data:`LAYERS` is the one
table that says which layer of the stack a span or a cost component
belongs to; :func:`format_explanation` puts the three together as the
answer ``clio why`` prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.obs.tracing import Span

__all__ = [
    "LAYERS",
    "CostSummary",
    "PathStep",
    "summarize",
    "per_operation",
    "per_trace",
    "critical_path",
    "format_summary_line",
    "format_explanation",
]

#: layer -> (span-name prefixes, cost components), outermost layer first.
LAYERS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "ipc": (("client.",), ("ipc",)),
    "service": (
        ("append", "read", "recovery", "workload."),
        ("write_fixed", "read_fixed", "clock_resume", "workload_think"),
    ),
    "writer/reader": (("writer.", "locate"), ("timestamp", "entrymap_maint")),
    "cache": (("cache.",), ("cache_interpret",)),
    "codec": ((), ("copy",)),
    "device": (("device.",), ("device",)),
}

#: Span attributes that count work; the value is the label ``clio why`` prints.
_COUNTERS = {
    "entries_examined": "entries_examined",
    "blocks_scanned": "blocks_scanned",
    "tail_probes": "tail_probes",
    "count": "prefetched",
}


def _span_layer(name: str) -> str:
    for layer, (prefixes, _components) in LAYERS.items():
        if name.startswith(prefixes):
            return layer
    return "other"


def _component_layer(component: str) -> str:
    for layer, (_prefixes, components) in LAYERS.items():
        if component in components:
            return layer
    return "other"


def _causal(roots: Iterable[Span]) -> list[Span]:
    return sorted(roots, key=lambda r: (r.start_us, r.span_id))


@dataclass(slots=True)
class CostSummary:
    """The span-cost fold of one group of root spans: an operation kind
    (``key`` is the root-span name) or a request (``key`` is the trace id)."""

    key: str
    #: The folded roots, in causal order.
    roots: list[Span]
    #: Charged simulated milliseconds by cost component, in walk order.
    components: dict[str, float] = field(default_factory=dict)
    span_count: int = 0
    #: Spans per :data:`LAYERS` layer (by span-name prefix).
    layer_spans: dict[str, int] = field(default_factory=dict)
    #: Summed work-counting span attributes, by printed label.
    counters: dict[str, int] = field(default_factory=dict)
    error: bool = False

    @property
    def count(self) -> int:
        return len(self.roots)

    @property
    def busy_us(self) -> int:
        """Sum of root durations — what the components explain."""
        return sum(root.duration_us for root in self.roots)

    @property
    def total_ms(self) -> float:
        return self.busy_us / 1000.0

    @property
    def mean_ms(self) -> float:
        return self.total_ms / self.count

    @property
    def start_us(self) -> int:
        return self.roots[0].start_us

    @property
    def idle_us(self) -> int:
        """Window minus busy time — the delayed-write gap made visible."""
        end = max(
            root.end_us if root.end_us is not None else root.start_us
            for root in self.roots
        )
        return (end - self.start_us) - self.busy_us

    @property
    def attributed_ms(self) -> float:
        return sum(self.components.values())

    @property
    def coverage(self) -> float:
        """Attributed ms over busy ms (1.0 = fully explained)."""
        return self.attributed_ms / self.total_ms if self.total_ms else 1.0

    def ranked_components(self) -> list[tuple[str, float]]:
        """(component, ms) pairs, costliest first."""
        return sorted(self.components.items(), key=lambda kv: (-kv[1], kv[0]))

    def cost_ms(self, component: str | None = None) -> float:
        """The ranking key: busy time, or one component's charged time."""
        if component is None:
            return self.total_ms
        return self.components.get(component, 0.0)

    def layer_ms(self) -> dict[str, float]:
        """Charged milliseconds per layer, in :data:`LAYERS` order."""
        totals = dict.fromkeys(LAYERS, 0.0)
        for component, ms in self.components.items():
            layer = _component_layer(component)
            totals[layer] = totals.get(layer, 0.0) + ms
        return totals


def summarize(key: str, roots: Iterable[Span]) -> CostSummary:
    """Fold one group of root spans into a :class:`CostSummary`."""
    summary = CostSummary(key, _causal(roots))
    if not summary.roots:
        raise ValueError(f"{key!r} has no root spans to summarize")
    components = summary.components
    for root in summary.roots:
        for span in root.walk():
            summary.span_count += 1
            layer = _span_layer(span.name)
            summary.layer_spans[layer] = summary.layer_spans.get(layer, 0) + 1
            if span.costs:
                for component, ms in span.costs.items():
                    components[component] = components.get(component, 0.0) + ms
            for attribute, label in _COUNTERS.items():
                value = span.attributes.get(attribute)
                if isinstance(value, int):
                    summary.counters[label] = (
                        summary.counters.get(label, 0) + value
                    )
            if "error" in span.attributes:
                summary.error = True
    return summary


def _grouped(
    roots: Iterable[Span], key: Callable[[Span], str]
) -> list[CostSummary]:
    groups: dict[str, list[Span]] = {}
    for root in roots:
        groups.setdefault(key(root), []).append(root)
    return [summarize(name, group) for name, group in groups.items()]


def per_operation(roots: Iterable[Span]) -> list[CostSummary]:
    """One summary per root-span name, costliest operation first."""
    summaries = _grouped(roots, lambda root: root.name)
    return sorted(summaries, key=lambda s: (-s.busy_us, s.key))


def per_trace(roots: Iterable[Span]) -> list[CostSummary]:
    """One summary per trace id (hand-built spans without one group under
    ``""``), oldest request first."""
    summaries = _grouped(roots, lambda root: root.trace_id or "")
    return sorted(summaries, key=lambda s: (s.start_us, s.key))


@dataclass(frozen=True, slots=True)
class PathStep:
    """One span on a request's critical path."""

    name: str
    layer: str
    depth: int
    start_us: int
    duration_us: int
    #: Time spent in this span itself (duration minus direct children).
    self_us: int
    #: The costliest charged component of this span, or "" if uncharged.
    dominant_component: str


def critical_path(roots: Iterable[Span]) -> list[PathStep]:
    """The longest-child descent through each root, in causal order.

    Within a span the walk descends into the child with the largest
    duration (first such child on ties, so the path is deterministic).
    The result concatenates one descent per root — a multi-root trace's
    path crosses the delayed-write gap between the client-side root and
    the deferred delivery.
    """
    steps: list[PathStep] = []
    for root in _causal(roots):
        node = root
        depth = 0
        while True:
            children_us = sum(child.duration_us for child in node.children)
            charged = node.costs
            dominant = (
                max(sorted(charged), key=charged.__getitem__) if charged else ""
            )
            steps.append(
                PathStep(
                    name=node.name,
                    layer=_span_layer(node.name),
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


def format_summary_line(summary: CostSummary) -> str:
    """One request as a compact single line (the ``clio why`` listing)."""
    parts = " ".join(
        f"{component}={ms:.3f}ms"
        for component, ms in summary.ranked_components()[:3]
    )
    flags = " ERROR" if summary.error else ""
    logs = sorted(
        {
            str(root.attributes["logfile_id"])
            for root in summary.roots
            if "logfile_id" in root.attributes
        }
    )
    return (
        f"{summary.key}  log={','.join(logs) or '-'} roots={summary.count} "
        f"spans={summary.span_count} busy={summary.total_ms:.3f}ms "
        f"idle={summary.idle_us / 1000.0:.3f}ms  {parts}{flags}"
    )


def format_explanation(summary: CostSummary) -> str:
    """Why one request took the time it did: the critical path tagged by
    layer, charged time and counters per layer, and the Section-3
    component accounting with its coverage line."""
    lines = [
        f"trace {summary.key}: busy {summary.total_ms:.3f}ms"
        f" over {summary.count} root(s),"
        f" delayed-write gap {summary.idle_us / 1000.0:.3f}ms"
    ]
    lines.append("critical path:")
    for step in critical_path(summary.roots):
        dominant = (
            f" <- {step.dominant_component}" if step.dominant_component else ""
        )
        lines.append(
            f"  {step.layer:<14}{'  ' * step.depth}{step.name}  "
            f"[{step.start_us}us +{step.duration_us}us "
            f"self={step.self_us}us]{dominant}"
        )
    lines.append("layers (self time: sim time charged in the layer):")
    for layer, ms in summary.layer_ms().items():
        share = ms / summary.total_ms if summary.total_ms else 0.0
        lines.append(
            f"  {layer:<14} {ms:9.3f}ms {share * 100.0:5.1f}%  "
            f"spans={summary.layer_spans.get(layer, 0)}"
        )
    if summary.counters:
        lines.append(
            "counters: "
            + " ".join(f"{k}={v}" for k, v in sorted(summary.counters.items()))
        )
    lines.append("components:")
    for component, ms in summary.ranked_components():
        lines.append(f"  {component:<16} {ms:9.3f}ms")
    lines.append(
        f"attributed {summary.attributed_ms:.3f}ms of "
        f"{summary.total_ms:.3f}ms ({summary.coverage * 100.0:.1f}% coverage)"
    )
    return "\n".join(lines)
