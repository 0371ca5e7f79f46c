"""Exporters: Prometheus text exposition and JSON snapshots.

``prometheus_text`` renders a registry in the Prometheus text exposition
format (version 0.0.4) — the format every scrape-based monitoring stack
understands (``clio stats --format prometheus``);
``json_snapshot`` is the structured form ``clio stats --format json`` prints.
"""

from __future__ import annotations

import math
from typing import Any, Iterable

from repro.obs.registry import HistogramValue, MetricFamily, MetricsRegistry

__all__ = ["prometheus_text", "json_snapshot"]


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Iterable[tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"' for name, value in labels
    )
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (0.0.4)."""
    lines: list[str] = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, value in family.samples:
            if isinstance(value, HistogramValue):
                for bound, cumulative in value.buckets:
                    le = "+Inf" if bound == math.inf else _format_value(bound)
                    bucket_labels = labels + (("le", le),)
                    lines.append(
                        f"{family.name}_bucket{_render_labels(bucket_labels)} "
                        f"{cumulative}"
                    )
                lines.append(
                    f"{family.name}_sum{_render_labels(labels)} "
                    f"{_format_value(value.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_render_labels(labels)} {value.count}"
                )
            else:
                assert isinstance(value, (int, float))
                lines.append(
                    f"{family.name}{_render_labels(labels)} "
                    f"{_format_value(value)}"
                )
    return "\n".join(lines) + "\n"


def _family_dict(family: MetricFamily) -> dict[str, Any]:
    samples = []
    for labels, value in family.samples:
        sample: dict[str, Any] = {"labels": dict(labels)}
        if isinstance(value, HistogramValue):
            sample["buckets"] = [
                {
                    "le": ("+Inf" if bound == math.inf else bound),
                    "count": cumulative,
                }
                for bound, cumulative in value.buckets
            ]
            sample["sum"] = value.sum
            sample["count"] = value.count
        else:
            sample["value"] = value
        samples.append(sample)
    return {
        "name": family.name,
        "help": family.help,
        "kind": family.kind,
        "samples": samples,
    }


def json_snapshot(registry: MetricsRegistry) -> dict[str, Any]:
    """A JSON-serializable snapshot of every family in the registry."""
    return {"families": [_family_dict(f) for f in registry.collect()]}
