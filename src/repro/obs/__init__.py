"""Observability plug-in: metrics, sim-time traces, events, SLO alerts.

The engine never imports this package; ``LogService.enable_observability``
loads :mod:`repro.obs.wiring`, which fills the engine's instrumentation
slots (``repro/vsystem/instrument.py``).  ``docs/OBSERVABILITY.md`` lists
the questions the package answers and what reads each surface.  The names
below are the ones ``README.md``, ``examples/`` and ``docs/API.md`` use;
everything else is imported from its module (``repro.obs.critical_path``,
``repro.obs.campaign``, ``repro.obs.workload``, ...).
"""

from repro.obs.events import (
    NULL_JOURNAL,
    Event,
    EventJournal,
    EventLog,
    NullJournal,
)
from repro.obs.export import json_snapshot, prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import AlertLog, SloEngine, default_ruleset
from repro.obs.tracelog import TraceLog
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanTracer,
    TraceContext,
    format_span_tree,
)

__all__ = [
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "TraceContext",
    "NullTracer",
    "NULL_TRACER",
    "format_span_tree",
    "TraceLog",
    "prometheus_text",
    "json_snapshot",
    "Event",
    "EventJournal",
    "NullJournal",
    "NULL_JOURNAL",
    "EventLog",
    "AlertLog",
    "SloEngine",
    "default_ruleset",
]
