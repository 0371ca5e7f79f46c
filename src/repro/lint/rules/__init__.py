"""The default rule set for ``clio lint``.

Twelve rules, each protecting an invariant the runtime can only catch
late or not at all; see ``docs/LINTING.md`` for the catalog with paper
references.
"""

from __future__ import annotations

from repro.lint.base import Rule
from repro.lint.rules.encoding import DeterministicJsonRule
from repro.lint.rules.hygiene import (
    ExceptionHygieneRule,
    ExportHygieneRule,
    MutableDefaultRule,
)
from repro.lint.rules.metrics import MetricsDriftRule, SpanDriftRule
from repro.lint.rules.purity import SimTimePurityRule
from repro.lint.rules.robustness import (
    DeterministicIterationRule,
    ExceptionSafetyRule,
)
from repro.lint.rules.worm import (
    ChargeDisciplineRule,
    EngineImportsRule,
    WormEncapsulationRule,
)

__all__ = [
    "DEFAULT_RULES",
    "default_rules",
    "SimTimePurityRule",
    "WormEncapsulationRule",
    "ChargeDisciplineRule",
    "EngineImportsRule",
    "ExceptionHygieneRule",
    "MutableDefaultRule",
    "ExportHygieneRule",
    "DeterministicJsonRule",
    "MetricsDriftRule",
    "SpanDriftRule",
    "ExceptionSafetyRule",
    "DeterministicIterationRule",
]

#: Rule classes, in reporting order.
DEFAULT_RULES: tuple[type[Rule], ...] = (
    SimTimePurityRule,
    WormEncapsulationRule,
    ChargeDisciplineRule,
    EngineImportsRule,
    ExceptionHygieneRule,
    MutableDefaultRule,
    ExportHygieneRule,
    DeterministicJsonRule,
    MetricsDriftRule,
    SpanDriftRule,
    ExceptionSafetyRule,
    DeterministicIterationRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every default rule."""
    return [cls() for cls in DEFAULT_RULES]
