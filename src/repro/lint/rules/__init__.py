"""The default rule set for ``clio lint``.

Five rules, each guarding a paper or seam invariant that no runtime gate
sees before a change ships; see ``docs/LINTING.md`` for the catalog and
for the retired rules and the gates that took them over.
"""

from __future__ import annotations

from repro.lint.base import Rule
from repro.lint.rules.iteration import DeterministicIterationRule
from repro.lint.rules.purity import SimTimePurityRule
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
    "DeterministicIterationRule",
]

#: Rule classes, in reporting order.
DEFAULT_RULES: tuple[type[Rule], ...] = (
    SimTimePurityRule,
    WormEncapsulationRule,
    ChargeDisciplineRule,
    EngineImportsRule,
    DeterministicIterationRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every default rule."""
    return [cls() for cls in DEFAULT_RULES]
