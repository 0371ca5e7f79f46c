"""``clio lint`` — an AST-based invariant analyzer for the reproduction.

The runtime enforces the paper's contracts late (a ``WriteOnceViolation``
at write time) or not at all (a wall-clock read silently de-determinizes
every benchmark).  This package enforces the ones no runtime gate sees
before a change ships *statically*: a dependency-free analyzer built on
:mod:`ast`, with per-file rules, one cross-file pass and a text report.
See ``docs/LINTING.md`` for the rule catalog.
"""

from __future__ import annotations

from repro.lint.base import FileContext, Finding, ProjectRule, Rule
from repro.lint.engine import LintResult, run_lint
from repro.lint.rules import DEFAULT_RULES, default_rules

__all__ = [
    "Finding",
    "FileContext",
    "Rule",
    "ProjectRule",
    "LintResult",
    "run_lint",
    "DEFAULT_RULES",
    "default_rules",
]
