"""Core abstractions for ``clio lint``: findings, rules, and contexts.

The analyzer is dependency-free: every rule is a pure function of a parsed
``ast`` tree (per-file rules) or of all parsed trees (project rules).
Rules never import the code under analysis — the invariants they enforce
(write-once storage, simulated time, the Section-3 cost model) must hold
*before* the code is ever executed.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

__all__ = ["Finding", "FileContext", "Rule", "ProjectRule"]


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: project-relative POSIX path
    line: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


@dataclass(slots=True)
class FileContext:
    """Everything a per-file rule may consult about one module."""

    relpath: str  #: POSIX path relative to the project root
    tree: ast.Module

    @property
    def parts(self) -> tuple[str, ...]:
        """Path components of :attr:`relpath` (for package scoping)."""
        return tuple(self.relpath.split("/"))

    def in_package(self, *segments: str) -> bool:
        """True if the file lives under a directory named ``segments[0]``
        followed by ``segments[1:]`` anywhere in its relative path."""
        parts = self.parts[:-1]  # directories only
        n = len(segments)
        return any(
            parts[i : i + n] == segments for i in range(len(parts) - n + 1)
        )

    def finding(self, rule: str, node_or_line: ast.AST | int, message: str) -> Finding:
        line = (
            node_or_line
            if isinstance(node_or_line, int)
            else getattr(node_or_line, "lineno", 1)
        )
        return Finding(rule=rule, path=self.relpath, line=line, message=message)


class Rule:
    """A per-file pass.  Subclasses set :attr:`name` and implement
    :meth:`check`, returning every violation they see."""

    name: str = ""

    def check(self, ctx: FileContext) -> list[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A cross-file pass, run once over every parsed file."""

    def check(self, ctx: FileContext) -> list[Finding]:
        return []

    def check_project(self, files: list[FileContext]) -> list[Finding]:
        raise NotImplementedError
