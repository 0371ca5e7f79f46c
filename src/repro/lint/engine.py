"""The lint engine: discovery, parsing, rule dispatch, filtering.

The engine walks the target paths, parses every ``*.py`` file once, runs
each per-file rule over each :class:`FileContext` and each project rule
over the whole :class:`ProjectContext`, then applies suppression comments
and occurrence numbering.  Baseline subtraction is the CLI's job — the
engine always reports everything it sees.
"""

from __future__ import annotations

import ast
import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.base import (
    FileContext,
    Finding,
    ProjectContext,
    ProjectRule,
    Rule,
    parse_suppressions,
)
from repro.lint.rules import default_rules

__all__ = ["LintResult", "run_lint", "discover_files"]

#: Directories never descended into.
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".hypothesis", "node_modules"})

#: Rule name used for files that do not parse.
PARSE_ERROR_RULE = "parse-error"


@dataclass(slots=True)
class LintResult:
    """What one lint run saw."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Findings suppressed by ``# clio-lint: disable`` comments.
    suppressed: int = 0


def discover_files(paths: list[Path]) -> list[Path]:
    """All ``*.py`` files under ``paths`` (files pass through), sorted."""
    found: set[Path] = set()
    for path in paths:
        if path.is_file():
            found.add(path.resolve())
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if any(part in _SKIP_DIRS for part in candidate.parts):
                    continue
                found.add(candidate.resolve())
    return sorted(found)


def _relpath(path: Path, root: Path) -> str:
    try:
        return path.relative_to(root).as_posix()
    except ValueError:
        return path.as_posix()


def _load(path: Path, root: Path) -> tuple[FileContext | None, Finding | None]:
    relpath = _relpath(path, root)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return None, Finding(
            rule=PARSE_ERROR_RULE,
            path=relpath,
            line=exc.lineno or 1,
            message=f"file does not parse: {exc.msg}",
        )
    except (UnicodeDecodeError, ValueError, OSError) as exc:
        # Undecodable bytes, NUL bytes, unreadable file: one finding, not
        # a crashed run — the other files still get checked.
        return None, Finding(
            rule=PARSE_ERROR_RULE,
            path=relpath,
            line=1,
            message=f"file cannot be read as Python source: {exc}",
        )
    lines = source.splitlines()
    per_line, whole_file = parse_suppressions(lines)
    return (
        FileContext(
            path=path,
            relpath=relpath,
            tree=tree,
            source=source,
            lines=lines,
            suppressed_lines=per_line,
            suppressed_file=whole_file,
        ),
        None,
    )


def _number_occurrences(findings: list[Finding]) -> list[Finding]:
    """Assign occurrence indices so fingerprints of repeated identical
    lines stay distinct and stable (ordered by line number)."""
    counts: dict[tuple[str, str, str], int] = {}
    numbered: list[Finding] = []
    for finding in sorted(
        findings, key=lambda f: (f.path, f.line, f.rule, f.message)
    ):
        key = (finding.rule, finding.path, finding.line_text)
        index = counts.get(key, 0)
        counts[key] = index + 1
        numbered.append(
            finding
            if finding.occurrence == index
            else dataclasses.replace(finding, occurrence=index)
        )
    return numbered


def run_lint(
    root: Path,
    paths: list[Path],
    rules: list[Rule] | None = None,
) -> LintResult:
    """Lint every ``*.py`` file under ``paths``.

    ``root`` anchors relative paths in findings and is where project rules
    look for non-Python companions (``docs/OBSERVABILITY.md``).
    """
    active = default_rules() if rules is None else rules
    result = LintResult()
    contexts: list[FileContext] = []
    raw: list[Finding] = []

    for path in discover_files(paths):
        ctx, parse_error = _load(path, root)
        result.files_checked += 1
        if parse_error is not None:
            raw.append(parse_error)
            continue
        assert ctx is not None
        contexts.append(ctx)
        for rule in active:
            raw.extend(rule.check(ctx))

    project = ProjectContext(root=root, files=contexts)
    for rule in active:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project))

    by_path = {ctx.relpath: ctx for ctx in contexts}
    kept: list[Finding] = []
    for finding in raw:
        ctx = by_path.get(finding.path)
        if ctx is not None and ctx.is_suppressed(finding.rule, finding.line):
            result.suppressed += 1
            continue
        kept.append(finding)

    result.findings = _number_occurrences(kept)
    return result
