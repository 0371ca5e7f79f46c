"""The lint engine: discovery, parsing, rule dispatch.

The engine walks the target paths, parses every ``*.py`` file once, runs
each per-file rule over each :class:`FileContext` and each project rule
over all of them, and reports every finding it sees, sorted.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.base import FileContext, Finding, ProjectRule, Rule
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


def _load(path: Path, root: Path) -> FileContext | Finding:
    """The parsed file, or a parse-error finding for it."""
    relpath = _relpath(path, root)
    try:
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return Finding(
            rule=PARSE_ERROR_RULE,
            path=relpath,
            line=exc.lineno or 1,
            message=f"file does not parse: {exc.msg}",
        )
    except (UnicodeDecodeError, ValueError, OSError) as exc:
        # Undecodable bytes, NUL bytes, unreadable file: one finding, not
        # a crashed run — the other files still get checked.
        return Finding(
            rule=PARSE_ERROR_RULE,
            path=relpath,
            line=1,
            message=f"file cannot be read as Python source: {exc}",
        )
    return FileContext(relpath=relpath, tree=tree)


def run_lint(
    root: Path,
    paths: list[Path],
    rules: list[Rule] | None = None,
) -> LintResult:
    """Lint every ``*.py`` file under ``paths``; ``root`` anchors the
    relative paths that findings report and rules scope by."""
    active = default_rules() if rules is None else rules
    result = LintResult()
    contexts: list[FileContext] = []

    for path in discover_files(paths):
        loaded = _load(path, root)
        result.files_checked += 1
        if isinstance(loaded, Finding):
            result.findings.append(loaded)
            continue
        contexts.append(loaded)
        for rule in active:
            result.findings.extend(rule.check(loaded))

    for rule in active:
        if isinstance(rule, ProjectRule):
            result.findings.extend(rule.check_project(contexts))

    result.findings.sort(key=lambda f: (f.path, f.line, f.rule, f.message))
    return result
