"""Command-line front end for ``clio lint``.

Exit codes follow CI conventions: 0 when no new findings, 1 when new
findings exist, 2 on usage or internal errors (unreadable baseline,
nonexistent target).
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from repro.lint.base import ProjectRule
from repro.lint.baseline import (
    DEFAULT_BASELINE_NAME,
    load_baseline,
    write_baseline,
)
from repro.lint.engine import run_lint
from repro.lint.output import render_json, render_sarif, render_text
from repro.lint.rules import default_rules

__all__ = ["run", "main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clio lint",
        description=(
            "AST-based invariant analyzer for the Clio reproduction: "
            "write-once encapsulation, sim-time purity, charge discipline, "
            "and friends.  See docs/LINTING.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="project root for relative paths and docs lookups (default: .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"baseline file (default: ROOT/{DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the accepted baseline and exit 0",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help=(
            "lint only files changed vs git HEAD (plus untracked files) "
            "under the requested paths; whole-program rules are skipped "
            "(they need the full tree), so run a full pass before merging"
        ),
    )
    return parser


def _changed_paths(root: Path, requested: list[Path]) -> list[Path]:
    """Python files changed vs HEAD (tracked) or untracked, restricted to
    the requested paths.  Raises on git failure (not a repo, no git)."""
    names: set[str] = set()
    for argv in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        proc = subprocess.run(
            argv,
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        )
        names.update(line.strip() for line in proc.stdout.splitlines())

    scopes = [p.resolve() for p in requested]
    selected: list[Path] = []
    for name in sorted(names):
        if not name.endswith(".py"):
            continue
        path = (root / name).resolve()
        if not path.is_file():
            continue  # deleted in the working tree
        for scope in scopes:
            if path == scope or scope in path.parents:
                selected.append(path)
                break
    return selected


def run(args: argparse.Namespace) -> int:
    """Execute a lint invocation from parsed arguments."""
    rules = default_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.name:24s} {rule.description}")
            if rule.paper_section:
                print(f"{'':24s} paper: {rule.paper_section}")
        return EXIT_CLEAN

    root = Path(args.root).resolve()
    paths = [Path(p) if Path(p).is_absolute() else root / p for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"clio lint: no such path: {path}", file=sys.stderr)
        return EXIT_ERROR

    if args.changed:
        try:
            paths = _changed_paths(root, paths)
        except (OSError, subprocess.CalledProcessError) as exc:
            print(f"clio lint: --changed needs git: {exc}", file=sys.stderr)
            return EXIT_ERROR
        if not paths:
            print("0 finding(s): no changed Python files")
            return EXIT_CLEAN
        # Whole-program rules over a partial file set would misjudge (a
        # definition outside the selection looks like it does not exist).
        rules = [rule for rule in rules if not isinstance(rule, ProjectRule)]

    result = run_lint(root, paths, rules)

    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else root / DEFAULT_BASELINE_NAME
    )
    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        print(
            f"wrote baseline with {len(result.findings)} finding(s) to "
            f"{baseline_path}"
        )
        return EXIT_CLEAN

    accepted: set[str] = set()
    if not args.no_baseline:
        try:
            accepted = load_baseline(baseline_path)
        except (ValueError, OSError) as exc:
            print(f"clio lint: {exc}", file=sys.stderr)
            return EXIT_ERROR
    new_findings = [
        finding
        for finding in result.findings
        if finding.fingerprint not in accepted
    ]

    if args.format == "json":
        print(render_json(result, new_findings))
    elif args.format == "sarif":
        print(render_sarif(result, new_findings, rules))
    else:
        print(render_text(result, new_findings))
    return EXIT_FINDINGS if new_findings else EXIT_CLEAN


def main(argv: list[str] | None = None) -> int:
    return run(_build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
