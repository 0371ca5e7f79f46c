"""Command-line front end for ``clio lint``.

Exit codes follow CI conventions: 0 when there are no findings, 1 when
there are findings, 2 on a usage error (a nonexistent target path, an
unknown option).  Paths are reported relative to the working directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.engine import run_lint

__all__ = ["main"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clio lint",
        description=(
            "AST-based invariant analyzer for the Clio reproduction: "
            "simulated time, write-once encapsulation, charge discipline, "
            "the engine/plug-in seam and set-iteration order.  See "
            "docs/LINTING.md."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"clio lint: no such path: {path}", file=sys.stderr)
        return EXIT_ERROR

    result = run_lint(Path.cwd(), paths)
    for finding in result.findings:
        print(finding.render())
    print(f"{len(result.findings)} finding(s) in {result.files_checked} file(s)")
    return EXIT_FINDINGS if result.findings else EXIT_CLEAN


if __name__ == "__main__":
    sys.exit(main())
