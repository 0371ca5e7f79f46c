"""The analyzer's acceptance bar: the repository lints itself clean.

``clio lint src/repro`` must exit 0 — every invariant the rules encode
actually holds in the code as written.
"""

from pathlib import Path

from repro.lint.engine import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_src_repro_is_lint_clean():
    result = run_lint(REPO_ROOT, [REPO_ROOT / "src" / "repro"])
    assert [f.render() for f in result.findings] == []
    # Sanity: the run really covered the service stack, not an empty dir.
    assert result.files_checked > 50
