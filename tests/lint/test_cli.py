"""The ``clio lint`` command line: exit codes, the text report, and the
hand-off from the ``clio`` parser."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main as clio_main
from repro.lint.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


CLEAN = """\
    def answer():
        return 42
    """

DIRTY = """\
    import time

    STARTED = time.time()
    """


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "pkg/mod.py", CLEAN)
        assert main(["pkg"]) == EXIT_CLEAN
        assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "pkg/mod.py", DIRTY)
        assert main(["pkg"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "pkg/mod.py:3: [sim-time]" in out
        assert "1 finding(s) in 1 file(s)" in out

    def test_missing_path_exits_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["nowhere"]) == EXIT_ERROR
        assert "no such path" in capsys.readouterr().err


class TestClioSubcommand:
    def test_lint_is_wired_into_the_clio_cli(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "pkg/mod.py", DIRTY)
        assert clio_main(["lint", "pkg"]) == 1
        assert "[sim-time]" in capsys.readouterr().out
        write(tmp_path, "pkg/mod.py", CLEAN)
        assert clio_main(["lint", "pkg"]) == 0

    def test_remainder_starting_with_an_option_reaches_the_linter(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            clio_main(["lint", "--help"])
        assert exit_info.value.code == 0
        assert "usage: clio lint" in capsys.readouterr().out
        # The linter's own parser rejects options it does not have: a usage
        # error, exit 2.
        with pytest.raises(SystemExit) as exit_info:
            clio_main(["lint", "--format", "json", "src"])
        assert exit_info.value.code == EXIT_ERROR
        assert "usage: clio lint" in capsys.readouterr().err

    def test_only_the_lint_verb_imports_the_linter(self):
        """Every ``clio append``/``cat`` is a cold process: building the
        parser must not pay for the analyzer's engine and rule modules."""
        code = (
            "import sys, repro.cli; repro.cli.build_parser(); "
            "print([m for m in sys.modules if m.startswith('repro.lint')])"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert proc.stdout.strip() == "[]"
