"""The ``clio lint`` command line: exit codes, output formats, the
baseline workflow, and ``--changed`` scoping."""

import json
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
    __all__ = ["answer"]


    def answer():
        return 42
    """

DIRTY = """\
    import time

    __all__ = []
    STARTED = time.time()
    """


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        write(tmp_path, "pkg/mod.py", CLEAN)
        assert main(["--root", str(tmp_path), "pkg"]) == EXIT_CLEAN
        assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        write(tmp_path, "pkg/mod.py", DIRTY)
        assert main(["--root", str(tmp_path), "pkg"]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "[sim-time]" in out
        assert "pkg/mod.py:4" in out

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path), "nowhere"]) == EXIT_ERROR
        assert "no such path" in capsys.readouterr().err

    def test_corrupt_baseline_exits_two(self, tmp_path, capsys):
        write(tmp_path, "pkg/mod.py", CLEAN)
        (tmp_path / ".clio-lint-baseline.json").write_text("[]")
        assert main(["--root", str(tmp_path), "pkg"]) == EXIT_ERROR

    def test_list_rules_names_every_rule(self, tmp_path, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in (
            "sim-time",
            "worm-encapsulation",
            "charge-discipline",
            "engine-imports",
            "bare-except",
            "mutable-default",
            "export-hygiene",
            "nondeterministic-json",
            "metrics-drift",
            "span-drift",
            "exception-safety",
            "deterministic-iteration",
        ):
            assert rule in out
        # One two-line entry per rule: the twelve above and no others.
        assert len([l for l in out.splitlines() if not l.startswith(" ")]) == 12


class TestBaselineWorkflow:
    def test_write_baseline_then_rerun_is_clean(self, tmp_path, capsys):
        write(tmp_path, "pkg/mod.py", DIRTY)
        argv = ["--root", str(tmp_path), "pkg"]
        assert main(argv) == EXIT_FINDINGS
        assert main(argv + ["--write-baseline"]) == EXIT_CLEAN
        capsys.readouterr()

        assert main(argv) == EXIT_CLEAN
        assert "baselined" in capsys.readouterr().out
        # New violations still fail even with the old ones baselined.
        write(tmp_path, "pkg/new.py", DIRTY)
        assert main(argv) == EXIT_FINDINGS
        # --no-baseline reports everything again.
        assert main(argv + ["--no-baseline"]) == EXIT_FINDINGS


class TestOutputFormats:
    def test_json_document_structure(self, tmp_path, capsys):
        write(tmp_path, "pkg/mod.py", DIRTY)
        assert main(["--root", str(tmp_path), "pkg", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["tool"] == "clio-lint"
        assert document["files_checked"] == 1
        rules = {f["rule"] for f in document["findings"]}
        assert "sim-time" in rules
        for finding in document["findings"]:
            assert set(finding) == {
                "rule", "path", "line", "severity", "message", "fingerprint",
            }

    def test_sarif_document_structure(self, tmp_path, capsys):
        write(tmp_path, "pkg/mod.py", DIRTY)
        assert main(["--root", str(tmp_path), "pkg", "--format", "sarif"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == "2.1.0"
        driver = document["runs"][0]["tool"]["driver"]
        assert driver["name"] == "clio-lint"
        assert len(driver["rules"]) == 12
        results = document["runs"][0]["results"]
        assert results
        for entry in results:
            location = entry["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"].startswith("pkg/")
            assert entry["partialFingerprints"]["clioLint/v1"]

    def test_sarif_on_clean_tree_has_empty_results(self, tmp_path, capsys):
        write(tmp_path, "pkg/mod.py", CLEAN)
        assert main(["--root", str(tmp_path), "pkg", "--format", "sarif"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"] == []


def git(root, *argv):
    subprocess.run(
        ["git", "-c", "user.email=lint@test", "-c", "user.name=lint", *argv],
        cwd=root,
        check=True,
        capture_output=True,
    )


class TestChangedFlag:
    def make_repo(self, tmp_path):
        write(tmp_path, "pkg/clean.py", CLEAN)
        write(tmp_path, "pkg/dirty.py", DIRTY)
        git(tmp_path, "init", "-q")
        git(tmp_path, "add", ".")
        git(tmp_path, "commit", "-q", "-m", "seed")

    def test_only_changed_files_are_linted(self, tmp_path, capsys):
        self.make_repo(tmp_path)
        argv = ["--root", str(tmp_path), "pkg", "--changed", "--no-baseline"]
        # Nothing changed since HEAD: clean exit without linting dirty.py.
        assert main(argv) == EXIT_CLEAN
        assert "no changed Python files" in capsys.readouterr().out

        # Touch only the clean file: one file linted, still clean.
        (tmp_path / "pkg/clean.py").write_text(
            textwrap.dedent(CLEAN) + "\n\nEXTRA = answer()\n"
        )
        assert main(argv) == EXIT_CLEAN
        assert "in 1 file(s)" in capsys.readouterr().out

        # An untracked dirty file is picked up too.
        write(tmp_path, "pkg/fresh.py", DIRTY)
        assert main(argv) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "in 2 file(s)" in out
        assert "pkg/fresh.py" in out

    def test_changes_outside_the_requested_paths_are_ignored(
        self, tmp_path, capsys
    ):
        self.make_repo(tmp_path)
        write(tmp_path, "elsewhere/out.py", DIRTY)
        argv = ["--root", str(tmp_path), "pkg", "--changed", "--no-baseline"]
        assert main(argv) == EXIT_CLEAN
        assert "no changed Python files" in capsys.readouterr().out

    def test_without_git_repo_exits_two(self, tmp_path, capsys):
        write(tmp_path, "pkg/mod.py", CLEAN)
        argv = ["--root", str(tmp_path), "pkg", "--changed"]
        assert main(argv) == EXIT_ERROR
        assert "--changed needs git" in capsys.readouterr().err

    def test_whole_program_rules_are_skipped_under_changed(
        self, tmp_path, capsys
    ):
        self.make_repo(tmp_path)
        # A partial view of core/ cannot tell whether a primitive charges
        # somewhere outside the selection, so the project rules must not
        # run: a file that charge-discipline flags on a full pass stays
        # quiet under --changed.
        write(
            tmp_path,
            "core/dev.py",
            """\
            __all__ = ["FlatDevice"]


            class FlatDevice:
                def __init__(self) -> None:
                    self._data = {}

                def read_block(self, block):
                    return self._data[block]
            """,
        )
        full = ["--root", str(tmp_path), "core", "--no-baseline"]
        assert main(full) == EXIT_FINDINGS
        assert "[charge-discipline]" in capsys.readouterr().out
        assert main(full + ["--changed"]) == EXIT_CLEAN
        assert "in 1 file(s)" in capsys.readouterr().out


class TestClioSubcommand:
    def test_lint_is_wired_into_the_clio_cli(self, tmp_path, capsys):
        write(tmp_path, "pkg/mod.py", DIRTY)
        assert clio_main(["lint", "--root", str(tmp_path), "pkg"]) == 1
        assert "[sim-time]" in capsys.readouterr().out
        write(tmp_path, "pkg/mod.py", CLEAN)
        assert clio_main(["lint", "--root", str(tmp_path), "pkg"]) == 0

    def test_remainder_starting_with_an_option_reaches_the_linter(
        self, tmp_path, capsys
    ):
        assert clio_main(["lint", "--list-rules"]) == 0
        assert "deterministic-iteration" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exit_info:
            clio_main(["lint", "--help"])
        assert exit_info.value.code == 0
        assert "usage: clio lint" in capsys.readouterr().out
        write(tmp_path, "pkg/mod.py", CLEAN)
        argv = ["lint", "--format", "sarif", "--root", str(tmp_path), "pkg"]
        assert clio_main(argv) == 0
        assert json.loads(capsys.readouterr().out)["version"] == "2.1.0"

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
