"""Smoke tests: every shipped example must run cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(example):
    result = subprocess.run(
        [sys.executable, str(example)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "example produced no output"


def test_expected_examples_present():
    names = {path.stem for path in EXAMPLES}
    assert {
        "quickstart",
        "crash_recovery",
        "time_travel_fs",
        "archival_jukebox",
    } <= names
