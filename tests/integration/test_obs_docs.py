"""docs/OBSERVABILITY.md's verb table and ``repro.cli.build_parser()``
cannot drift: a verb or argument in one and not the other fails here."""

import re
from pathlib import Path

from repro.cli import operator_verbs

DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def documented_verbs() -> dict[str, list[str]]:
    """``{"trace show": ["store", "trace_id", "--format"], ...}`` from the
    rows of the "Operator verbs and flags" table."""
    section = DOC.read_text().split("## Operator verbs and flags")[1]
    section = section.split("\n## ")[0]
    verbs = {}
    for row in section.splitlines():
        cells = [cell.strip() for cell in row.strip().strip("|").split("|")]
        match = re.fullmatch(r"`clio ([a-z ]+)`", cells[0])
        if match:
            verbs[match.group(1)] = re.findall(r"`([^`]+)`", cells[1])
    return verbs


def test_verb_table_matches_the_parser():
    assert documented_verbs() == operator_verbs()


def test_operator_verb_budget():
    """ISSUE 23's acceptance bar: at most six operator verbs, `why` among
    them, and fewer arguments than the 33 the eight old verbs took."""
    verbs = operator_verbs()
    assert "why" in verbs and len(verbs) <= 6
    assert sum(len(arguments) for arguments in verbs.values()) < 33


def test_every_question_names_a_surviving_command():
    questions = DOC.read_text().split("## The questions")[1].split("\n## ")[0]
    rows = [row for row in questions.splitlines() if row.startswith("| Q")]
    assert 7 <= len(rows) <= 10
    known = set(operator_verbs()) | {"campaign run", "workload run"}
    for row in rows:
        asked = re.findall(r"`clio ([a-z]+(?: (?:live|show|run))?)", row)
        assert asked, row
        assert set(asked) <= known, row
