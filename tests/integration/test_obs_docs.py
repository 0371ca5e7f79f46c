"""docs/OBSERVABILITY.md cannot drift from the code: its verb table from
``repro.cli.build_parser()``, its metric catalog from the live registry,
its span-name catalog from the ``.span("...")`` names the source opens."""

import re
from pathlib import Path

from repro.cli import operator_verbs
from repro.core.service import LogService

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "docs" / "OBSERVABILITY.md"


def doc_section(heading: str, doc: str | None = None) -> str:
    """The text under ``heading`` in ``doc`` (by default the file), up to
    the next heading of its level."""
    body = (doc or DOC.read_text()).split(heading + "\n")[1]
    return body.split("\n" + heading.split()[0] + " ")[0]


def documented_verbs() -> dict[str, list[str]]:
    """``{"trace show": ["store", "trace_id", "--format"], ...}`` from the
    rows of the "Operator verbs and flags" table."""
    verbs = {}
    for row in doc_section("## Operator verbs and flags").splitlines():
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
    questions = doc_section("## The questions").splitlines()
    rows = [row for row in questions if row.startswith("| Q")]
    assert 7 <= len(rows) <= 10
    known = set(operator_verbs()) | {"campaign run", "workload run"}
    for row in rows:
        asked = re.findall(r"`clio ([a-z]+(?: (?:live|show|run))?)", row)
        assert asked, row
        assert set(asked) <= known, row


def metric_drift(doc: str, live: set[str]) -> set[str]:
    """Family names in the doc's metric catalog or in ``live``, not both."""
    catalog = doc_section("## Metric catalog", doc)
    return set(re.findall(r"\bclio_[a-z0-9_]*[a-z0-9]\b", catalog)) ^ live


def span_drift(doc: str, sources: list[str]) -> set[str]:
    """Quoted span names in the doc's span-name catalog or opened by
    ``sources``, not both. A ``.span(`` whose first argument is not a
    literal contributes that expression's first character, so it is
    drift too."""
    opened = set()
    for source in sources:
        opened |= set(re.findall(r'\.span\(\s*("[^"]*"|[^\s)])', source))
    catalog = doc_section("### Span-name catalog", doc)
    declared = re.findall(r"^\| `([^`]+)` \|", catalog, re.M)
    return opened ^ {f'"{name}"' for name in declared}


def test_metric_catalog_matches_the_live_registry():
    service = LogService.create()
    service.enable_observability()
    live = {family.name for family in service.metrics.collect()}
    assert metric_drift(DOC.read_text(), live) == set()


def test_span_catalog_matches_the_spans_the_source_opens():
    sources = (ROOT / "src" / "repro").rglob("*.py")
    texts = [path.read_text() for path in sources]
    assert span_drift(DOC.read_text(), texts) == set()
