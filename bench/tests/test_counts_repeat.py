"""Counts are a function of the seed, and nothing else.

Run with ``python -m pytest bench/tests`` (smoke operation counts).
"""

import json
import os

import pytest

from bench.harness import Sizes, run
from bench.workloads import WORKLOADS

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _contract() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_counts_other_seed_other_inputs(workload):
    first = run(workload, 11, 1, False, sizes=Sizes.smoke())
    again = run(workload, 11, 1, False, sizes=Sizes.smoke())
    other = run(workload, 12, 1, False, sizes=Sizes.smoke())

    for result in (first, again, other):
        assert result.correct, result.failures
        assert result.failed == 0
        assert result.attempted >= 1

    assert first.counts == again.counts
    assert first.fingerprint == again.fingerprint
    assert (
        first.metrics["stored_bytes_per_user_byte"]
        == again.metrics["stored_bytes_per_user_byte"]
    )
    # Another seed is another set of inputs, and it still checks out.
    assert other.fingerprint != first.fingerprint
    assert other.counts["user_bytes"] != first.counts["user_bytes"]


def test_metric_names_and_units_match_the_contract():
    contract = _contract()
    assert [item["name"] for item in contract["workloads"]] == list(WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run("tail-follow", 3, 1, trace, sizes=Sizes.smoke(trace))
        assert result.correct, result.failures
        declared = {item["name"]: item["unit"] for item in contract[key]}
        reported = {name: unit for name, (_value, unit) in result.metrics.items()}
        assert reported == declared
        assert set(json.loads(result.as_json())) == {
            "correct", "attempted", "failed", "metrics",
        }


def test_record_refuses_to_drop_recorded_seeds():
    """``expected.json`` holds seeds 1-10; recording five would lose five."""
    from bench import aa_check

    before = os.path.getmtime(os.path.join(_ROOT, "bench", "expected.json"))
    with pytest.raises(SystemExit) as refusal:
        aa_check.main(["--record", "--runs", "5"])
    assert refusal.value.code == 2
    assert os.path.getmtime(os.path.join(_ROOT, "bench", "expected.json")) == before
