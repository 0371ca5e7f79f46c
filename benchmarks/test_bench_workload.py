"""The year-in-the-life workload observatory as a benchmark.

Section 3's framing — "running continuously for several years" — made
concrete: the ``smoke`` profile replays live here (with its under-load
fault campaign), and the checked-in ``year`` artifact is re-validated
against the run catalog.  The headline quantities each tie to an
acceptance criterion:

* ``min_phase_coverage`` — every phase attributes >= 95% of its simulated
  time to cost components (think time is charged, never skipped);
* ``campaign_coverage`` / ``silent_misses`` — the fault menu injected
  mid-replay under load is still detected by at least one observability
  channel, fault for fault;
* ``year_sim_days`` — the cataloged year profile really spans a year.
"""

import json
import pathlib

import pytest

from repro.obs.workload import (
    COVERAGE_FLOOR,
    read_index,
    run_workload,
    verify_index,
)

from _support import bench_record, print_table

RUNS_DIR = pathlib.Path(__file__).resolve().parent / "runs"


@pytest.fixture(scope="module")
def smoke_run():
    return run_workload("smoke", menu="small")


@pytest.fixture(scope="module")
def year_record():
    path = RUNS_DIR / "year-s1987-full.json"
    assert path.exists(), "year artifact missing from benchmarks/runs"
    return json.loads(path.read_text())


@pytest.fixture(scope="module")
def measurements(smoke_run, year_record):
    headline = {
        "smoke_ops": smoke_run["run"]["ops"],
        "smoke_sim_days": smoke_run["run"]["sim_days"],
        "smoke_min_phase_coverage": smoke_run["run"]["min_phase_coverage"],
        "smoke_campaign_coverage": smoke_run["campaign"]["coverage"],
        "smoke_silent_misses": len(smoke_run["campaign"]["silent_misses"]),
        "year_ops": year_record["run"]["ops"],
        "year_sim_days": year_record["run"]["sim_days"],
        "year_min_phase_coverage": year_record["run"][
            "min_phase_coverage"
        ],
        "year_campaign_coverage": year_record["campaign"]["coverage"],
        "year_silent_misses": len(year_record["campaign"]["silent_misses"]),
        "catalog_runs": len(read_index(str(RUNS_DIR))),
    }
    bench_record("workload", headline)
    return headline


class TestWorkloadBench:
    def test_smoke_attribution_floor(self, measurements):
        assert measurements["smoke_min_phase_coverage"] >= COVERAGE_FLOOR

    def test_smoke_under_load_campaign_full_coverage(self, measurements):
        assert measurements["smoke_campaign_coverage"] == 1.0
        assert measurements["smoke_silent_misses"] == 0

    def test_year_artifact_spans_a_year(self, measurements):
        assert measurements["year_sim_days"] >= 365.0

    def test_year_attribution_floor(self, measurements):
        assert measurements["year_min_phase_coverage"] >= COVERAGE_FLOOR

    def test_year_under_load_campaign_full_coverage(self, measurements):
        assert measurements["year_campaign_coverage"] == 1.0
        assert measurements["year_silent_misses"] == 0

    def test_catalog_is_sound(self, measurements):
        assert measurements["catalog_runs"] >= 2
        assert verify_index(str(RUNS_DIR)) == []

    def test_print_table(self, measurements, year_record):
        rows = [
            [
                phase["name"],
                phase["kind"],
                phase["ops"],
                f"{phase['attribution']['coverage']:.4f}",
                f"{phase['sim_ms'] / 86_400_000.0:.2f}",
            ]
            for phase in year_record["phases"]
        ]
        print_table(
            "Year-in-the-life phases (checked-in artifact)",
            ["phase", "kind", "ops", "attribution", "sim days"],
            rows,
        )


class TestWorkloadWallclock:
    def test_smoke_profile_wallclock(self, benchmark):
        benchmark(lambda: run_workload("smoke"))
