"""The year-in-the-life workload observatory: long-horizon phased replay,
per-phase sim-time attribution, SLO alerting over long runs, the run
catalog, and fault campaigns under load.

The harness's contract (docs/WORKLOADS.md):

* two runs of the same profile produce byte-identical artifacts;
* every phase attributes >= 95% of its simulated time to cost components
  (think time included — gaps are charged, never skipped);
* the under-load fault campaign re-proves the silent-miss gate with
  injections fired mid-replay rather than on idle drives;
* the ``benchmarks/runs`` catalog's index rows hash-match the artifacts.
"""

import json
import pathlib
from types import SimpleNamespace

import pytest

from repro.core.service import LogService
from repro.obs import workload
from repro.obs.canonical import canonical_json
from repro.obs.slo import AlertLog, SloEngine, ThresholdRule
from repro.obs.workload import (
    COVERAGE_FLOOR,
    Phase,
    Profile,
    _replay,
    artifact_sha256,
    builtin_profiles,
    get_profile,
    read_index,
    register_run,
    run_under_load_campaign,
    run_workload,
    verify_index,
)

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
RUNS_DIR = REPO_ROOT / "benchmarks" / "runs"


@pytest.fixture(scope="module")
def smoke_run():
    return run_workload("smoke", menu="small")


class TestProfiles:
    def test_builtin_profiles_include_smoke_and_year(self):
        profiles = builtin_profiles()
        assert {"smoke", "year"} <= set(profiles)
        for profile in profiles.values():
            assert profile.phases

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            get_profile("decade")

    def test_phase_param_lookup(self):
        phase = Phase("p", "bursty", 10, (("burst", 5), ("gap_us", 7)))
        assert phase.param("burst") == 5
        assert phase.int_param("gap_us") == 7
        with pytest.raises(KeyError, match="missing"):
            phase.param("missing")

    def test_year_profile_schedule_spans_a_year(self):
        # Static schedule check (the live replay is exercised against the
        # checked-in artifact below): summed think gaps alone must cover
        # 365 simulated days.
        year = get_profile("year")
        total_us = 0
        for phase in year.phases:
            if phase.kind == "bursty":
                burst = phase.int_param("burst")
                inter = phase.int_param("inter_gap_us")
                intra = phase.int_param("intra_gap_us")
                bursts = phase.ops // burst - 1
                total_us += bursts * inter + (phase.ops - bursts) * intra
            elif phase.kind == "diurnal":
                day_ops = phase.int_param("day_ops")
                nights = phase.ops // day_ops - 1
                total_us += nights * phase.int_param("night_gap_us")
                total_us += (phase.ops - nights) * phase.int_param("day_gap_us")
            elif phase.kind in ("mixed", "multi_tenant"):
                total_us += phase.ops * phase.int_param("gap_us")
            elif phase.kind == "filetrace":
                total_us += phase.ops * phase.int_param("mean_interarrival_us")
        assert total_us >= 365 * 24 * 60 * 60 * 1_000_000


class TestSmokeRun:
    def test_run_passes_every_gate(self, smoke_run):
        assert smoke_run["run"]["passed"], smoke_run["run"]["failures"]
        assert smoke_run["run"]["failures"] == []

    def test_every_phase_attributes_95_percent(self, smoke_run):
        record = smoke_run
        assert record["phases"]
        for phase in record["phases"]:
            assert phase["attribution"]["coverage"] >= COVERAGE_FLOOR, (
                f"phase {phase['name']} attribution "
                f"{phase['attribution']['coverage']}"
            )

    def test_think_time_is_charged_not_skipped(self, smoke_run):
        # The harness advances the clock only via charge_us, so think time
        # appears as the workload_think component inside each phase span.
        for phase in smoke_run["phases"]:
            if phase["think_us"] > 0:
                components = phase["attribution"]["components"]
                assert components["workload_think"] == pytest.approx(
                    phase["think_us"] / 1000.0, rel=1e-9
                )

    def test_phase_registry_picks_are_monotonic(self, smoke_run):
        phases = smoke_run["phases"]
        for earlier, later in zip(phases, phases[1:]):
            for name in (
                "clio_writer_client_entries_total",
                "clio_sim_clock_ms",
            ):
                assert later["registry"][name] >= earlier["registry"][name]

    def test_unknown_registry_pick_raises(self, monkeypatch):
        # A renamed or removed family must fail the run, not record -1.0.
        picks = (*workload._REGISTRY_PICKS, "clio_gone_total")
        monkeypatch.setattr(workload, "_REGISTRY_PICKS", picks)
        with pytest.raises(ValueError, match="clio_gone_total"):
            workload._registry_picks(LogService.create())

    def test_alert_log_read_back_matches_timeline(self, smoke_run):
        alerts = smoke_run["alerts"]
        assert alerts["readback_ok"]
        assert alerts["persisted"] == len(alerts["timeline"])

    def test_artifact_is_byte_identical_across_runs(self, smoke_run):
        assert canonical_json(run_workload("smoke", menu="small")) == (
            canonical_json(smoke_run)
        )

    def test_artifact_round_trips_through_json(self, smoke_run):
        decoded = json.loads(canonical_json(smoke_run))
        assert decoded == smoke_run

    def test_encode_is_sorted_and_compact(self, smoke_run):
        encoded = canonical_json(smoke_run)
        assert ": " not in encoded
        assert encoded == json.dumps(
            json.loads(encoded), sort_keys=True, separators=(",", ":")
        )


class TestUnderLoadCampaign:
    def test_small_menu_under_smoke_load_full_coverage(self, smoke_run):
        campaign = smoke_run["campaign"]
        assert campaign["menu"] == "small"
        assert campaign["coverage"] == 1.0
        assert campaign["silent_misses"] == []
        assert campaign["passed"]

    def test_faults_fire_mid_replay_not_on_idle_drives(self, smoke_run):
        # Every under-load fault waited for the warm-up op count, so the
        # injection hit a store already carrying replayed traffic.
        campaign = smoke_run["campaign"]
        assert campaign["warmup_ops"] > 0
        for row in campaign["matrix"]:
            hits = [
                name
                for name in campaign["channels"]
                if row["channels"].get(name) is not None
            ]
            assert hits, f"{row['fault_id']} was a silent miss under load"

    def test_campaign_artifact_deterministic(self):
        profile = get_profile("smoke")
        first = json.dumps(
            run_under_load_campaign(profile, "small"), sort_keys=True
        )
        second = json.dumps(
            run_under_load_campaign(profile, "small"), sort_keys=True
        )
        assert first == second


class TestSloOverLongRuns:
    """Satellite: SLO edge-triggering across phases — alerts re-arm when
    a violation clears, and the alert log is replay-deterministic."""

    def _engine(self, service, gauge_name, bound):
        rule = ThresholdRule(
            name="pressure_high",
            metric=gauge_name,
            op=">",
            bound=bound,
        )
        return SloEngine(service, rules=[rule], alert_log=AlertLog(service))

    def _pressure_gauge(self, service):
        """A test-only gauge family; ``set(value)`` moves what it reads."""
        value = [0.0]
        service.metrics.add(
            "workload_test_pressure",
            "gauge",
            "test-only pressure gauge",
            lambda: [((), value[0])],
        )
        return SimpleNamespace(set=lambda new: value.__setitem__(0, new))

    def test_alerts_re_arm_across_phases(self):
        service = LogService.create(observability=True)
        gauge = self._pressure_gauge(service)
        engine = self._engine(service, "workload_test_pressure", 5.0)

        # Phase 1: violation -> one alert, still active -> no re-fire.
        gauge.set(10.0)
        assert len(engine.evaluate()) == 1
        service.store.charge_us("workload_think", 60_000_000)
        gauge.set(11.0)
        assert engine.evaluate() == []

        # Phase 2: the violation clears -> the rule re-arms silently.
        service.store.charge_us("workload_think", 60_000_000)
        gauge.set(1.0)
        assert engine.evaluate() == []

        # Phase 3: a fresh violation fires a second, distinct alert.
        service.store.charge_us("workload_think", 60_000_000)
        gauge.set(12.0)
        refires = engine.evaluate()
        assert len(refires) == 1
        assert len(engine.alerts) == 2
        first, second = engine.alerts
        assert first.ts_us < second.ts_us
        assert first.rule == second.rule == "pressure_high"

    def test_maybe_evaluate_respects_interval_across_long_gaps(self):
        service = LogService.create(observability=True)
        gauge = self._pressure_gauge(service)
        engine = self._engine(service, "workload_test_pressure", 5.0)
        gauge.set(10.0)
        assert len(engine.maybe_evaluate(60_000)) == 1
        gauge.set(1.0)
        # Under the interval: no evaluation happens, so the rule stays
        # active even though the metric recovered.
        service.store.charge_us("workload_think", 1_000)
        assert engine.maybe_evaluate(60_000) == []
        gauge.set(10.0)
        service.store.charge_us("workload_think", 1_000)
        assert engine.maybe_evaluate(60_000) == []
        assert len(engine.alerts) == 1
        # Past the interval the engine evaluates again; the still-violated
        # rule is already active, so no duplicate alert fires.
        service.store.charge_us("workload_think", 120_000_000)
        assert engine.maybe_evaluate(60_000) == []
        assert len(engine.alerts) == 1

    def _alerting_replay(self):
        # Ascending thresholds over a counter the replay itself drives:
        # each rule fires exactly once, at a deterministic point mid-run.
        service = LogService.create(observability=True)
        rules = [
            ThresholdRule(
                name=f"appends_over_{bound}",
                metric="clio_writer_client_entries_total",
                op=">",
                bound=float(bound),
            )
            for bound in (40, 120, 250)
        ]
        engine = SloEngine(service, rules=rules, alert_log=AlertLog(service))
        _replay(service, get_profile("smoke"), engine=engine, collect=False)
        return service, engine

    def test_alert_log_ordering_deterministic_across_replays(self):
        service_a, engine_a = self._alerting_replay()
        service_b, engine_b = self._alerting_replay()
        persisted_a = [a.encode() for a in engine_a.alert_log.read_back()]
        persisted_b = [b.encode() for b in engine_b.alert_log.read_back()]
        assert persisted_a, "replay fired no alerts; thresholds too high?"
        assert persisted_a == persisted_b
        # The persisted order is the firing order, oldest first.
        live_a = [a.encode() for a in engine_a.alerts]
        assert persisted_a == live_a
        ts = [a.ts_us for a in engine_a.alerts]
        assert ts == sorted(ts)


class TestRunCatalog:
    def test_register_read_verify_round_trip(self, smoke_run, tmp_path):
        runs_dir = str(tmp_path / "runs")
        register_run(runs_dir, smoke_run)
        rows = read_index(runs_dir)
        assert len(rows) == 1
        row = rows[0]
        assert row["run_id"] == smoke_run["run"]["run_id"]
        assert row["passed"] == "yes"
        assert row["sha256"] == artifact_sha256(canonical_json(smoke_run))
        assert verify_index(runs_dir) == []

    def test_register_is_an_upsert(self, smoke_run, tmp_path):
        runs_dir = str(tmp_path / "runs")
        register_run(runs_dir, smoke_run)
        register_run(runs_dir, smoke_run)
        assert len(read_index(runs_dir)) == 1

    def test_verify_flags_tampered_artifact(self, smoke_run, tmp_path):
        runs_dir = tmp_path / "runs"
        register_run(str(runs_dir), smoke_run)
        artifact = runs_dir / f"{smoke_run['run']['run_id']}.json"
        artifact.write_text(artifact.read_text() + " ")
        problems = verify_index(str(runs_dir))
        assert problems and "sha256 mismatch" in problems[0]

    def test_verify_flags_missing_artifact(self, smoke_run, tmp_path):
        runs_dir = tmp_path / "runs"
        register_run(str(runs_dir), smoke_run)
        (runs_dir / f"{smoke_run['run']['run_id']}.json").unlink()
        problems = verify_index(str(runs_dir))
        assert problems and "artifact missing" in problems[0]

    def test_verify_flags_missing_directory(self, tmp_path):
        problems = verify_index(str(tmp_path / "nowhere"))
        assert problems and "catalog directory missing" in problems[0]

    def test_verify_flags_missing_index(self, smoke_run, tmp_path):
        runs_dir = tmp_path / "runs"
        register_run(str(runs_dir), smoke_run)
        (runs_dir / "INDEX.csv").unlink()
        problems = verify_index(str(runs_dir))
        assert problems and "INDEX.csv missing" in problems[0]

    def test_verify_flags_orphan_artifact(self, smoke_run, tmp_path):
        runs_dir = tmp_path / "runs"
        register_run(str(runs_dir), smoke_run)
        (runs_dir / "stray-run.json").write_text("{}")
        assert verify_index(str(runs_dir)) == [
            "stray-run.json: artifact has no INDEX.csv row"
        ]


class TestCheckedInCatalog:
    """The committed benchmarks/runs catalog is sound and reproducible."""

    def test_index_rows_hash_match_artifacts(self):
        assert RUNS_DIR.is_dir(), "benchmarks/runs catalog missing"
        rows = read_index(str(RUNS_DIR))
        assert rows, "benchmarks/runs/INDEX.csv is empty"
        assert verify_index(str(RUNS_DIR)) == []

    def test_checked_in_smoke_artifact_reproduces_live(self, smoke_run):
        path = RUNS_DIR / f"{smoke_run['run']['run_id']}.json"
        assert path.exists(), f"checked-in artifact missing: {path}"
        assert canonical_json(smoke_run) == path.read_text()

    def test_checked_in_year_artifact_passes_every_gate(self):
        candidates = sorted(RUNS_DIR.glob("year-*.json"))
        assert candidates, "no year-in-the-life artifact checked in"
        record = json.loads(candidates[0].read_text())
        run = record["run"]
        assert run["passed"], run["failures"]
        assert run["sim_days"] >= 365.0
        assert run["min_phase_coverage"] >= COVERAGE_FLOOR
        campaign = record["campaign"]
        assert campaign is not None
        assert campaign["coverage"] == 1.0
        assert campaign["silent_misses"] == []
