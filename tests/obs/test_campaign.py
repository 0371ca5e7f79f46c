"""The fault-campaign observatory: deterministic injection, the
silent-miss detection-coverage gate, and the artifact format.

The campaign's contract (docs/FAULTS.md):

* every fault in the menu must surface in at least one observability
  channel (events / alerts / recovery / traces) — a silent miss fails;
* two runs of the same menu produce byte-identical JSON artifacts;
* the no-fault control drives leave sim-time counters byte-identical to
  the plain workloads (the harness itself is invisible).
"""

import json

import pytest

from repro.obs.canonical import canonical_json

from repro.obs.campaign import (
    CampaignError,
    FaultOutcome,
    filetrace_steps,
    full_menu,
    login_log_steps,
    menu_specs,
    run_campaign,
    run_spec,
    small_menu,
)
from repro.obs.injectors import _INJECTION_CLASSES, CHANNELS, Drive, FaultSpec


@pytest.fixture(scope="module")
def full_report():
    return run_campaign("full")


class TestFaultSpec:
    def test_menu_specs_cover_known_classes_only(self):
        for spec in full_menu():
            assert spec.fault_class in _INJECTION_CLASSES
        # One instance of every class the injectors know.
        assert {spec.fault_class for spec in full_menu()} == set(_INJECTION_CLASSES)

    def test_small_menu_is_a_subset_of_full(self):
        small_ids = {spec.fault_id for spec in small_menu()}
        full_ids = {spec.fault_id for spec in full_menu()}
        assert small_ids < full_ids

    def test_unknown_fault_class_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(
                fault_id="x",
                fault_class="meteor_strike",
                workload="login_log",
                at_us=0,
            )

    def test_unknown_workload_rejected(self):
        # The workload names an idle drive; run_spec looks it up.
        spec = FaultSpec(
            fault_id="x",
            fault_class="bit_rot",
            workload="web_crawl",
            at_us=0,
            params=(("files", 2),),
        )
        with pytest.raises(ValueError, match="unknown workload"):
            run_spec(spec)

    def test_every_class_declares_expected_channels(self):
        for injection in _INJECTION_CLASSES.values():
            expected = injection.expected_channels
            assert expected
            assert set(expected) <= set(CHANNELS)
            assert list(expected) == [c for c in CHANNELS if c in expected]

    def test_params_are_sorted_and_immutable(self):
        spec = FaultSpec(
            fault_id="x",
            fault_class="bit_rot",
            workload="filetrace",
            at_us=5,
            params=(("zeta", 1), ("alpha", 2)),
        )
        assert spec.params == (("alpha", 2), ("zeta", 1))
        assert spec.param("alpha") == 2
        with pytest.raises(KeyError, match="missing"):
            spec.param("missing")

    def test_as_dict_is_json_stable(self):
        spec = small_menu()[0]
        a = json.dumps(spec.as_dict(), sort_keys=True)
        b = json.dumps(spec.as_dict(), sort_keys=True)
        assert a == b

    def test_unknown_menu_rejected(self):
        with pytest.raises(ValueError):
            menu_specs("enormous")


class TestCoverageGate:
    def test_full_campaign_has_no_silent_misses(self, full_report):
        assert full_report.silent_misses == []
        assert full_report.coverage == 1.0
        assert full_report.passed

    def test_every_fault_hits_every_designed_channel(self, full_report):
        for outcome in full_report.outcomes:
            assert outcome.expected_missed == [], (
                f"{outcome.spec.fault_id} missed designed channels: "
                f"{outcome.expected_missed}"
            )

    def test_control_drives_match_plain_workloads(self, full_report):
        assert full_report.control_ok
        for workload, entry in full_report.control.items():
            assert entry["match"], f"control drive diverged for {workload}"

    def test_silent_miss_is_detected(self):
        spec = small_menu()[0]
        outcome = FaultOutcome(spec, {name: None for name in CHANNELS})
        assert outcome.silent_miss
        assert not outcome.detected

    def test_single_channel_hit_is_not_a_silent_miss(self):
        spec = small_menu()[0]
        channels = {name: None for name in CHANNELS}
        channels["events"] = "block.corrupt seq=1"
        outcome = FaultOutcome(spec, channels)
        assert not outcome.silent_miss
        assert outcome.detected


class TestDeterminism:
    def test_small_artifact_is_byte_identical_across_runs(self):
        assert canonical_json(run_campaign("small").as_dict()) == canonical_json(
            run_campaign("small").as_dict()
        )

    def test_full_artifact_matches_pre_refactor_fixture(self, full_report):
        # Pinned before the scenario stagers were refactored into
        # repro.obs.injectors: the reusable-injection glue must reproduce
        # the original campaign artifact byte for byte.
        import pathlib

        fixture = (
            pathlib.Path(__file__).parent / "fixtures" / "campaign_full_menu.json"
        )
        assert canonical_json(full_report.as_dict()) == fixture.read_text()

    def test_full_artifact_is_byte_identical_across_runs(self, full_report):
        assert canonical_json(run_campaign("full").as_dict()) == canonical_json(
            full_report.as_dict()
        )

    def test_artifact_round_trips_through_json(self, full_report):
        decoded = json.loads(canonical_json(full_report.as_dict()))
        assert decoded == full_report.as_dict()


class TestScenarios:
    def test_torn_write_surfaces_at_remount(self):
        spec = next(
            s for s in full_menu() if s.fault_class == "torn_write"
        )
        outcome = run_spec(spec)
        assert outcome.channels["events"] is not None
        assert outcome.channels["alerts"] is not None
        assert outcome.channels["recovery"] is not None

    def test_bit_rot_surfaces_at_remount(self):
        spec = next(s for s in full_menu() if s.fault_class == "bit_rot")
        outcome = run_spec(spec)
        assert outcome.channels["events"] is not None
        assert outcome.channels["recovery"] is not None

    def test_crash_mid_batch_surfaces_in_traces(self):
        spec = next(
            s for s in full_menu() if s.fault_class == "crash_mid_batch"
        )
        outcome = run_spec(spec)
        assert outcome.channels["traces"] is not None
        assert "append_many" in outcome.channels["traces"]

    def test_mirror_divergence_surfaces_in_events_and_alerts(self):
        spec = next(
            s for s in full_menu() if s.fault_class == "mirror_divergence"
        )
        outcome = run_spec(spec)
        assert outcome.channels["events"] is not None
        assert outcome.channels["alerts"] is not None

    def test_nvram_loss_surfaces_at_remount(self):
        spec = next(s for s in full_menu() if s.fault_class == "nvram_loss")
        outcome = run_spec(spec)
        assert outcome.channels["events"] is not None
        assert outcome.channels["recovery"] is not None

    def test_volume_exhaustion_surfaces_in_events(self):
        spec = next(
            s for s in full_menu() if s.fault_class == "volume_exhaustion"
        )
        outcome = run_spec(spec)
        assert outcome.channels["events"] is not None
        assert "volume.exhausted" in outcome.channels["events"]

    def test_premise_failures_raise_campaign_error(self):
        # Rot injected before anything was burned has nothing to corrupt:
        # the scenario must refuse to score it rather than report a miss.
        spec = FaultSpec(
            fault_id="too-early",
            fault_class="bit_rot",
            workload="filetrace",
            at_us=0,
            params=(("files", 2),),
        )
        with pytest.raises(CampaignError):
            run_spec(spec)


class TestHarnessTransparency:
    def test_stepped_driver_matches_plain_driver(self):
        from repro.core.service import LogService
        from repro.workloads.login_log import LoginLogWorkload

        from repro.obs.campaign import counters_fingerprint

        plain = LogService.create(observability=True)
        LoginLogWorkload().drive(plain, 150)
        drive = Drive(LogService.create(observability=True))
        drive.run(login_log_steps, 150)
        assert drive.ops_done == 150
        assert not drive.fired
        assert drive.stopped is False
        assert counters_fingerprint(plain) == counters_fingerprint(drive.service)

    def test_drive_counts_steps_fires_once_and_catches_the_planned_stop(self):
        """The kernel's contract: steps are counted (the file-trace driver
        used to report 0), the hook fires once at the first step past the
        trigger, a hook still pending at the end fires then, and only the
        injection's own ``stop_on`` ends the drive quietly."""
        from repro.core.service import LogService
        from repro.obs.injectors import make_injection

        spec = next(s for s in full_menu() if s.fault_class == "bit_rot")
        drive = Drive(LogService.create(observability=True))
        drive.run(filetrace_steps, 12)
        assert drive.ops_done >= 12 and not drive.fired and not drive.stopped

        # bit_rot's hook raises its own planned stop the first time it runs.
        injection = make_injection(spec)
        fired_at = []
        injection.fire = lambda service: fired_at.append(drive.ops_done)
        drive = Drive(
            LogService.create(observability=True), injection, warmup_ops=5
        )
        drive.run(login_log_steps, 20)
        assert fired_at == [5] and drive.fired and not drive.stopped

        pending = Drive(
            LogService.create(observability=True),
            make_injection(spec),
            warmup_ops=1_000,
        )
        pending.run(login_log_steps, 20)
        assert pending.ops_done == 20 and pending.fired and pending.stopped

        def boom(_drive):
            raise KeyError("not a planned stop")

        with pytest.raises(KeyError):
            Drive(LogService.create(), make_injection(spec)).run(boom)
