"""SLO rules, the alert engine, and the append-only alert sublog."""

import pytest

from repro.core import LogService
from repro.obs.slo import (
    AlertLog,
    ModelDeltaRule,
    RatioRule,
    SloEngine,
    ThresholdRule,
    default_ruleset,
    locate_model_rule,
    metric_value,
    parse_rule,
    recovery_model_rule,
)
from repro.worm.corruption import corrupt_range


def make_service(**kwargs) -> LogService:
    kwargs.setdefault("block_size", 512)
    kwargs.setdefault("degree_n", 4)
    kwargs.setdefault("volume_capacity_blocks", 4096)
    kwargs.setdefault("observability", True)
    return LogService.create(**kwargs)


def write_workload(service, entries=200, size=64):
    log = service.create_log_file("/work")
    for i in range(entries):
        log.append(b"x" * size)
    service.sync()
    return log


class TestMetricValue:
    def test_counter_and_gauge(self):
        service = make_service()
        write_workload(service, entries=10)
        assert metric_value(service, "clio_writer_client_entries_total") == 10
        assert metric_value(service, "clio_volumes") == 1

    def test_labelled_metric(self):
        service = make_service()
        write_workload(service, entries=10)
        assert metric_value(service, "clio_device_writes_total{volume=0}") > 0

    def test_histogram_resolves_to_mean(self):
        service = make_service()
        write_workload(service, entries=10)
        mean = metric_value(service, "clio_append_latency_ms")
        assert mean > 0

    def test_unknown_metric_raises(self):
        service = make_service()
        with pytest.raises(ValueError):
            metric_value(service, "no_such_metric")

    def test_unlabelled_spec_on_a_labelled_family_raises(self):
        # Not volume 0's count standing in for the whole family.
        service = make_service(volume_capacity_blocks=16)
        write_workload(service, entries=200)
        assert len(service.devices) > 1
        with pytest.raises(ValueError, match=r"takes labels \{volume\}"):
            metric_value(service, "clio_device_writes_total")

    def test_misspelt_or_extra_label_raises(self):
        service = make_service()
        write_workload(service, entries=10)
        with pytest.raises(ValueError, match=r"takes labels \{volume\}"):
            metric_value(service, "clio_device_writes_total{volme=0}")
        with pytest.raises(ValueError, match="takes labels none"):
            metric_value(service, "clio_volumes{volume=0}")

    def test_absent_label_value_is_zero(self):
        service = make_service()
        write_workload(service, entries=10)
        assert metric_value(service, "clio_device_writes_total{volume=7}") == 0


class TestRules:
    def test_threshold_rule_fires_and_clears(self):
        service = make_service()
        rule = ThresholdRule("vols", "clio_volumes", ">", 0)
        violated, value, bound, _ = rule.check(service)
        assert violated and value == 1 and bound == 0

    def test_threshold_guard_suppresses_without_traffic(self):
        service = make_service()
        write_workload(service, entries=5)
        rule = ThresholdRule(
            "hit_ratio",
            "clio_cache_hit_ratio",
            "<",
            0.5,
            guard="clio_reader_block_accesses_total",
        )
        # no read traffic yet: the guard holds the rule back
        assert rule.check(service)[0] is False

    def test_ratio_rule_zero_denominator_is_quiet(self):
        service = make_service()
        rule = RatioRule(
            "padding",
            "clio_writer_forced_padding_bytes_total",
            "clio_writer_client_bytes_total",
            ">",
            0.5,
        )
        assert rule.check(service)[0] is False

    def test_model_delta_rule_uses_callables(self):
        service = make_service()
        rule = ModelDeltaRule("m", lambda s: 10.0, lambda s: 4.0, tolerance=2.0)
        violated, value, bound, _ = rule.check(service)
        assert violated and value == 10.0 and bound == 8.0


class TestParseRule:
    def test_threshold_spec(self):
        rule = parse_rule("clio_cache_hit_ratio < 0.5")
        assert isinstance(rule, ThresholdRule)
        assert rule.op == "<" and rule.bound == 0.5
        assert rule.severity == "warning"

    def test_named_ratio_spec_with_severity(self):
        rule = parse_rule(
            "miss-rate: clio_cache_misses_total / "
            "clio_cache_hits_total >= 2 [critical]"
        )
        assert isinstance(rule, RatioRule)
        assert rule.name == "miss-rate"
        assert rule.severity == "critical"

    def test_labelled_metric_spec(self):
        rule = parse_rule("clio_device_writes_total{volume=0} > 100")
        assert rule.metric == "clio_device_writes_total{volume=0}"

    def test_bad_spec_raises(self):
        with pytest.raises(ValueError):
            parse_rule("this is not a rule")


class TestEngine:
    def test_edge_triggered_rearm(self):
        service = make_service()
        rule = ThresholdRule("vols", "clio_volumes", ">", 0)
        engine = SloEngine(service, rules=[rule])
        assert len(engine.evaluate()) == 1
        assert engine.evaluate() == []  # still violated: no re-fire
        rule.bound = 10  # condition clears...
        assert engine.evaluate() == []
        rule.bound = 0  # ...and re-arms
        assert len(engine.evaluate()) == 1

    def test_maybe_evaluate_respects_sim_interval(self):
        service = make_service()
        engine = SloEngine(service, rules=[ThresholdRule("v", "clio_volumes", ">", 0)])
        assert len(engine.maybe_evaluate(1000.0)) == 1
        assert engine.maybe_evaluate(1000.0) == []  # too soon, skipped
        service.clock.advance_ms(1500.0)
        # interval elapsed: evaluated again (but edge-triggered, no re-fire)
        engine._active.clear()
        assert len(engine.maybe_evaluate(1000.0)) == 1

    def test_alert_fired_event_journalled(self):
        service = make_service()
        engine = SloEngine(service, rules=[ThresholdRule("v", "clio_volumes", ">", 0)])
        engine.evaluate()
        events = service.journal.by_kind("alert.fired")
        assert len(events) == 1
        assert events[0].attr("rule") == "v"


class TestModelDelta:
    def crash_with_corrupt_tail(self, corrupt_blocks=12):
        service = make_service()
        write_workload(service, entries=2000)
        remains = service.crash()
        device = remains.devices[0]
        tail = device.query_tail()
        corrupt_range(device, max(0, tail - corrupt_blocks), corrupt_blocks)
        return LogService.mount(remains.devices, remains.nvram, observability=True)

    def test_healthy_recovery_stays_under_model(self):
        service = make_service()
        write_workload(service, entries=2000)
        remains = service.crash()
        mounted, _ = LogService.mount(
            remains.devices, remains.nvram, observability=True
        )
        engine = SloEngine(mounted, rules=[recovery_model_rule()])
        assert engine.evaluate() == []

    def test_corrupted_tail_fires_recovery_model_rule(self):
        mounted, report = self.crash_with_corrupt_tail()
        engine = SloEngine(mounted, rules=[recovery_model_rule()])
        fired = engine.evaluate()
        assert len(fired) == 1
        alert = fired[0]
        assert alert.rule == "recovery_blocks_vs_model"
        assert alert.severity == "critical"
        assert alert.value > alert.bound
        assert alert.value == report.total_blocks_examined

    def test_corrupted_tail_alert_persists_to_sublog(self):
        mounted, _ = self.crash_with_corrupt_tail()
        alert_log = AlertLog(mounted)
        engine = SloEngine(mounted, rules=[recovery_model_rule()], alert_log=alert_log)
        fired = engine.evaluate()
        assert fired
        replayed = alert_log.read_back()
        assert [a.rule for a in replayed] == ["recovery_blocks_vs_model"]
        assert replayed[0].ts_us == fired[0].ts_us

    def test_alert_sublog_survives_crash(self):
        mounted, _ = self.crash_with_corrupt_tail()
        alert_log = AlertLog(mounted)
        SloEngine(mounted, rules=[recovery_model_rule()], alert_log=alert_log).evaluate()
        remains = mounted.crash()
        remounted, _ = LogService.mount(remains.devices, remains.nvram)
        history = AlertLog(remounted).read_back()
        assert [a.rule for a in history] == ["recovery_blocks_vs_model"]

    def test_locate_model_rule_quiet_on_normal_reads(self):
        service = make_service()
        write_workload(service, entries=500)
        for _ in service.read_entries("/work"):
            pass
        engine = SloEngine(service, rules=[locate_model_rule()])
        assert engine.evaluate() == []


class TestDefaultRuleset:
    def test_healthy_service_has_no_alerts(self):
        service = make_service()
        write_workload(service, entries=100)
        for _ in service.read_entries("/work"):
            pass
        engine = SloEngine(service)  # default ruleset
        assert engine.evaluate() == []
        assert len(engine.rules) >= 4

    def test_corruption_rule_in_default_set_fires(self):
        mounted, _ = TestModelDelta().crash_with_corrupt_tail()
        engine = SloEngine(mounted)
        fired = engine.evaluate()
        assert any(a.rule == "corrupt_blocks_present" for a in fired) or any(
            a.rule == "recovery_blocks_vs_model" for a in fired
        )
