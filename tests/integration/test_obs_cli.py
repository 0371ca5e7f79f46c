"""Integration tests for the operator verbs (``clio stats`` / ``trace`` /
``why`` / ``events`` / ``health``) against a file-backed store directory
(the ``make obs-demo`` walkthrough)."""

import json
import re

import pytest

from repro.cli import main
from repro.core import LogService
from repro.obs.critical_path import summarize
from repro.vsystem.costs import SUN3


@pytest.fixture
def store(tmp_path):
    """A small file-backed store with a few appended entries."""
    path = str(tmp_path / "store")
    assert main(["init", path, "--block-size", "512", "--degree", "8"]) == 0
    assert main(["create", path, "/app"]) == 0
    for i in range(8):
        assert main(["append", path, "/app", f"event {i}"]) == 0
    return path


def run(capsys, *argv) -> str:
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestStatsCommand:
    def test_table_lists_every_metric_family_group(self, store, capsys):
        out = run(capsys, "stats", store, "--touch", "/app")
        # One representative per required family group: device, cache,
        # writer, locate, recovery.
        assert "clio_device_reads_total" in out
        assert "clio_cache_misses_total" in out
        assert "clio_writer_client_entries_total" in out
        assert "clio_locate_entrymap_entries_examined_total" in out
        assert "clio_recovery_blocks_scanned_total" in out

    def test_figure3_and_figure4_counters_present(self, store, capsys):
        out = run(capsys, "stats", store, "--touch", "/app")
        # Figure 3's y-axis: entrymap entries examined per locate.
        assert "clio_locate_entrymap_entries_examined_total" in out
        # Figure 4's y-axis: blocks examined reconstructing the entrymap.
        assert "clio_recovery_blocks_scanned_total" in out

    def test_prometheus_format_parses_and_counts_moved(self, store, capsys):
        out = run(capsys, "stats", store, "--format", "prometheus", "--touch", "/app")
        lines = out.splitlines()
        assert "# TYPE clio_device_reads_total counter" in lines
        reads = [
            float(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith("clio_device_reads_total{")
        ]
        assert sum(reads) > 0
        (recovery,) = [
            line
            for line in lines
            if line.startswith("clio_recovery_blocks_scanned_total ")
        ]
        assert float(recovery.split()[1]) > 0

    def test_json_format(self, store, capsys):
        out = run(capsys, "stats", store, "--format", "json")
        snap = json.loads(out)
        names = {family["name"] for family in snap["families"]}
        assert "clio_cache_hit_ratio" in names
        assert "clio_recovery_blocks_scanned_total" in names


class TestTraceLiveCommand:
    def test_mount_recovery_span_rendered(self, store, capsys):
        out = run(capsys, "trace", "live", store)
        assert "recovery" in out
        assert "recovery.rebuild_entrymap" in out
        assert "us]" in out  # sim-time stamps, not wall time

    def test_read_span_with_entry_count(self, store, capsys):
        out = run(capsys, "trace", "live", store, "--read", "/app")
        assert "read entries=8 path=/app" in out

    def test_trace_is_deterministic_across_runs(self, store, capsys):
        first = run(capsys, "trace", "live", store, "--read", "/app")
        second = run(capsys, "trace", "live", store, "--read", "/app")
        assert first == second


class TestTracedAppend:
    def traced_append(self, capsys, store, data="traced payload"):
        capsys.readouterr()
        assert main(["append", store, "/app", data, "--trace"]) == 0
        out = capsys.readouterr().out
        trace_line = [l for l in out.splitlines() if l.startswith("trace ")]
        assert len(trace_line) == 1
        return trace_line[0].split()[1]

    def test_append_prints_trace_id(self, store, capsys):
        trace_id = self.traced_append(capsys, store)
        assert trace_id.startswith("c")

    def test_one_trace_spans_client_server_and_force(self, store, capsys):
        """The acceptance walkthrough: one `clio append --trace` yields ONE
        trace id whose persisted forest holds the client-side IPC span, the
        server-side group commit, and the post-reply device force."""
        trace_id = self.traced_append(capsys, store)
        out = run(capsys, "trace", "show", store, trace_id)
        assert "client.flush" in out
        assert "append_many" in out
        assert "writer.force" in out

    def test_critical_path_components_cover_duration(self, store, capsys):
        trace_id = self.traced_append(capsys, store)
        out = run(capsys, "why", store, "--trace", trace_id)
        assert "components:" in out
        summary = [l for l in out.splitlines() if l.startswith("attributed")]
        assert len(summary) == 1
        percent = float(summary[0].rsplit("(", 1)[1].split("%")[0])
        assert abs(percent - 100.0) <= 1.0

    def test_show_json_forest_shares_trace_id(self, store, capsys):
        trace_id = self.traced_append(capsys, store)
        out = run(
            capsys, "trace", "show", store, trace_id, "--format", "json"
        )
        roots = json.loads(out)
        assert len(roots) >= 2  # client-side root + deferred delivery root
        assert {root["trace_id"] for root in roots} == {trace_id}
        flush = next(r for r in roots if r["name"] == "client.flush")
        deferred = [r for r in roots if r["name"] != "client.flush"]
        assert all(r["parent_id"] == flush["span_id"] for r in deferred)

    def test_show_unknown_trace_id_fails(self, store, capsys):
        self.traced_append(capsys, store)
        assert main(["trace", "show", store, "nope"]) == 1

    def test_store_without_traces_log_errors(self, store, capsys):
        for argv in (["why", store], ["trace", "show", store, "c1.1"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert "has no /traces log" in str(exit_info.value)


class TestStatsQuantiles:
    def test_histogram_rows_include_quantiles(self, store, capsys):
        out = run(capsys, "stats", store, "--touch", "/app")
        hist_rows = [line for line in out.splitlines() if "p50=" in line]
        assert hist_rows  # at least the locate histogram observed something
        assert all("p95=" in row and "p99=" in row for row in hist_rows)


class TestEventsCommand:
    def test_mount_shows_recovery_timeline(self, store, capsys):
        out = run(capsys, "events", store)
        assert "recovery.begin" in out
        assert "recovery.complete" in out

    def test_kind_filter_and_limit(self, store, capsys):
        out = run(capsys, "events", store, "--kind", "recovery.begin")
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 1
        assert "recovery.find_tail" not in out
        out = run(capsys, "events", store, "--limit", "2")
        lines = [line for line in out.splitlines() if line.startswith("[")]
        assert len(lines) == 2

    def test_limit_zero_shows_no_events(self, store, capsys):
        # Regression: ``events[-0:]`` is the whole list.
        out = run(capsys, "events", store, "--limit", "0")
        assert out.strip() == "no events recorded"

    def test_read_generates_device_events(self, store, capsys):
        # Burn a few blocks first: the tiny fixture store otherwise lives
        # entirely in the NVRAM tail, which reads never hit the device for.
        for i in range(4):
            assert main(["append", store, "/app", "x" * 400]) == 0
        out = run(capsys, "events", store, "--read", "/app")
        assert "device.read" in out


class TestHealthCommand:
    def test_healthy_store_exits_zero(self, store, capsys):
        out = run(capsys, "health", store, "--read", "/app")
        assert "healthy" in out

    def test_custom_rule_can_fire(self, store, capsys):
        capsys.readouterr()
        code = main(
            ["health", store, "--read", "/app", "--rule", "clio_volumes > 0"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "clio_volumes" in out

    def test_persisted_alert_readable_via_show_log(self, store, capsys):
        capsys.readouterr()
        code = main(
            ["health", store, "--persist", "--rule", "always: clio_volumes > 0"]
        )
        assert code == 1
        assert "appended to /alerts" in capsys.readouterr().out
        code = main(["health", store, "--show-log"])
        out = capsys.readouterr().out
        assert "(history)" in out
        assert "always" in out


class TestWhyCommand:
    def traced_append(self, capsys, store, data):
        out = run(capsys, "append", store, "/app", data, "--trace")
        return out.splitlines()[-1].split()[1]

    def test_no_selector_lists_persisted_traces_oldest_first(self, store, capsys):
        first = self.traced_append(capsys, store, "one")
        second = self.traced_append(capsys, store, "two")
        lines = run(capsys, "why", store).splitlines()
        assert [line.split()[0] for line in lines] == [first, second]
        assert all("busy=" in line and "ipc=" in line for line in lines)

    def test_slowest_ranks_by_busy_time_descending(self, store, capsys):
        for payload in ("x", "y" * 300, "z"):
            self.traced_append(capsys, store, payload)
        out = run(capsys, "why", store, "--slowest", "3")
        lines = [line for line in out.splitlines() if line.strip()]
        assert len(lines) == 3
        busy = [
            float(re.search(r"busy=([0-9.]+)ms", line).group(1))
            for line in lines
        ]
        assert busy == sorted(busy, reverse=True)
        out = run(capsys, "why", store, "--slowest", "2", "--component", "copy")
        assert out.splitlines()[0].startswith(lines[0].split()[0])

    def test_slowest_explains_the_request_with_the_larger_busy_time(
        self, store, capsys
    ):
        self.traced_append(capsys, store, "x")
        slow = self.traced_append(capsys, store, "y" * 300)
        for argv in (("--slowest",), ("--slowest", "1")):
            out = run(capsys, "why", store, *argv)
            assert out.startswith(f"trace {slow}: busy ")
            assert "critical path:" in out and "layers" in out
        # The payload copy dominates the slow request: the codec layer.
        path = out.split("critical path:")[1].split("layers")[0]
        assert "service" in path and "append_many" in path and "<- copy" in path

    def test_null_forced_append_decomposes_into_section_32(self, store, capsys):
        """`clio why --trace ID` for a null forced append prints the paper's
        2.0 ms decomposition — the numbers
        ``benchmarks/test_bench_sec32_write.py`` reads from the same fold."""
        trace_id = self.traced_append(capsys, store, "")
        out = run(capsys, "why", store, "--trace", trace_id)
        busy_ms = float(re.search(r"busy ([0-9.]+)ms", out).group(1))
        printed = {
            name: float(ms)
            for name, ms in re.findall(r"^  (\w+) +([0-9.]+)ms$", out, re.M)
        }
        assert sum(printed.values()) >= 0.99 * busy_ms
        coverage = float(re.search(r"\(([0-9.]+)% coverage\)", out).group(1))
        assert coverage >= 99.0
        layers = dict(re.findall(r"^  ([a-z/]+) +([0-9.]+)ms +[0-9.]+%", out, re.M))
        assert set(layers) == {
            "ipc", "service", "writer/reader", "cache", "codec", "device"
        }
        # The same fold over one library-level null forced append (what
        # the Section 3.2 bench does): identical but for the async
        # client's 50 us enqueue on the client side of the IPC.
        service = LogService.create(observability=True)
        service.create_log_file("/app").append(b"", client_seq=1, force=True)
        bench = summarize("append", [service.tracer.last("append")]).components
        for component in ("write_fixed", "timestamp", "entrymap_maint"):
            assert printed[component] == pytest.approx(bench[component])
        assert printed["ipc"] == pytest.approx(bench["ipc"] + 0.05)
        assert printed["timestamp"] == pytest.approx(SUN3.timestamp_ms)

    def test_output_is_deterministic(self, store, capsys):
        trace_id = self.traced_append(capsys, store, "payload")
        for argv in ((), ("--slowest", "5"), ("--trace", trace_id)):
            first = run(capsys, "why", store, *argv)
            assert first == run(capsys, "why", store, *argv)

    def test_unknown_trace_id_and_stray_component_fail(self, store, capsys):
        self.traced_append(capsys, store, "payload")
        assert main(["why", store, "--trace", "nope"]) == 1
        assert "no persisted trace 'nope'" in capsys.readouterr().err
        assert main(["why", store, "--component", "ipc"]) == 2


class TestCampaignCommand:
    def test_run_small_menu_passes_and_writes_artifact(self, tmp_path, capsys):
        out_file = str(tmp_path / "campaign.json")
        capsys.readouterr()
        assert main(["campaign", "run", "--menu", "small", "--out", out_file]) == 0
        out = capsys.readouterr().out
        assert "coverage=100%" in out
        assert "passed=True" in out
        with open(out_file) as handle:
            record = json.load(handle)
        assert record["campaign"]["silent_misses"] == []

    def test_run_check_determinism_exits_zero(self, capsys):
        capsys.readouterr()
        assert (
            main(["campaign", "run", "--menu", "small", "--check-determinism"])
            == 0
        )
        assert "byte-identical" in capsys.readouterr().out

    def test_unknown_menu_exits_one(self, capsys):
        assert main(["campaign", "run", "--menu", "enormous"]) == 1

    def test_report_rerenders_artifact(self, tmp_path, capsys):
        out_file = str(tmp_path / "campaign.json")
        assert main(["campaign", "run", "--menu", "small", "--out", out_file]) == 0
        out = run(capsys, "campaign", "report", out_file)
        assert "fault campaign: menu=small" in out
        assert "evidence:" in out

    def test_diff_self_exits_zero(self, tmp_path, capsys):
        out_file = str(tmp_path / "campaign.json")
        assert main(["campaign", "run", "--menu", "small", "--out", out_file]) == 0
        out = run(capsys, "campaign", "diff", out_file, out_file)
        assert "no channel-level differences" in out

    def test_diff_lost_channel_exits_two(self, tmp_path, capsys):
        old_file = str(tmp_path / "old.json")
        assert main(["campaign", "run", "--menu", "small", "--out", old_file]) == 0
        with open(old_file) as handle:
            record = json.load(handle)
        row = record["matrix"][0]
        hit = next(
            name
            for name, evidence in row["channels"].items()
            if evidence is not None
        )
        row["channels"][hit] = None
        new_file = str(tmp_path / "new.json")
        with open(new_file, "w") as handle:
            json.dump(record, handle, sort_keys=True)
        assert main(["campaign", "diff", old_file, new_file]) == 2
