"""Section 3 — live cost attribution of the simulated latencies.

The paper explains every measured number as a sum of component costs
(IPC, timestamp generation, entrymap maintenance, cached-block
interpretation, data copying).  The profiler recovers exactly that
decomposition from a traced run: every clock advance is tagged onto the
innermost span by component, and folding the span trees back out must
explain the traced sim-time essentially completely (<1% unattributed).

This bench profiles a mixed append/read workload and prints the
recovered per-operation breakdown next to the cost-model constants it
should reconstruct.
"""

import pytest

from repro.obs.critical_path import per_operation, summarize
from repro.vsystem.costs import SUN3

from _support import bench_record, make_service, print_table


@pytest.fixture(scope="module")
def profiled():
    service = make_service(observability=True)
    service.tracer.max_roots = 1_000_000
    log = service.create_log_file("/app")
    for i in range(500):
        log.append(b"x" * 50, client_seq=1, force=(i % 32 == 0))
    service.sync()
    with service.tracer.span("read", path="/app") as sp:
        sp.set("entries", sum(1 for _ in service.read_entries("/app")))
    roots = service.tracer.recent()
    return summarize("all", roots), per_operation(roots)


class TestAttribution:
    def test_components_explain_traced_time_within_1pct(self, profiled):
        overall, _breakdowns = profiled
        assert overall.total_ms > 0
        assert abs(overall.coverage - 1.0) < 0.01

    def test_append_breakdown_reconstructs_model_constants(self, profiled):
        _overall, breakdowns = profiled
        append = next(b for b in breakdowns if b.key == "append")
        per_op = {k: v / append.count for k, v in append.components.items()}
        # Exactly one IPC and one data copy per append...
        assert per_op["ipc"] == pytest.approx(SUN3.ipc_local_ms, rel=1e-6)
        assert per_op["copy"] == pytest.approx(
            SUN3.copy_per_byte_ms * 50, rel=1e-6
        )
        # ...while timestamps and entrymap maintenance run slightly over
        # the per-entry constant: entrymap records written mid-append are
        # themselves timestamped, indexed entries.
        assert per_op["timestamp"] == pytest.approx(SUN3.timestamp_ms, rel=0.05)
        assert per_op["timestamp"] >= SUN3.timestamp_ms
        assert per_op["entrymap_maint"] == pytest.approx(
            SUN3.entrymap_per_entry_ms, rel=0.10
        )
        assert per_op["entrymap_maint"] >= SUN3.entrymap_per_entry_ms

    def test_table(self, profiled):
        overall, breakdowns = profiled
        rows = []
        for breakdown in breakdowns:
            rows.append(
                [
                    breakdown.key,
                    str(breakdown.count),
                    f"{breakdown.mean_ms:.3f}",
                    f"{100.0 * breakdown.coverage:.2f}%",
                ]
            )
            for component, ms in sorted(
                breakdown.components.items(), key=lambda kv: -kv[1]
            ):
                rows.append(
                    [f"  {component}", "", f"{ms / breakdown.count:.4f}", ""]
                )
        print_table(
            "Section 3 cost attribution (per operation, simulated ms)",
            ["operation / component", "count", "ms/op", "attributed"],
            rows,
        )
        bench_record(
            "sec3_attribution",
            {
                "attributed_ms": overall.attributed_ms,
                "traced_ms": overall.total_ms,
                "coverage": overall.coverage,
            },
        )
