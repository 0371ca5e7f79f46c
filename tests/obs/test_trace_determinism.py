"""Trace determinism: two services running the identical traced workload
must persist byte-identical /traces sublogs.

Trace ids come from the sim clock plus monotone sequences, sampling is
count-based, and span encoding is sorted-key JSON — so the persisted
trace log is a pure function of the workload.  CI runs the same gate as
a standalone script (``scripts/trace_determinism.py``)."""

from repro.core import LogService
from repro.core.asyncclient import AsyncLogClient
from repro.obs import TraceLog
from repro.obs.tracelog import encode_span
from repro.vsystem.clock import SkewedClock
from repro.vsystem.ipc import AsyncPort


def make_service() -> LogService:
    return LogService.create(
        block_size=512,
        degree_n=4,
        volume_capacity_blocks=2048,
        observability=True,
    )


def run_workload(service: LogService) -> bytes:
    tracelog = TraceLog(service, window=8, head_keep=2, slowest_keep=2)
    app = service.create_log_file("/app")
    port = AsyncPort(service.clock, tracer=service.tracer)
    client = AsyncLogClient(
        app,
        port,
        SkewedClock(service.clock, skew_us=0),
        batch_size=4,
        server_batching=True,
        force_batches=True,
    )
    for i in range(24):
        client.submit(b"entry %03d" % i)
        if i % 4 == 3:
            client.flush()
            port.drain()
    client.flush()
    port.drain()
    list(app.entries())
    assert tracelog.persist() > 0
    return b"\n".join(encode_span(root) for root in tracelog.read_back())


def test_identical_workloads_persist_byte_identical_traces():
    first = run_workload(make_service())
    second = run_workload(make_service())
    assert first  # the comparison is not vacuous
    assert first == second
