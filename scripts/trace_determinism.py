#!/usr/bin/env python
"""CI gate: the trace pipeline is deterministic end to end.

Runs the canonical traced workload twice — fresh service each time, same
sim-clock start, same request sequence — and asserts the serialized
``/traces`` sublogs are byte-identical, and so is what ``clio why`` prints
for every persisted request.  Trace ids are minted from the sim clock and
per-client sequence numbers, sampling is count-based, and the encoding is
sorted-key JSON, so any nondeterminism (a wall-clock read, an unordered
dict walk, a random id) shows up here as a byte diff.

Usage:  PYTHONPATH=src python scripts/trace_determinism.py
"""

import hashlib
import sys

from repro.core import LogService
from repro.core.asyncclient import AsyncLogClient
from repro.obs.critical_path import format_explanation, per_trace
from repro.obs.tracelog import TraceLog, encode_span
from repro.vsystem.clock import SkewedClock
from repro.vsystem.ipc import AsyncPort


def run_canonical_workload() -> tuple[bytes, str]:
    """One traced workload; returns the serialized /traces bytes and the
    ``clio why`` explanation of every persisted request."""
    service = LogService.create(observability=True)
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
        client.submit(b"entry %03d " % i + b"x" * (i % 7) * 16)
        if i % 4 == 3:
            client.flush()
            port.drain()
    client.flush()
    port.drain()

    with service.tracer.span("read") as sp:
        sp.set("entries", sum(1 for _ in app.entries()))

    tracelog.persist()
    roots = tracelog.read_back()
    explained = "\n".join(format_explanation(s) for s in per_trace(roots))
    return b"\n".join(encode_span(root) for root in roots), explained


def main() -> int:
    first, first_why = run_canonical_workload()
    second, second_why = run_canonical_workload()
    digest = hashlib.sha256(first).hexdigest()
    if not first:
        print("trace-determinism: FAIL (no traces persisted)")
        return 1
    if first != second:
        print("trace-determinism: FAIL (runs differ)")
        print(f"  run 1: {len(first)} bytes sha256={digest}")
        print(
            f"  run 2: {len(second)} bytes "
            f"sha256={hashlib.sha256(second).hexdigest()}"
        )
        return 1
    if first_why != second_why or "% coverage)" not in first_why:
        print("trace-determinism: FAIL (`clio why` explanations differ)")
        return 1
    roots = first.count(b"\n") + 1
    print(
        f"trace-determinism: OK ({roots} persisted roots, "
        f"{len(first)} bytes, sha256={digest})"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
