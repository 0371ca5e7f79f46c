"""Journal determinism: two services running the identical workload must
record byte-identical event journals.

This test holds the property on canonical bytes — each event rendered as
sorted-key JSON — so any nondeterminism in what is journalled, its order,
its sim-time stamps or its attributes shows up as a byte diff."""

from repro.core import LogService
from repro.obs.canonical import canonical_json


def run_workload(service: LogService) -> list[bytes]:
    log = service.create_log_file("/app")
    for i in range(20):
        log.append(f"record-{i:04d}".encode())
        if i % 5 == 4:
            service.sync()
    list(log.entries())
    events = service.journal.events()
    assert events
    return [canonical_json(event.as_dict()).encode() for event in events]


def make_service() -> LogService:
    return LogService.create(
        block_size=512,
        degree_n=4,
        volume_capacity_blocks=2048,
        observability=True,
    )


def test_identical_workloads_record_byte_identical_journals():
    first = run_workload(make_service())
    second = run_workload(make_service())
    assert first == second
    assert b"".join(first) == b"".join(second)
