"""Journal determinism: two services running the identical workload must
persist byte-identical event journals.

This test holds the property on the real bytes — event encoding is
sorted-key JSON, so identical histories burn identical bytes on the
write-once medium, and a re-persisted journal never diverges from the
original."""

from repro.core import LogService
from repro.obs.events import EventLog


def run_workload(service: LogService) -> list[bytes]:
    log = service.create_log_file("/app")
    for i in range(20):
        log.append(f"record-{i:04d}".encode())
        if i % 5 == 4:
            service.sync()
    list(log.entries())
    event_log = EventLog(service, path="/events")
    assert event_log.persist() > 0
    return [entry.data for entry in event_log.log.entries()]


def make_service() -> LogService:
    return LogService.create(
        block_size=512,
        degree_n=4,
        volume_capacity_blocks=2048,
        observability=True,
    )


def test_identical_workloads_persist_byte_identical_journals():
    first = run_workload(make_service())
    second = run_workload(make_service())
    assert first == second
    assert b"".join(first) == b"".join(second)
