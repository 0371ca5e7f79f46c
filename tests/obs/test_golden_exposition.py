"""The whole metric catalog, byte for byte.

A deterministic 13-volume store (so the ``volume`` label's string order,
``"10"`` before ``"2"``, is pinned) is written, crashed, remounted with
observability on and read; its Prometheus exposition and JSON snapshot
must equal the checked-in fixtures exactly.  Every family name, help
string, kind, label order and value format is covered.

Re-record (only with a stated reason) by running this file:
``PYTHONPATH=src python tests/obs/test_golden_exposition.py``.
"""

import json
from pathlib import Path

from repro.core.service import LogService
from repro.obs import json_snapshot, prometheus_text

FIXTURES = Path(__file__).parent / "fixtures"
PROMETHEUS = FIXTURES / "golden_exposition.prom"
SNAPSHOT = FIXTURES / "golden_snapshot.json"


def _service() -> LogService:
    service = LogService.create(
        block_size=256,
        degree_n=4,
        volume_capacity_blocks=16,
        cache_capacity_blocks=8,
    )
    app = service.create_log_file("/app")
    audit = app.create_sublog("audit")
    for i in range(900):
        target = audit if i % 5 == 0 else app
        target.append(f"entry {i:04d} ".encode() * 3, force=i % 7 == 0)
        if i % 50 == 49:
            app.append_many([f"batch {i:04d}/{j}".encode() for j in range(8)])
    remains = service.crash()
    service, _ = LogService.mount(
        remains.devices, remains.nvram, cache_capacity_blocks=8, observability=True
    )
    app = service.open_log_file("/app")
    for _ in app.entries():
        pass
    for _ in service.open_log_file("/app/audit").entries(reverse=True):
        pass
    app.append(b"after mount", force=True)
    app.append_many([b"post %d" % j for j in range(5)], force=True)
    for _ in app.entries(since=service.clock.now_us // 2):
        pass
    return service


def _exposition(service: LogService) -> tuple[str, str]:
    metrics = service.metrics
    snapshot = json.dumps(json_snapshot(metrics), indent=2, sort_keys=True)
    return prometheus_text(metrics), snapshot + "\n"


def test_exposition_matches_golden_fixtures():
    service = _service()
    assert len(service.devices) > 10
    text, snapshot = _exposition(service)
    assert text == PROMETHEUS.read_text()
    assert snapshot == SNAPSHOT.read_text()


if __name__ == "__main__":
    text, snapshot = _exposition(_service())
    PROMETHEUS.write_text(text)
    SNAPSHOT.write_text(snapshot)
