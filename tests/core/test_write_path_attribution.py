"""The write path counts alike however it is observed.

The pinned scenario of :mod:`tests.core.test_write_path_pin` runs twice
more, and each run must still equal the recorded golden:

(a) with ``enable_observability()`` on, on the created service and on the
    remounted one, so every span and journal branch of the append path
    runs instead of the untraced one;
(b) under the benchmark's per-layer wall-clock tracer, installed over
    every ``bench/trace.py`` wrap point.  Each layer point must also see
    exactly the work it names: one ``WormDevice.write_block`` per device
    write, one ``FileBackedNvram.store`` per NVRAM write, and the recorded
    numbers of record placements, block encodes, clock charges,
    timestamps and membership notes.  A packer that placed a record, drew
    a timestamp or noted a block without going through these functions
    would fail here.
"""

import time

from bench.trace import LayerTracer, clio_layer_points
from repro.core import LogService
from tests.core.test_write_path_pin import _GOLDEN, _scenario

#: Calls each wrap point sees in the scenario, recorded on the commit
#: before the group commit's packer took its straight branch.
_CALLS = {
    ("core.block", "add_record"): 601,
    ("core.block", "add_continuation"): 312,
    ("core.block", "encode"): 1013,
    ("vsystem.clock", "charge"): 1647,
    ("vsystem.clock", "timestamp"): 561,
    ("core.entrymap", "note_membership"): 716,
}


def _sum_over_ledgers(read):
    return sum(read(_GOLDEN[ledger]) for ledger in ("at_crash", "at_end"))


def test_observed_scenario_matches_the_golden(tmp_path, monkeypatch):
    create, mount = LogService.create, LogService.mount

    def observed_create(*args, **kwargs):
        service = create(*args, **kwargs)
        service.enable_observability()
        return service

    def observed_mount(*args, **kwargs):
        service, report = mount(*args, **kwargs)
        service.enable_observability()
        return service, report

    monkeypatch.setattr(LogService, "create", observed_create)
    monkeypatch.setattr(LogService, "mount", observed_mount)
    assert _scenario(str(tmp_path), monkeypatch) == _GOLDEN


def test_layer_points_see_every_write(tmp_path, monkeypatch):
    tracer = LayerTracer(time.perf_counter_ns)
    tracer.install(clio_layer_points())
    try:
        result = _scenario(str(tmp_path), monkeypatch)
    finally:
        tracer.uninstall()
    assert result == _GOLDEN
    device_writes = _sum_over_ledgers(
        lambda ledger: sum(device["writes"] for device in ledger["devices"])
    )
    assert device_writes == 326
    assert tracer.calls("idle", "worm.device", "write_block") == device_writes
    nvram_writes = _sum_over_ledgers(lambda ledger: ledger["nvram_writes"])
    assert nvram_writes == 232
    assert tracer.calls("idle", "worm.filebacked", "store") == nvram_writes
    assert {point: tracer.calls("idle", *point) for point in _CALLS} == _CALLS
