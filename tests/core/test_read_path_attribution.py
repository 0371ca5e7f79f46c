"""The read path counts alike however it is observed.

The pinned scenario of :mod:`tests.core.test_read_path_pin` runs twice
more, and each run must still equal the recorded golden:

(a) with ``enable_observability()`` on, so every span branch of the read
    path (the traced miss fill, the observed locate) runs instead of the
    untraced one;
(b) under the benchmark's per-layer wall-clock tracer, installed over
    every ``bench/trace.py`` wrap point.  Each layer point must also see
    exactly the work it names: one ``parse_block`` per block parsed, one
    ``BlockCache.get`` per access that found no decoded block pooled, and
    the recorded number of record decodes.
"""

import time

from bench.trace import LayerTracer, clio_layer_points
from repro.core import LogService
from tests.core.test_read_path_pin import _GOLDEN, _GOLDEN_COMMON, _scenario

_EXPECTED = {**_GOLDEN_COMMON, **_GOLDEN[0]}

#: ``decode_record`` calls the scenario makes (readahead 0), recorded on
#: the commit before the read path was reduced to one call per access.
_DECODES = 784


def test_observed_scenario_matches_the_golden(monkeypatch):
    create = LogService.create

    def observed_create(*args, **kwargs):
        service = create(*args, **kwargs)
        service.enable_observability()
        return service

    monkeypatch.setattr(LogService, "create", observed_create)
    assert _scenario(0) == _EXPECTED


def test_layer_points_see_every_access():
    tracer = LayerTracer(time.perf_counter_ns)
    tracer.install(clio_layer_points())
    try:
        result = _scenario(0)
    finally:
        tracer.uninstall()
    assert result == _EXPECTED
    read, cache = _EXPECTED["read"], _EXPECTED["cache"]
    assert read["blocks_parsed"] == 2276
    assert tracer.calls("idle", "core.block", "parse_block") == read["blocks_parsed"]
    assert (
        tracer.calls("idle", "cache.block_cache", "get")
        == read["block_accesses"] - cache["parse_avoided"]
    )
    assert tracer.calls("idle", "core.entry", "decode_record") == _DECODES
