"""From what a run measured to the metrics it reports.

End-to-end metrics are what a user of the store sees; every timing among
them is at reference machine speed (see :mod:`bench.kernel`).  Per-layer
metrics come from the traced run: self times and call counts from
:class:`bench.trace.LayerTracer`, counts from the program's own stats
objects over the traced segments, the timings demoted from end to end
(``scaled.*``), and the unscaled ``raw.*`` values to read beside them.
Names and units here must match ``BENCHMARK.json``; ``bench/README.md``
says what each one is for.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable

Metrics = dict[str, tuple[float, str]]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _segment_metrics(segments: list, scaled: bool) -> dict[str, float]:
    """Median over segments of each per-segment timing."""

    def speed(segment: Any) -> float:
        return segment.speed if scaled else 1.0

    def over(value: Callable[[Any], float], keep: Callable[[Any], bool] = bool) -> float:
        return _median([value(s) for s in segments if keep(s)])

    return {
        "append_p50_us": over(lambda s: s.append_p50_ns / speed(s) / 1e3),
        "append_p90_us": over(lambda s: s.append_p90_ns / speed(s) / 1e3),
        "append_entries_per_s": over(
            lambda s: s.entries * 1e9 * speed(s) / s.append_ns
        ),
        "read_p50_us": over(lambda s: s.read_p50_ns / speed(s) / 1e3),
        "read_p90_us": over(lambda s: s.read_p90_ns / speed(s) / 1e3),
        # A slice that found the file's end empty says nothing about speed.
        "scan_mb_per_s": over(
            lambda s: s.scan_bytes * 1e3 * speed(s) / s.scan_ns,
            lambda s: s.scan_entries > 0,
        ),
    }


_UNITS = {
    "setup_s": "s",
    "append_p50_us": "us",
    "append_p90_us": "us",
    "append_entries_per_s": "1/s",
    "read_p50_us": "us",
    "read_p90_us": "us",
    "scan_mb_per_s": "MB/s",
    "mount_p50_ms": "ms",
    "cli_cold_p50_ms": "ms",
}


#: Timings too restless on this box to carry a regression bound of 15 % (see
#: "A/A check and bounds" in ``bench/README.md``): measured and printed by
#: every run, but reported as ``scaled.*`` per-layer metrics, not end to end.
DEMOTED = ("append_p90_us", "append_entries_per_s")


def _timings(measured: dict[str, Any], scaled: bool) -> dict[str, float]:
    """The nine timing metrics, scaled or raw, from the plain segments."""
    pick = 1 if scaled else 0
    values = _segment_metrics(measured["segments"], scaled)
    values["setup_s"] = _median(measured["setup"][pick]) / 1e9
    values["mount_p50_ms"] = _median(measured["mount"][pick]) / 1e6
    values["cli_cold_p50_ms"] = _median(measured["cli"][pick]) / 1e6
    return values


def raw_timings(measured: dict[str, Any]) -> dict[str, float]:
    """The timing metrics as the clock read them (the ``raw.*`` values)."""
    return _timings(measured, scaled=False)


def demoted_timings(measured: dict[str, Any]) -> dict[str, float]:
    """The ``scaled.*`` values: at reference speed, but without a bound."""
    values = _timings(measured, scaled=True)
    return {name: values[name] for name in DEMOTED}


def end_to_end(state: Any, measured: dict[str, Any], counts: dict[str, float]) -> Metrics:
    values = _timings(measured, scaled=True)
    metrics: Metrics = {
        name: (values[name], unit) for name, unit in _UNITS.items() if name not in DEMOTED
    }
    metrics["stored_bytes_per_user_byte"] = (
        counts["stored_bytes_per_user_byte"], "ratio",
    )
    metrics["peak_rss_mb"] = (measured["peak_rss_kb"] / 1024, "MB")
    return metrics


def per_layer(state: Any, measured: dict[str, Any], counts: dict[str, float]) -> Metrics:
    tracer = measured["tracer"]
    ledger = state.ledger
    traced = measured["traced_segments"]
    plain = _segment_metrics(measured["segments"], scaled=True)
    with_trace = _segment_metrics(traced, scaled=True)
    with_obs = _segment_metrics(measured["obs_segments"], scaled=True)

    append_calls = sum(s.append_calls for s in traced)
    forced_calls = sum(s.forced_calls for s in traced)
    entries = sum(s.entries for s in traced)
    reads = sum(s.reads for s in traced)
    scanned = sum(s.scan_entries for s in traced)
    mounts = len(measured["traced_mount"][0])
    op_ns = sum(s.append_ns + s.read_ns + s.scan_ns for s in traced)

    # Self times are scaled like every other timing: by the median speed
    # of the traced segments, or of the traced mounts for the mount phase.
    raw_mount, scaled_mount, _blocks = measured["traced_mount"]
    speeds = {
        "ops": _median([s.speed for s in traced]) or 1.0,
        "mount": _median([r / v for r, v in zip(raw_mount, scaled_mount)]) or 1.0,
    }

    def scaled_us(nanoseconds: float, phase: str) -> float:
        return nanoseconds / speeds["mount" if phase == "mount" else "ops"] / 1e3

    def self_us(layer: str, *phases: str) -> float:
        return sum(
            scaled_us(tracer.layer_self_ns(phase, layer), phase) for phase in phases
        )

    def fn_self_us(layer: str, name: str, *phases: str) -> float:
        return sum(
            scaled_us(tracer.function(phase, layer, name)[2], phase)
            for phase in phases
        )

    def calls(layer: str, name: str, *phases: str) -> int:
        return sum(tracer.calls(phase, layer, name) for phase in phases)

    def counted(key: str, *phases: str) -> int:
        return ledger.get(key, *(f"traced.{phase}" for phase in phases))

    reading = ("read", "scan")
    ops = ("append", "read")
    everything = tuple(ledger.phases)
    locates = calls("core.reader", "locate_next_global", "read") + calls(
        "core.reader", "locate_prev_global", "read"
    )
    searches = calls("core.entrymap", "locate_next", "read") + calls(
        "core.entrymap", "locate_prev", "read"
    )
    block_reads = calls("worm.device", "read_block", *reading)
    block_writes = calls("worm.device", "write_block", "append")
    encodes = calls("core.block", "encode", "append")
    parses = calls("core.block", "parse_block", *reading)
    decodes = calls("core.entry", "decode_record", "scan")
    gets = calls("cache.block_cache", "get", *reading)
    stores = calls("worm.filebacked", "store", "append")
    opens = calls("worm.filebacked", "open_path", "mount")
    nvram_us = sum(
        fn_self_us(layer, name, "append")
        for layer, name in (
            ("worm.filebacked", "store"),
            ("worm.filebacked", "clear"),
            ("worm.filebacked.host", "replace"),
            ("worm.filebacked.host", "fsync"),
        )
    )
    accesses = counted("read.block_accesses", *reading)
    hits = counted("cache.hits", *reading)
    client_entries = ledger.get("space.client_entries", *everything)

    values: dict[str, tuple[float, str]] = {
        # -- cold CLI --------------------------------------------------------
        "cli.interp_floor_p50_ms": (_median(measured["cli_floor"][1]) / 1e6, "ms"),
        "cli.import_p50_ms": (_median(measured["cli_import"][1]) / 1e6, "ms"),
        "cli.cat_cold_p50_ms": (_median(measured["cli_cat"][1]) / 1e6, "ms"),
        # -- client call down to the service ------------------------------------
        "vsystem.ipc.self_us_per_op": (
            _ratio(self_us("vsystem.ipc", *ops), append_calls + reads), "us",
        ),
        "vsystem.clock.self_us_per_op": (
            _ratio(self_us("vsystem.clock", *ops), append_calls + reads), "us",
        ),
        "vsystem.sim_ms_total": (counts["sim_ms_total"], "ms"),
        "core.logfile.self_us_per_op": (
            _ratio(self_us("core.logfile", *ops), append_calls + reads), "us",
        ),
        "core.service.append_self_us_per_call": (
            _ratio(self_us("core.service", "append"), append_calls), "us",
        ),
        "core.service.read_self_us_per_call": (
            _ratio(self_us("core.service", "read"), reads), "us",
        ),
        # -- write path ------------------------------------------------------------
        "core.writer.self_us_per_entry": (
            _ratio(self_us("core.writer", "append"), entries), "us",
        ),
        "core.entry.encode_self_us_per_entry": (
            _ratio(fn_self_us("core.entry", "encode", "append"), entries), "us",
        ),
        "core.block.encode_self_us_per_block": (
            _ratio(fn_self_us("core.block", "encode", "append"), encodes), "us",
        ),
        "core.block.encodes_per_entry": (_ratio(encodes, entries), "ratio"),
        "core.entrymap.maintain_self_us_per_entry": (
            _ratio(self_us("core.entrymap", "append"), entries), "us",
        ),
        "worm.filebacked.nvram_store_self_us": (_ratio(nvram_us, forced_calls), "us"),
        "worm.filebacked.nvram_stores_per_forced_append": (
            _ratio(stores, forced_calls), "ratio",
        ),
        "worm.filebacked.replaces_per_forced_append": (
            _ratio(calls("worm.filebacked.host", "replace", "append"), forced_calls),
            "ratio",
        ),
        "worm.filebacked.fsyncs_per_forced_append": (
            _ratio(calls("worm.filebacked.host", "fsync", "append"), forced_calls),
            "ratio",
        ),
        "worm.filebacked.write_self_us_per_block": (
            _ratio(fn_self_us("worm.filebacked", "write_block", "append"), block_writes),
            "us",
        ),
        "worm.device.write_self_us_per_block": (
            _ratio(fn_self_us("worm.device", "write_block", "append"), block_writes),
            "us",
        ),
        "worm.device.writes_per_1k_entries": (
            _ratio(1000 * block_writes, entries), "ratio",
        ),
        # -- read path ---------------------------------------------------------------
        "worm.device.read_self_us_per_block": (
            _ratio(fn_self_us("worm.device", "read_block", *reading), block_reads), "us",
        ),
        "worm.device.reads_per_read_op": (
            _ratio(calls("worm.device", "read_block", "read"), reads), "ratio",
        ),
        "core.reader.self_us_per_scanned_entry": (
            _ratio(self_us("core.reader", "scan"), scanned), "us",
        ),
        "core.entry.decode_self_us_per_call": (
            _ratio(fn_self_us("core.entry", "decode_record", "scan"), decodes), "us",
        ),
        "core.entry.decodes_per_entry_returned": (_ratio(decodes, scanned), "ratio"),
        "core.block.parse_self_us_per_block": (
            _ratio(fn_self_us("core.block", "parse_block", *reading), parses), "us",
        ),
        "core.block.parses_per_block_access": (_ratio(parses, accesses), "ratio"),
        "core.reader.self_us_per_read": (
            _ratio(self_us("core.reader", "read"), reads), "us",
        ),
        "core.reader.block_accesses_per_read": (
            _ratio(counted("read.block_accesses", "read"), reads), "ratio",
        ),
        "core.reader.locate_memo_hit_ratio": (
            _ratio(counted("read.locate_memo_hits", "read"), locates), "ratio",
        ),
        "core.entrymap.self_us_per_locate": (
            _ratio(self_us("core.entrymap", "read"), searches), "us",
        ),
        "core.entrymap.entries_examined_per_locate": (
            _ratio(counted("read.search.entrymap_entries_examined", "read"), searches),
            "ratio",
        ),
        "core.timeindex.self_us_per_lookup": (
            _ratio(
                self_us("core.timeindex", "read"),
                calls("core.timeindex", "locate_position_after", "read"),
            ),
            "us",
        ),
        "cache.block_cache.self_us_per_get": (
            _ratio(fn_self_us("cache.block_cache", "get", *reading), gets), "us",
        ),
        "cache.block_cache.hit_ratio": (
            _ratio(hits, hits + counted("cache.misses", *reading)), "ratio",
        ),
        "cache.block_cache.evictions": (
            counted("cache.evictions", "append", "read", "scan"), "count",
        ),
        "cache.block_cache.parse_avoided_ratio": (
            _ratio(counted("cache.parse_avoided", *reading), accesses), "ratio",
        ),
        # -- mount ---------------------------------------------------------------------
        "core.recovery.self_ms_per_mount": (
            _ratio(self_us("core.recovery", "mount") / 1e3, mounts), "ms",
        ),
        "core.recovery.blocks_examined_per_mount": (
            _ratio(sum(measured["traced_mount"][2]), mounts), "count",
        ),
        "worm.volume.mount_self_ms": (
            _ratio(fn_self_us("worm.volume", "mount", "mount") / 1e3, mounts), "ms",
        ),
        "worm.filebacked.open_self_ms_per_volume": (
            _ratio(fn_self_us("worm.filebacked", "open_path", "mount") / 1e3, opens),
            "ms",
        ),
        # -- space -----------------------------------------------------------------------
        "core.store.header_bytes_per_entry": (
            _ratio(ledger.get("space.entry_headers", *everything), client_entries),
            "B",
        ),
        "core.store.entrymap_bytes_per_entry": (
            _ratio(ledger.get("space.entrymap", *everything), client_entries), "B",
        ),
        "core.store.forced_padding_bytes": (
            ledger.get("space.forced_padding", *everything), "B",
        ),
        # -- the observability stack and the tracing itself ----------------------------
        "obs.append_overhead_ratio": (
            _ratio(with_obs["append_p50_us"], plain["append_p50_us"]), "ratio",
        ),
        "obs.read_overhead_ratio": (
            _ratio(with_obs["read_p50_us"], plain["read_p50_us"]), "ratio",
        ),
        "trace.overhead_ratio": (
            _ratio(with_trace["append_entries_per_s"], plain["append_entries_per_s"]),
            "ratio",
        ),
        "trace.self_sum_over_op_time": (
            _ratio(
                sum(tracer.total_self_ns(phase) for phase in ("append", "read", "scan")),
                op_ns,
            ),
            "ratio",
        ),
        "cal.speed_p50": (_median(state.speeds), "ratio"),
        "cal.speed_iqr": (_iqr(state.speeds), "ratio"),
    }
    for name, value in demoted_timings(measured).items():
        values[f"scaled.{name}"] = (value, _UNITS[name])
    for name, value in raw_timings(measured).items():
        values[f"raw.{name}"] = (value, _UNITS[name])
    return values


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    first, _second, third = statistics.quantiles(values, n=4)
    return third - first
