"""Shared helpers for the benchmark suite.

Two measurement substrates:

* ``EntrymapSim`` — a pure entrymap-structure simulation (no device, no
  block codec) for experiments whose quantities depend only on the index
  structure (Figure 3's entry-examination counts at distances up to 10^6
  blocks).  It drives :class:`repro.core.entrymap.EntrymapState` exactly
  as the writer does, one block at a time.

* real :class:`repro.core.LogService` instances, instrumented through the
  cache/clock/device counters, for everything measured end-to-end
  (Table 1, Figure 4, Sections 3.2/3.5).

``print_table`` renders paper-style result tables into the benchmark
output (run pytest with ``-s`` to see them; EXPERIMENTS.md records the
captured values).
"""

from __future__ import annotations

import json
import os

from repro.core import LogService
from repro.core.entrymap import EntrymapSearch, EntrymapState, SearchStats


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    widths = [
        max(len(str(headers[i])), *(len(str(row[i])) for row in rows))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).rjust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


class EntrymapSim:
    """Drives an EntrymapState block-by-block, exactly as the writer does."""

    def __init__(self, degree: int, capacity: int):
        self.state = EntrymapState(degree, capacity)
        self.records: dict[tuple[int, int], object] = {}
        self.memberships: dict[int, frozenset[int]] = {}
        self.blocks = 0

    def write_block(self, logfile_ids=frozenset()) -> int:
        block = self.blocks
        for level, boundary in self.state.entries_due(block):
            self.records[(level, boundary)] = self.state.emit(level, boundary)
        if logfile_ids:
            self.memberships[block] = frozenset(logfile_ids)
            self.state.note_membership(block, logfile_ids)
        self.blocks += 1
        return block

    def advance(self, count: int) -> None:
        for _ in range(count):
            self.write_block()

    def search(self) -> EntrymapSearch:
        return EntrymapSearch(
            self.state,
            fetch=lambda level, boundary: self.records.get((level, boundary)),
            scan=lambda block: self.memberships.get(block, frozenset()),
        )

    def locate_prev_counting(self, logfile_id: int, before: int) -> SearchStats:
        stats = SearchStats()
        self.search().locate_prev(logfile_id, before, stats)
        return stats


def make_service(**kwargs) -> LogService:
    defaults = dict(
        block_size=1024,
        degree_n=16,
        volume_capacity_blocks=1 << 17,
        cache_capacity_blocks=1 << 17,  # "given complete caching"
    )
    defaults.update(kwargs)
    return LogService.create(**defaults)


def bench_record(name: str, headline: dict) -> dict:
    """One benchmark record: the headline numbers ``EXPERIMENTS.md``
    prints, nothing else, so a record changes only when its claim does.

    When ``CLIO_BENCH_RECORD_DIR`` is set the record is also written to
    ``BENCH_<name>.json`` in that directory (``make bench-tables``
    regenerates the checked-in ones; ``scripts/check.sh`` compares them).
    """
    record: dict = {"bench": name, "headline": headline}
    out_dir = os.environ.get("CLIO_BENCH_RECORD_DIR")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"BENCH_{name}.json")
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2, default=str)
    return record


def advance_to_block(service: LogService, filler, target_block: int) -> None:
    """Append filler entries until the writer's tail block is
    ``target_block`` of the active volume (start of that block)."""
    writer = service.writer
    if writer.tail_block_addr > target_block:
        raise ValueError(
            f"tail already at {writer.tail_block_addr} > {target_block}"
        )
    big = b"F" * (service.store.config.block_size // 2)
    small = b"f" * 16
    while writer.tail_block_addr < target_block - 1:
        filler.append(big, timestamped=False)
    while writer.tail_block_addr < target_block:
        filler.append(small, timestamped=False)


def measure_locate_from_tail(service: LogService, logfile_id: int) -> dict:
    """Reproduce one Table-1 read: check the current (tail) block, run the
    entrymap search for the previous entry of ``logfile_id``, read the
    target block.  Returns the counters the table reports."""
    reader = service.reader
    cache0 = service.store.cache.stats.snapshot()
    read0 = reader.stats.snapshot()
    clock0 = service.clock.now_ms

    costs = service.store.costs
    service.clock.advance_ms(costs.ipc_local_ms + costs.read_fixed_ms)
    tail_global = service.writer.tail_global_block
    reader.read_parsed_global(tail_global)  # "the current block"
    found = reader.locate_prev_global(logfile_id, tail_global)
    if found is not None:
        reader.read_parsed_global(found)  # the target block

    cache_delta = service.store.cache.stats.delta(cache0)
    read_delta = reader.stats.delta(read0)
    return {
        "found_block": found,
        "entrymap_entries": read_delta.search.entrymap_entries_examined,
        "block_accesses": cache_delta.accesses,
        "sim_ms": service.clock.now_ms - clock0,
        "cache_misses": cache_delta.misses,
    }
