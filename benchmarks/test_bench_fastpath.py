"""Fast-path bench: parsed-block cache, group commit, read-ahead.

Three headline quantities, each tied to an acceptance criterion:

* **parse-avoided** — a warm re-read of a fully cached log decodes zero
  blocks (`parse_block` calls drop 1 -> 0 per access) while still
  charging `cached_block_ms` per block on the simulated clock.
* **group commit** — `append_many(batch)` vs the same payloads as single
  appends saves exactly (N-1) x (IPC + write overhead + timestamp) of
  simulated time and re-encodes the tail once per batch.
* **read-ahead** — a cold sequential scan of 1000 blocks with a 128-block
  read-ahead window issues >= 8x fewer device seeks than the same scan
  with read-ahead off (the paper's default: one seek per block access).

The record lands in BENCH_fastpath.json when CLIO_BENCH_RECORD_DIR is
set; EXPERIMENTS.md captures the numbers.
"""

import pytest

from repro.worm.geometry import OPTICAL_DISK

from _support import bench_record, make_service, print_table

SCAN_BLOCKS = 1000
READAHEAD = 128
BATCH_N = 64


def fill_to_blocks(service, log, blocks):
    """Append block-sized entries until ``blocks`` data blocks are burned."""
    payload = b"x" * (service.store.config.block_size - 40)
    volume = service.store.sequence.volumes[0]
    while volume.next_data_block < blocks:
        log.append(payload, timestamped=False)


def cold_scan(service, blocks):
    """Clear the cache and device counters, then scan ``blocks`` blocks
    sequentially; returns the seek count the scan incurred."""
    service.store.cache.clear()
    for volume in service.store.sequence.volumes:
        volume.device.stats.reset()
    reader = service.reader
    for g in range(blocks):
        reader.read_parsed_global(g)
    return sum(d.stats.seeks for d in service.devices)


@pytest.fixture(scope="module")
def measurements():
    results = {}

    # -- parsed-block cache: parse counts on a warm re-read --------------
    service = make_service(block_size=1024, degree_n=16)
    log = service.create_log_file("/app")
    for i in range(500):
        log.append(b"e" * 200, timestamped=False)
    list(log.entries())  # cold pass fills both cache tiers
    rs0 = service.reader.stats.snapshot()
    cs0 = service.store.cache.stats.snapshot()
    t0 = service.clock.now_ms
    n_entries = sum(1 for _ in log.entries())  # warm pass
    warm_ms = service.clock.now_ms - t0
    rd = service.reader.stats.delta(rs0)
    cd = service.store.cache.stats.delta(cs0)
    results["parse"] = {
        "entries": n_entries,
        "warm_blocks_parsed": rd.blocks_parsed,
        "parse_avoided": cd.parse_avoided,
        "block_accesses": cd.accesses,
        "warm_scan_sim_ms": warm_ms,
        "hit_ratio": round(service.store.cache.stats.hit_ratio, 4),
    }

    # -- group commit: batch vs singles, simulated time ------------------
    batch = [b"p" * 50 for _ in range(BATCH_N)]
    single = make_service(block_size=1024, degree_n=16)
    log_s = single.create_log_file("/x")
    s0 = single.clock.now_ms
    for p in batch:
        log_s.append(p)
    singles_ms = single.clock.now_ms - s0

    batched = make_service(block_size=1024, degree_n=16)
    log_b = batched.create_log_file("/x")
    refresh0 = batched.writer.tail_refreshes
    b0 = batched.clock.now_ms
    log_b.append_many(batch)
    batched_ms = batched.clock.now_ms - b0
    costs = single.store.costs
    results["group_commit"] = {
        "batch_size": BATCH_N,
        "singles_ms": singles_ms,
        "batched_ms": batched_ms,
        "per_entry_singles_ms": singles_ms / BATCH_N,
        "per_entry_batched_ms": batched_ms / BATCH_N,
        "speedup": singles_ms / batched_ms,
        "saved_ms": singles_ms - batched_ms,
        "predicted_saved_ms": (BATCH_N - 1)
        * (costs.ipc_local_ms + costs.write_fixed_ms + costs.timestamp_ms),
        "tail_encodes": batched.writer.tail_refreshes - refresh0,
    }

    # -- read-ahead: cold sequential scan seek counts --------------------
    scan_service = make_service(
        block_size=1024,
        degree_n=16,
        geometry=OPTICAL_DISK,
        volume_capacity_blocks=2048,
        cache_capacity_blocks=2048,
    )
    scan_log = scan_service.create_log_file("/scan")
    fill_to_blocks(scan_service, scan_log, SCAN_BLOCKS + 4)
    seeks_off = cold_scan(scan_service, SCAN_BLOCKS)
    scan_service.configure_readahead(READAHEAD)
    seeks_on = cold_scan(scan_service, SCAN_BLOCKS)
    results["readahead"] = {
        "scan_blocks": SCAN_BLOCKS,
        "window": READAHEAD,
        "seeks_off": seeks_off,
        "seeks_on": seeks_on,
        "seek_reduction": seeks_off / seeks_on,
        "prefetched": scan_service.store.cache.stats.prefetched,
        "avg_seek_ms": OPTICAL_DISK.avg_seek_ms,
    }

    bench_record(
        "fastpath",
        {
            "warm_blocks_parsed": results["parse"]["warm_blocks_parsed"],
            "parse_avoided": results["parse"]["parse_avoided"],
            "group_commit_speedup": results["group_commit"]["speedup"],
            "group_commit_saved_ms": results["group_commit"]["saved_ms"],
            "readahead_seeks_off": seeks_off,
            "readahead_seeks_on": seeks_on,
            "readahead_seek_reduction": results["readahead"]["seek_reduction"],
        },
    )
    return results


class TestParsedBlockCache:
    def test_warm_scan_parses_zero_blocks(self, measurements):
        """Acceptance criterion: parse_block invocations per cached
        re-read drop from one per access to zero."""
        m = measurements["parse"]
        assert m["warm_blocks_parsed"] == 0
        assert m["parse_avoided"] >= m["entries"] // 4  # one per block visit
        assert m["block_accesses"] > 0

    def test_warm_scan_still_charges_sim_time(self, measurements):
        """The parsed tier is a wall-clock win only; cache interpretation
        still costs cached_block_ms per block on the simulated clock."""
        assert measurements["parse"]["warm_scan_sim_ms"] > 0


class TestGroupCommit:
    def test_saving_matches_cost_model_exactly(self, measurements):
        m = measurements["group_commit"]
        assert m["saved_ms"] == pytest.approx(m["predicted_saved_ms"])

    def test_batched_per_entry_cost_well_below_singles(self, measurements):
        m = measurements["group_commit"]
        assert m["speedup"] > 2.0

    def test_one_tail_encode_per_flush(self, measurements):
        """One deferred tail-block encode per batch, not one per entry."""
        assert measurements["group_commit"]["tail_encodes"] == 1


class TestReadAhead:
    def test_sequential_scan_seek_reduction_at_least_8x(self, measurements):
        """Acceptance criterion: a cold 1000-block sequential scan issues
        >= 8x fewer seek charges with read-ahead on than off."""
        m = measurements["readahead"]
        assert m["seeks_off"] == SCAN_BLOCKS
        assert m["seek_reduction"] >= 8.0

    def test_scan_results_identical(self):
        service = make_service(
            block_size=1024,
            degree_n=16,
            volume_capacity_blocks=512,
            cache_capacity_blocks=512,
        )
        log = service.create_log_file("/scan")
        fill_to_blocks(service, log, 64)
        plain = [e.data for e in log.entries()]
        service.configure_readahead(16)
        service.store.cache.clear()
        assert [e.data for e in log.entries()] == plain


class TestReport:
    def test_print_table(self, measurements):
        p, g, r = (
            measurements["parse"],
            measurements["group_commit"],
            measurements["readahead"],
        )
        rows = [
            ["warm re-read: blocks parsed", p["warm_blocks_parsed"], "0"],
            ["warm re-read: parses avoided", p["parse_avoided"], ">0"],
            [
                "group commit: per-entry ms",
                f"{g['per_entry_batched_ms']:.2f}",
                f"{g['per_entry_singles_ms']:.2f} single",
            ],
            ["group commit: speedup", f"{g['speedup']:.2f}x", ">2x"],
            [
                f"scan {r['scan_blocks']} blocks: seeks",
                r["seeks_on"],
                f"{r['seeks_off']} without read-ahead",
            ],
            ["seek reduction", f"{r['seek_reduction']:.1f}x", ">=8x"],
        ]
        print_table(
            "Fast path: parsed cache, group commit, read-ahead",
            ["quantity", "measured", "reference"],
            rows,
        )


class TestWallclock:
    def test_warm_entries_scan_wallclock(self, benchmark):
        service = make_service(block_size=1024, degree_n=16)
        log = service.create_log_file("/app")
        for _ in range(200):
            log.append(b"e" * 200, timestamped=False)
        list(log.entries())  # warm both tiers
        benchmark(lambda: sum(1 for _ in log.entries()))

    def test_append_many_wallclock(self, benchmark):
        service = make_service(block_size=1024, degree_n=16)
        log = service.create_log_file("/app")
        batch = [b"p" * 50 for _ in range(BATCH_N)]
        benchmark(lambda: log.append_many(batch))
