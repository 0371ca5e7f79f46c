"""The decoded tier: each record is decoded once per resident block, and
iteration serves entries from the block in hand.

Three things are pinned here.  (a) *Decode once*: filtering a block by log
file peeks headers and decodes nothing, so a scan decodes at most one
record per entry it returns, and a warm re-scan none.  (b) *Sim side
unmoved*: on a fixed scenario chosen to hit every awkward case — eviction
of the block in hand between two ``next()`` calls, an append rewriting the
tail block in hand, entries spanning blocks, read-ahead off and on — the
entries, ``ReadStats``, ``CacheStats`` and the simulated clock equal golden
values recorded from the commit before the decoded tier existed.  (c) *No
check weakened*: a garbage record inside a CRC-valid block is still
reported exactly once and skipped.
"""

import dataclasses
import hashlib
import random

import pytest

import repro.core.reader as reader_module
from repro.core import LogService
from repro.core.block import BlockBuilder, parse_block
from repro.core.entry import CorruptRecord, peek_logfile_id
from repro.core.ids import ENTRYMAP_ID


def make_service(**kwargs):
    defaults = dict(
        block_size=256,
        degree_n=4,
        volume_capacity_blocks=4096,
        cache_capacity_blocks=1024,
    )
    defaults.update(kwargs)
    return LogService.create(**defaults)


# -- (a) decode once --------------------------------------------------------------


@pytest.fixture
def decoded_ids(monkeypatch):
    """Logfile id of every record the reader decodes, in order."""
    seen = []
    real = reader_module.decode_record

    def counting(record):
        decoded = real(record)
        seen.append(decoded.entry.logfile_id)
        return decoded

    monkeypatch.setattr(reader_module, "decode_record", counting)
    return seen


def _mixed_store():
    """A dense file and a sparse one (about one entry in twelve) whose
    entries share blocks, with some entries spanning blocks."""
    service = make_service()
    dense = service.create_log_file("/dense")
    sparse = service.create_log_file("/sparse")
    rng = random.Random(15)
    for i in range(600):
        log = sparse if i % 12 == 5 else dense
        size = rng.choice((6, 20, 45, 90, 400))
        log.append(bytes([i % 256]) * size, timestamped=rng.random() < 0.3)
    return service, dense, sparse


def _fragmented(service, entries):
    """How many of ``entries`` continue past the block they start in."""
    count = 0
    for entry in entries:
        parsed = service.reader.read_parsed_global(entry.location.global_block)
        if not parsed.is_complete(entry.location.slot):
            count += 1
    return count


class TestDecodeOnce:
    @pytest.mark.parametrize("which", ["dense", "sparse"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_scan_decodes_at_most_one_record_per_entry(
        self, decoded_ids, which, reverse
    ):
        service, dense, sparse = _mixed_store()
        log = dense if which == "dense" else sparse
        service.store.cache.clear()
        decoded_ids.clear()
        entries = list(log.entries(reverse=reverse))
        client_decodes = [i for i in decoded_ids if i != ENTRYMAP_ID]
        entrymap_decodes = len(decoded_ids) - len(client_decodes)
        assert entries
        # Only records that were returned got decoded...
        assert set(client_decodes) == {log.logfile_id}
        assert len(client_decodes) <= len(entries) + _fragmented(service, entries)
        # ...plus the entrymap records the locates read, once each.
        assert entrymap_decodes <= service.store.space.blocks_written

    def test_warm_rescan_decodes_only_fragmented_entries(self, decoded_ids):
        service, dense, _sparse = _mixed_store()
        first = list(dense.entries())
        decoded_ids.clear()
        again = list(dense.entries())
        assert [e.data for e in again] == [e.data for e in first]
        # Every block is resident and decoded: only the entries reassembled
        # across blocks are decoded again.
        assert len(decoded_ids) == _fragmented(service, first)

    def test_membership_and_time_probes_share_the_memo(self, decoded_ids):
        service, dense, sparse = _mixed_store()
        list(dense.entries())
        decoded_ids.clear()
        extent = service.reader.global_extent()
        for block in range(extent):
            service.reader.block_members(0, block)
        assert decoded_ids == []  # membership is a header peek, never a decode
        for block in range(extent):
            service.time_index.block_first_timestamp(block)
        list(sparse.entries())
        # The probes and the second file's scan decoded records the dense
        # scan had not; a second round decodes nothing new.
        decoded_ids.clear()
        for block in range(extent):
            service.time_index.block_first_timestamp(block)
        again = list(sparse.entries())
        assert len(decoded_ids) == _fragmented(service, again)

    def test_an_evicted_block_is_decoded_again(self, decoded_ids):
        """The memo dies with the block: nothing decoded is served once the
        raw bytes have left the cache."""
        service, dense, _sparse = _mixed_store()
        first = [e.data for e in dense.entries()]
        service.store.cache.clear()
        decoded_ids.clear()
        assert [e.data for e in dense.entries()] == first
        assert len([i for i in decoded_ids if i != ENTRYMAP_ID]) >= len(first)


# -- (b) sim side byte-identical ------------------------------------------------------

#: Recorded by running :func:`_golden_scenario` on the parent commit
#: (25ec8a1, per-entry ``entry_at`` iteration, no decode memo).
_GOLDEN_COMMON = {
    "entries": 955,
    "digest": "f271d71aa58211b4414ca636fb01087131e304ce1705155012f063ba1e9aa14b",
    "now_us": 4233062,
}
_GOLDEN = {
    0: {
        "read": {
            "block_accesses": 4394,
            "device_reads": 2791,
            "corrupt_blocks_found": 0,
            "corrupt_records_found": 0,
            "torn_entries_skipped": 0,
            "blocks_parsed": 2808,
            "locate_memo_hits": 352,
            "search": {
                "entrymap_entries_examined": 777,
                "accumulator_examinations": 11,
                "fallback_blocks_scanned": 0,
            },
        },
        "cache": {
            "hits": 1589,
            "misses": 2805,
            "insertions": 3075,
            "evictions": 3073,
            "parse_avoided": 1586,
            "prefetched": 0,
            "prefetch_hits": 0,
        },
    },
    3: {
        "read": {
            "block_accesses": 4394,
            "device_reads": 7370,
            "corrupt_blocks_found": 0,
            "corrupt_records_found": 0,
            "torn_entries_skipped": 0,
            "blocks_parsed": 2928,
            "locate_memo_hits": 352,
            "search": {
                "entrymap_entries_examined": 777,
                "accumulator_examinations": 11,
                "fallback_blocks_scanned": 0,
            },
        },
        "cache": {
            "hits": 1533,
            "misses": 2861,
            "insertions": 7654,
            "evictions": 7652,
            "parse_avoided": 1466,
            "prefetched": 4523,
            "prefetch_hits": 64,
        },
    },
}


def _golden_scenario(readahead):
    rng = random.Random(1987)
    service = make_service(cache_capacity_blocks=2, readahead_blocks=readahead)
    a = service.create_log_file("/a")
    b = service.create_log_file("/b")
    sub = a.create_sublog("sub")
    files = [a, b, sub]
    for i in range(240):
        log = files[rng.choices((0, 1, 2), weights=(5, 3, 2))[0]]
        size = rng.choice((8, 30, 70, 150, 420, 700))
        log.append(bytes([i % 251]) * size, timestamped=rng.random() < 0.5)

    digest = hashlib.sha256()
    count = 0

    def take(read_entry):
        nonlocal count
        count += 1
        digest.update(
            b"%d:%d:%d:%d:"
            % (
                read_entry.location.global_block,
                read_entry.location.slot,
                read_entry.logfile_id,
                -1 if read_entry.timestamp is None else read_entry.timestamp,
            )
        )
        digest.update(read_entry.data)

    # 1. Whole-file scans, both directions, a parent with its sublog, root.
    for entry in a.entries():
        take(entry)
    for entry in b.entries(reverse=True):
        take(entry)
    for entry in service.open_root().entries():
        take(entry)
    # 2. Two cursors advanced in turn: with a 2-block cache (one slot held
    #    by the pinned tail) each next() evicts the other's block in hand.
    live = [a.entries(), b.entries(reverse=True)]
    while live:
        for cursor in list(live):
            try:
                take(next(cursor))
            except StopIteration:
                live.remove(cursor)
    # 3. Cursors parked inside the tail block while appends rewrite it.
    for i in range(6):
        sub.append(b"t%d" % i, timestamped=False)
    tail_cursor = a.entries(reverse=True)
    take(next(tail_cursor))
    take(next(tail_cursor))
    sub.append(b"rewrites the tail block in hand", timestamped=True)
    take(next(tail_cursor))
    b.append(b"z" * 300)  # spills: the block in hand burns, a new tail opens
    for _ in range(5):
        take(next(tail_cursor))
    follower = sub.entries()
    for _ in range(3):
        take(next(follower))
    a.append(b"while the follower is parked")
    for entry in follower:
        take(entry)
    # 4. Time-bounded reads.
    mid = service.clock.now_us // 2
    for entry in a.entries(since=mid):
        take(entry)
    for entry in b.entries(before=mid, reverse=True):
        take(entry)
    return {
        "entries": count,
        "digest": digest.hexdigest(),
        "now_us": service.clock.now_us,
        "read": dataclasses.asdict(service.reader.stats),
        "cache": dataclasses.asdict(service.store.cache.stats),
    }


class TestSimSideUnchanged:
    @pytest.mark.parametrize("readahead", [0, 3])
    def test_scenario_matches_parent_commit(self, readahead):
        assert _golden_scenario(readahead) == {
            **_GOLDEN_COMMON,
            **_GOLDEN[readahead],
        }

    def test_warm_access_accounts_like_a_get_hit_plus_a_parsed_hit(self):
        service = make_service()
        log = service.create_log_file("/x")
        for i in range(40):
            log.append(b"%03d" % i * 20)
        list(log.entries())
        cache = service.store.cache
        key = service.store.cache_key(0, 1)
        assert cache.get_parsed(key) is not None
        before = cache.stats.snapshot()
        lru_before = list(cache._entries)
        pooled = cache.get_warm(key)
        delta = cache.stats.delta(before)
        assert pooled is cache._parsed[key]
        assert (delta.hits, delta.parse_avoided, delta.misses) == (1, 1, 0)
        assert list(cache._entries) == [k for k in lru_before if k != key] + [key]
        # No decoded object pooled: nothing is counted, nothing moves.
        cache.put(key, cache.peek(key))
        before = cache.stats.snapshot()
        lru_before = list(cache._entries)
        assert cache.get_warm(key) is None
        assert cache.stats.delta(before) == type(before)()
        assert list(cache._entries) == lru_before


# -- (c) garbage record in a CRC-valid block --------------------------------------------


def _plant_garbage_record(service, local_block):
    """Rewrite one burned block so a client record inside it is garbage
    while the block itself still parses (valid CRC, same geometry).
    Returns the slot of the garbage record."""
    volume = service.store.sequence.volumes[0]
    image = volume.read_data_block(local_block)
    parsed = parse_block(image)
    victim = next(
        slot
        for slot in parsed.entry_start_slots()
        if parsed.is_complete(slot)
        and peek_logfile_id(parsed.fragments[slot]) != ENTRYMAP_ID
        and slot > 0
    )
    builder = BlockBuilder(len(image), cont_in=parsed.cont_in)
    for slot, fragment in enumerate(parsed.fragments):
        if slot == victim:
            fragment = b"\xf7" + b"\x99" * (len(fragment) - 1)  # version 15
        if slot == 0 and parsed.cont_in:
            builder.add_continuation(fragment)
        else:
            builder.add_record(fragment, header_size=min(2, len(fragment)))
    builder.cont_out = parsed.cont_out
    volume.device._raw_overwrite(volume._device_block(local_block), builder.encode())
    service.store.cache.clear()
    return victim


class TestGarbageRecord:
    def make(self):
        service = make_service()
        log = service.create_log_file("/x")
        for i in range(60):
            log.append(b"entry-%03d-" % i + b"p" * 30, timestamped=i % 3 == 0)
        service.enable_observability()
        return service, log

    def test_reported_once_and_skipped(self):
        service, log = self.make()
        degree = service.store.config.degree_n
        before = [(e.location, e.data) for e in log.entries()]
        # Block ``degree`` is the home of the first level-1 entrymap record.
        slot = _plant_garbage_record(service, degree)
        with pytest.raises(CorruptRecord):
            peek_logfile_id(
                service.reader.read_parsed(0, degree).fragments[slot]
            )

        after = [(e.location, e.data) for e in log.entries()]
        assert after == [
            item
            for item in before
            if (item[0].global_block, item[0].slot) != (degree, slot)
        ]
        assert len(after) == len(before) - 1
        assert list(reversed(after)) == [
            (e.location, e.data) for e in log.entries(reverse=True)
        ]

        reader = service.reader
        assert reader.stats.corrupt_blocks_found == 0
        record = reader._fetch_entrymap(0, 1, degree)
        assert record is not None and record.cover_start == 0
        for _ in range(3):
            assert reader.block_members(0, degree) is not None
        service.store.cache.clear()
        reader.block_members(0, degree)
        assert reader.stats.corrupt_records_found == 1
        events = service.store.journal.by_kind("record.corrupt")
        assert [(e.attr("block"), e.attr("slot")) for e in events] == [
            (degree, slot)
        ]
        assert reader.stats.torn_entries_skipped == 0
