"""The historic read path, pinned: what it counts and what its probe sees.

(a) *Counter pin.*  A seeded in-memory store exercises every part of the
read path the benchmark of record times — files of skewed sizes, a cache
far smaller than the data, a volume roll-over, by-time reads in both
directions, entries spanning blocks, and a follower reading what was just
appended.  Its ledger-style snapshot (``ReadStats`` with the search
counters, ``CacheStats``, every device's counters, ``SpaceStats``, the
writer's tail refreshes and the simulated clock) must equal values recorded
before the read path was reworked for wall-clock speed.  A change meant to
be wall-only that moves any count fails here, in seconds.

(b) *Probe equivalence.*  The time search probes a block's first-entry
timestamp with a header peek.  On hostile blocks — continuation-only, a
``MINIMAL`` first record, a garbage first header before a good one,
unreadable and invalidated blocks — it must answer exactly what decoding
each start slot in turn answers.
"""

import dataclasses
import hashlib
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EntryId, LogService
from repro.core.block import BlockBuilder
from repro.core.entry import LogEntry

# -- (a) counter pin -------------------------------------------------------------


def _scenario(readahead):
    rng = random.Random(26)
    service = LogService.create(
        block_size=512,
        degree_n=8,
        volume_capacity_blocks=320,
        cache_capacity_blocks=12,
        readahead_blocks=readahead,
    )
    parent = service.create_log_file("/app")
    files = [parent.create_sublog(f"f{rank}") for rank in range(6)]
    files.append(files[0].create_sublog("deep"))
    weights = [1 / (rank + 1) ** 1.2 for rank in range(len(files))]
    stamps = {log.path: [] for log in files}
    sizes = (8, 40, 120, 300, 900)

    def append(log, **kwargs):
        result = log.append(rng.randbytes(rng.choice(sizes)), **kwargs)
        if result.timestamp is not None:
            stamps[log.path].append(result.timestamp)
        return result

    for index in range(700):
        log = rng.choices(files, weights)[0]
        if index % 50 == 49:
            batch = [rng.randbytes(rng.choice(sizes)) for _ in range(8)]
            results = log.append_many(batch, force=True)
            stamps[log.path].extend(r.timestamp for r in results)
        else:
            append(log, force=index % 17 == 0, timestamped=rng.random() < 0.9)

    digest = hashlib.sha256()
    count = 0

    def take(entries):
        nonlocal count
        for entry in entries:
            count += 1
            digest.update(
                b"%d:%d:%d:%d:"
                % (
                    entry.location.global_block,
                    entry.location.slot,
                    entry.logfile_id,
                    -1 if entry.timestamp is None else entry.timestamp,
                )
            )
            digest.update(entry.data)

    # By-time reads in both directions at historic times, sparse files
    # included, plus reads by entry id.
    for index in range(150):
        log = rng.choice(files)
        if not stamps[log.path]:
            continue
        stamp = rng.choice(stamps[log.path])
        if index % 3 == 0:
            take(islice(log.entries(since=stamp), 2))
        elif index % 3 == 1:
            take(islice(log.entries(before=stamp, reverse=True), 2))
        else:
            found = service.read_entry(log, EntryId(stamp))
            take([found] if found is not None else [])
    take(islice(parent.entries(since=service.clock.now_us // 3), 40))

    # A follower per file reads what was just appended.
    cursors = {}
    for log in files[:3]:
        newest = log.tail(1)
        cursors[log.path] = newest[0].location if newest else None
    for _ in range(60):
        log = rng.choice(files[:3])
        append(log, force=rng.random() < 0.2)
        cursor = cursors[log.path]
        new = list(log.entries(after=cursor) if cursor else log.entries())
        take(new)
        if new:
            cursors[log.path] = new[-1].location

    return {
        "volumes": len(service.devices),
        "entries": count,
        "digest": digest.hexdigest(),
        "now_us": service.clock.now_us,
        "tail_refreshes": service.writer.tail_refreshes,
        "read": dataclasses.asdict(service.read_stats),
        "cache": dataclasses.asdict(service.cache_stats),
        "space": dataclasses.asdict(service.space_stats),
        "devices": [
            {
                field.name: getattr(device.stats, field.name)
                for field in dataclasses.fields(device.stats)
                if isinstance(getattr(device.stats, field.name), int)
            }
            for device in service.devices
        ],
    }


#: Recorded by running :func:`_scenario` on the commit before the historic
#: read was reworked (header-only probe, span-free miss, lazy fragments).
_GOLDEN_COMMON = {
    "volumes": 2,
    "entries": 347,
    "digest": "26a2a49b968e8fb49e8f450d32260e5bc94ff3ee9bfa36084f92b3a8cbded482",
    "now_us": 8717896,
    "tail_refreshes": 768,
    "space": {
        "client_data": 244000,
        "entry_headers": 8308,
        "size_index": 2740,
        "entrymap": 2977,
        "catalog": 267,
        "forced_padding": 0,
        "blocks_written": 518,
        "client_entries": 858,
    },
}
_GOLDEN = {
    0: {
        "read": {
            "block_accesses": 4242,
            "device_reads": 2183,
            "corrupt_blocks_found": 0,
            "corrupt_records_found": 0,
            "torn_entries_skipped": 0,
            "blocks_parsed": 2276,
            "locate_memo_hits": 117,
            "search": {
                "entrymap_entries_examined": 519,
                "accumulator_examinations": 165,
                "fallback_blocks_scanned": 0,
            },
        },
        "cache": {
            "hits": 2056,
            "misses": 2186,
            "insertions": 2705,
            "evictions": 2693,
            "parse_avoided": 1966,
            "prefetched": 0,
            "prefetch_hits": 0,
        },
        "devices": [
            {
                "reads": 1560,
                "writes": 320,
                "invalidations": 0,
                "tail_queries": 0,
                "written_probes": 0,
                "seeks": 1880,
            },
            {
                "reads": 623,
                "writes": 200,
                "invalidations": 0,
                "tail_queries": 0,
                "written_probes": 0,
                "seeks": 823,
            },
        ],
    },
    4: {
        "read": {
            "block_accesses": 4242,
            "device_reads": 3781,
            "corrupt_blocks_found": 0,
            "corrupt_records_found": 0,
            "torn_entries_skipped": 0,
            "blocks_parsed": 2400,
            "locate_memo_hits": 117,
            "search": {
                "entrymap_entries_examined": 519,
                "accumulator_examinations": 165,
                "fallback_blocks_scanned": 0,
            },
        },
        "cache": {
            "hits": 2682,
            "misses": 1560,
            "insertions": 4074,
            "evictions": 4062,
            "parse_avoided": 1842,
            "prefetched": 1995,
            "prefetch_hits": 750,
        },
        "devices": [
            {
                "reads": 2866,
                "writes": 320,
                "invalidations": 0,
                "tail_queries": 0,
                "written_probes": 0,
                "seeks": 1842,
            },
            {
                "reads": 915,
                "writes": 200,
                "invalidations": 0,
                "tail_queries": 0,
                "written_probes": 0,
                "seeks": 791,
            },
        ],
    },
}


@pytest.mark.parametrize("readahead", [0, 4])
def test_read_path_counts_match_the_recorded_ledger(readahead):
    assert _scenario(readahead) == {**_GOLDEN_COMMON, **_GOLDEN[readahead]}


# -- (b) probe equivalence -------------------------------------------------------

_BLOCK = 256


def _decoded_first_timestamp(reader, global_block):
    """The decode-based probe: decode each start slot in turn; the first
    that decodes answers (its timestamp, None for a MINIMAL header)."""
    parsed = reader.read_parsed_global(global_block)
    if parsed is None:
        return None
    for slot in parsed.entry_start_slots():
        header = reader.entry_header_at(parsed, slot)
        if header is not None:
            return header.timestamp
    return None


_records = st.one_of(
    # A well-formed record of any header form.
    st.builds(
        lambda logfile_id, size, timestamp, seq: LogEntry(
            logfile_id,
            b"r" * size,
            timestamp=timestamp,
            client_seq=seq if timestamp is not None else None,
        ).encode(),
        st.integers(0, 4095),
        st.integers(0, 40),
        st.one_of(st.none(), st.integers(0, (1 << 64) - 1)),
        st.one_of(st.none(), st.integers(0, (1 << 32) - 1)),
    ),
    # Garbage: an unknown version nibble, or too short for its form.
    st.binary(min_size=1, max_size=12),
)


@st.composite
def _hostile_images(draw):
    """A CRC-valid block image, or an unreadable one."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.binary(min_size=_BLOCK, max_size=_BLOCK))
    builder = BlockBuilder(_BLOCK, cont_in=draw(st.booleans()))
    if builder.cont_in:
        builder.add_continuation(draw(st.binary(min_size=1, max_size=200)))
    for record in draw(st.lists(_records, max_size=5)):
        if builder.cont_out or not builder.add_record(record, min(2, len(record))):
            break
    if draw(st.booleans()) and not builder.is_empty:
        builder.cont_out = True  # the last fragment "continues" elsewhere
    return builder.encode()


@settings(max_examples=60, deadline=None)
@given(st.lists(_hostile_images(), min_size=1, max_size=6), st.data())
def test_header_probe_answers_what_decoding_answers(images, data):
    service = LogService.create(
        block_size=_BLOCK,
        degree_n=4,
        volume_capacity_blocks=64,
        cache_capacity_blocks=4,
    )
    log = service.create_log_file("/x")
    while service.store.sequence.volumes[0].next_data_block < len(images) + 1:
        log.append(b"p" * 100)
    volume = service.store.sequence.volumes[0]
    for local, image in enumerate(images, start=1):
        volume.device._raw_overwrite(volume._device_block(local), image)
    for local in data.draw(st.sets(st.integers(1, len(images)), max_size=2)):
        volume.invalidate_data_block(local)
    service.store.cache.clear()
    reader, time_index = service.reader, service.time_index
    for block in range(reader.global_extent() + 1):
        peeked = time_index.block_first_timestamp(block)
        # The same block again, now decoded through the memo the peek skipped.
        assert _decoded_first_timestamp(reader, block) == peeked
        assert time_index.block_first_timestamp(block) == peeked
