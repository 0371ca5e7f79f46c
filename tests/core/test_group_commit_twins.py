"""Group commit against single appends, on twin services.

One payload stream goes through two services built alike: one packs it in
``append_many`` batches, the other in single ``append`` calls (a batch's
force rides on its last entry).  The files are a sublog chain two deep
plus an unrelated root file; payloads run past a block; blocks are 512
bytes with N = 4, so level-1 and level-2 boundaries and continuation
blocks at a boundary all occur; and a volume holds 48 blocks, so the
store rolls over.

The twins' clocks differ (a batch pays one timestamp charge), their
placement must not:

* every entry lands at the same ``EntryLocation``;
* every volume carries the same entrymap records at the same places;
* every volume's live ``EntrymapState`` (``acc``, ``next_emit``) agrees.

The writer notes a block's membership once per block and skips the
repeats; the last two checks are what show that no bit is lost by it.
Both twins run that same code, so the level-1 bitmaps — every written
level-1 record and each volume's open group — are also checked against
the blocks themselves (``LogReader.block_members``, what recovery
rebuilds from).
"""

import dataclasses
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LogService
from repro.core.entrymap import EntrymapRecord
from repro.core.ids import ENTRYMAP_ID, VOLUME_SEQUENCE_ID, EntryLocation
from repro.core.writer import AppendResult

BLOCK = 512
DEGREE = 4
PATHS = ["/a", "/a/b", "/a/b/c", "/r"]


def make_twin():
    service = LogService.create(
        block_size=BLOCK,
        degree_n=DEGREE,
        volume_capacity_blocks=48,
        cache_capacity_blocks=64,
    )
    for path in PATHS:
        service.create_log_file(path)
    return service


def entrymap_records(service):
    """(volume, location, decoded record) of every entrymap record written."""
    sequence = service.store.sequence
    return [
        (
            sequence.to_local(entry.location.global_block)[0],
            entry.location,
            EntrymapRecord.decode(entry.data),
        )
        for entry in service.reader.iter_entries(VOLUME_SEQUENCE_ID)
        if entry.logfile_id == ENTRYMAP_ID
    ]


def level1_from_media(service, volume, cover_start):
    """logfile id -> bitmap of the blocks in ``[cover_start, cover_start +
    N)`` holding its entries, read off the blocks."""
    reader = service.reader
    bitmaps = {}
    for local in range(cover_start, min(cover_start + DEGREE, reader.volume_extent(volume))):
        for logfile_id in reader.block_members(volume, local) or ():
            bitmaps[logfile_id] = bitmaps.get(logfile_id, 0) | 1 << (local % DEGREE)
    return bitmaps


def check_level1_against_media(service):
    for volume, _, record in entrymap_records(service):
        if record.level == 1:
            assert record.bitmaps == level1_from_media(service, volume, record.cover_start)
    for volume, state in enumerate(service.store.states):
        open_group = state.next_emit[1] - DEGREE
        assert state.acc[1] == level1_from_media(service, volume, open_group)


def run_twins(stream, results=None):
    """Feed ``stream`` — (path index, sizes, timestamped, with_seqs, force)
    batches — to both twins, check they agree, and return the batched one.

    ``with_seqs`` is a bool for the whole batch or one flag per entry; the
    batched twin's results are appended to ``results`` when it is given."""
    batched, singles = make_twin(), make_twin()
    seq = 0
    for path_index, sizes, timestamped, with_seqs, force in stream:
        path = PATHS[path_index]
        payloads = [bytes([(seq + i) % 256]) * size for i, size in enumerate(sizes)]
        if with_seqs is True:
            seqs = list(range(seq, seq + len(sizes)))
        elif with_seqs:
            seqs = [seq + i if flag else None for i, flag in enumerate(with_seqs)]
        else:
            seqs = None
        seq += len(sizes)
        packed = batched.append_many(
            path, payloads, timestamped=timestamped, client_seqs=seqs, force=force
        )
        if results is not None:
            results.extend(packed)
        got = [result.location for result in packed]
        want = [
            singles.append(
                path,
                payload,
                timestamped=timestamped,
                client_seq=None if seqs is None else seqs[i],
                force=force and i == len(payloads) - 1,
            ).location
            for i, payload in enumerate(payloads)
        ]
        assert got == want
    assert entrymap_records(batched) == entrymap_records(singles)
    assert len(batched.store.states) == len(singles.store.states)
    for mine, theirs in zip(batched.store.states, singles.store.states):
        assert mine.acc == theirs.acc
        assert mine.next_emit == theirs.next_emit
    check_level1_against_media(batched)
    for path in PATHS:
        assert [e.data for e in batched.read_entries(path)] == [
            e.data for e in singles.read_entries(path)
        ]
    return batched


sizes = st.lists(
    st.one_of(st.integers(0, 200), st.integers(400, 1200)), min_size=1, max_size=12
)
batch = st.tuples(
    st.integers(0, len(PATHS) - 1), sizes, st.booleans(), st.booleans(), st.booleans()
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(st.lists(batch, min_size=1, max_size=30))
def test_batches_place_like_singles(stream):
    run_twins(stream)


def test_seeded_stream_covers_boundaries_and_rollover():
    """A fixed stream long enough to hit every case the property is for."""
    rng = random.Random(36)
    stream = [
        (
            rng.randrange(len(PATHS)),
            [rng.choice((rng.randrange(200), rng.randrange(400, 1200))) for _ in range(32)],
            rng.random() < 0.7,
            rng.random() < 0.2,
            rng.random() < 0.5,
        )
        for _ in range(12)
    ]
    service = run_twins(stream)
    assert len(service.devices) >= 2
    assert any(record.level == 2 for _, _, record in entrymap_records(service))
    reader = service.reader
    continued_boundaries = [
        (volume, local)
        for volume in range(len(service.devices))
        for local in range(0, reader.volume_extent(volume), DEGREE)
        if (parsed := reader.read_parsed(volume, local)) is not None and parsed.cont_in
    ]
    assert continued_boundaries


#: The header size of a timestamped record (no client sequence number).
TIMESTAMPED_HEADER = 10


def edge_stream():
    """Batches whose sizes are chosen, record by record, against the open
    block of a probe twin fed the same records as singles (placement is the
    same either way), so that in the first batch

    * a record is one byte too long to fit whole in the open block, so it
      fragments, leaving one byte for the next block;
    * a record then leaves exactly a timestamped header's room, so the next
      record places only its header and continues;
    * a record ends exactly at the open block's last free byte;

    and the second batch mixes client sequence numbers with
    ``timestamped=False``, so its bare records both draw a block-start
    timestamp and ride behind one.
    """
    probe = make_twin()

    def free():
        return probe.writer._builder.free_bytes

    def put(size):
        probe.append(PATHS[0], bytes(size))
        sizes.append(size)

    sizes = []
    put(40)
    put(free() - TIMESTAMPED_HEADER + 1)  # one byte too long: fragments
    put(free() - TIMESTAMPED_HEADER - 2 - TIMESTAMPED_HEADER)  # leaves 10
    put(100)  # only its header fits
    put(free() - TIMESTAMPED_HEADER)  # ends at the last free byte
    put(30)
    mixed = (True, False, False, True, False, False, True, False)
    return [
        (0, sizes, True, False, False),
        (3, [20, 600, 5, 5, 300, 1100, 7, 480], False, mixed, True),
    ]


def test_whole_record_branch_at_its_edges():
    results = []
    service = run_twins(edge_stream(), results)
    reader = service.reader
    sequence = service.store.sequence

    def block_of(result):
        return reader.read_parsed(*sequence.to_local(result.location.global_block))

    too_long, header_only, exact = map(block_of, (results[1], results[3], results[4]))
    assert too_long.cont_out and results[1].location.slot == too_long.fragment_count - 1
    after = sequence.to_local(results[1].location.global_block + 1)
    assert len(reader.read_parsed(*after).fragment(0)) == 1
    assert results[2].location.global_block == results[3].location.global_block
    assert header_only.cont_out
    assert len(header_only.fragment(header_only.fragment_count - 1)) == TIMESTAMPED_HEADER
    used = exact.bounds[-1] - exact.bounds[0] + 2 * exact.fragment_count
    assert used == BLOCK - 14 and not exact.cont_out
    assert results[4].location.slot == exact.fragment_count - 1
    assert any(result.timestamp is None for result in results)
    for result in results:
        location = result.location
        rebuilt = AppendResult(
            EntryLocation(location.global_block, location.slot), result.timestamp
        )
        assert result == rebuilt and hash(result) == hash(rebuilt)
        assert result.entry_id == rebuilt.entry_id
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.timestamp = 0
        assert reader.entry_at(location).timestamp == result.timestamp
    locations = [result.location for result in results]
    rebuilt = [EntryLocation(loc.global_block, loc.slot) for loc in locations]
    assert sorted(locations) == sorted(rebuilt) == locations
