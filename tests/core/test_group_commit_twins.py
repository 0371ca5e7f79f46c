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

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import LogService
from repro.core.entrymap import EntrymapRecord
from repro.core.ids import ENTRYMAP_ID, VOLUME_SEQUENCE_ID

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


def run_twins(stream):
    """Feed ``stream`` — (path index, sizes, timestamped, with_seqs, force)
    batches — to both twins, check they agree, and return the batched one."""
    batched, singles = make_twin(), make_twin()
    seq = 0
    for path_index, sizes, timestamped, with_seqs, force in stream:
        path = PATHS[path_index]
        payloads = [bytes([(seq + i) % 256]) * size for i, size in enumerate(sizes)]
        seqs = list(range(seq, seq + len(sizes))) if with_seqs else None
        seq += len(sizes)
        got = [
            result.location
            for result in batched.append_many(
                path, payloads, timestamped=timestamped, client_seqs=seqs, force=force
            )
        ]
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
