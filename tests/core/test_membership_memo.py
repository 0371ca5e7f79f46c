"""Sublog membership at one lookup answers what the parent walk answered.

``Catalog.chain`` / ``Catalog.tracked`` memoize each id's ancestor chain
(Section 2.1: a sublog entry "also belongs to" every ancestor).  On random
catalog trees — built live, and rebuilt by recovery's replay of the
catalog log file — and on blocks whose records carry unknown or garbage
owner ids, every membership question must get the answer the plain walk
up ``parent_id`` gives:

* the memoized chain, tracked set and lenient owner set;
* ``LogReader._block_matches`` against the old per-owner ``_belongs``, for
  every wanted id, the root and an id no catalog holds included;
* ``LogReader.block_members``, what recovery rebuilds the entrymap from;
* the ``sublog`` helpers.

A list handed out by ``ancestors()`` is the caller's: mutating it must not
change the next answer.  And the membership catch-alls catch only the
catalog's and the codec's own errors: any other error is a bug and
propagates.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import LogService, sublog
from repro.core.block import BlockBuilder
from repro.core.catalog import Catalog, CatalogError, CatalogRecord
from repro.core.entry import LogEntry
from repro.core.entrymap import UNTRACKED_IDS
from repro.core.fsck import check_service
from repro.core.ids import FIRST_CLIENT_ID, VOLUME_SEQUENCE_ID

BLOCK = 256
UNKNOWN = 4000


def walk(catalog, logfile_id):
    """The parent walk ``Catalog.ancestors`` did before it was memoized."""
    chain = []
    info = catalog.info(logfile_id)
    while True:
        chain.append(info.logfile_id)
        if info.is_root:
            return chain
        info = catalog.info(info.parent_id)


def old_belongs(catalog, owner, wanted):
    """``LogReader._belongs`` before the memo."""
    if owner == wanted or wanted == 0:
        return True
    try:
        return wanted in walk(catalog, owner)
    except CatalogError:
        return False


def old_tracked(catalog, owner):
    """The six copies of "ancestors minus UNTRACKED_IDS, else [id]"."""
    try:
        chain = walk(catalog, owner)
    except CatalogError:
        chain = [owner]
    return {a for a in chain if a not in UNTRACKED_IDS}


# A tree as a list of parent indexes: node i hangs under the root (-1) or
# under an earlier node.
_trees = st.integers(1, 12).flatmap(
    lambda size: st.tuples(*(st.integers(-1, index - 1) for index in range(size)))
)


def _check_catalog(catalog, ids):
    for logfile_id in ids:
        expected = walk(catalog, logfile_id)
        assert catalog.chain(logfile_id) == tuple(expected)
        assert catalog.chain(logfile_id) == tuple(expected)  # from the memo
        assert catalog.tracked(logfile_id) == old_tracked(catalog, logfile_id)
        assert catalog.owner_tracked(logfile_id) == old_tracked(catalog, logfile_id)
        handed_out = catalog.ancestors(logfile_id)
        assert handed_out == expected
        handed_out.append(UNKNOWN)
        handed_out.reverse()
        assert catalog.ancestors(logfile_id) == expected
        assert sublog.depth(catalog, logfile_id) == len(expected) - 1
        for other in ids:
            assert sublog.is_member(catalog, logfile_id, other) == (
                other == VOLUME_SEQUENCE_ID or other in expected
            )
            other_chain = walk(catalog, other)
            assert sublog.common_ancestor(catalog, logfile_id, other) == next(
                a for a in expected if a in other_chain
            )
    for unknown in (UNKNOWN, max(ids) + 1):
        with pytest.raises(CatalogError):
            catalog.chain(unknown)
        with pytest.raises(CatalogError):
            catalog.tracked(unknown)
        assert catalog.owner_tracked(unknown) == {unknown}
        assert unknown not in catalog._chains and unknown not in catalog._tracked


@settings(max_examples=60, deadline=None)
@given(parents=_trees, asked=st.lists(st.integers(0, 11), max_size=6))
def test_memo_equals_the_walk_live_and_after_replay(parents, asked):
    catalog = Catalog()
    ids = [VOLUME_SEQUENCE_ID]
    records = []
    for index, parent in enumerate(parents):
        logfile_id = catalog.allocate_id()
        # Some answers are memoized while the tree is still growing.
        for early in asked:
            if early < len(ids):
                catalog.chain(ids[early])
        record = catalog.make_create_record(
            logfile_id,
            f"n{index}",
            ids[parent + 1],
            0o644,
            index,
        )
        catalog.apply(record)
        records.append(record.encode())
        ids.append(logfile_id)
    _check_catalog(catalog, ids)

    # Recovery's replay: decode each catalog log entry, apply in order.
    replayed = Catalog()
    for raw in records:
        replayed.apply(CatalogRecord.decode(raw))
    _check_catalog(replayed, ids)
    for logfile_id in ids:
        assert replayed.chain(logfile_id) == catalog.chain(logfile_id)


def _forged_image(draw, ids):
    """A CRC-valid block whose records name known, unknown and garbage
    owners."""
    builder = BlockBuilder(BLOCK, cont_in=draw(st.booleans()))
    if builder.cont_in:
        builder.add_continuation(draw(st.binary(min_size=1, max_size=60)))
    owners = st.one_of(st.sampled_from(ids), st.integers(0, 4095))
    records = st.one_of(
        st.builds(
            lambda owner, size, stamp: LogEntry(
                owner, b"r" * size, timestamp=stamp
            ).encode(),
            owners,
            st.integers(0, 40),
            st.one_of(st.none(), st.integers(0, (1 << 64) - 1)),
        ),
        st.binary(min_size=1, max_size=12),  # garbage header
    )
    for record in draw(st.lists(records, max_size=5)):
        if builder.cont_out or not builder.add_record(record, min(2, len(record))):
            break
    return builder.encode()


@settings(max_examples=25, deadline=None)
@given(parents=_trees, data=st.data())
def test_block_filter_equals_old_belongs_after_recovery(parents, data):
    service = LogService.create(
        block_size=BLOCK, degree_n=4, volume_capacity_blocks=64, cache_capacity_blocks=4
    )
    paths = []
    for index, parent in enumerate(parents):
        path = (paths[parent] if parent >= 0 else "") + f"/n{index}"
        service.create_log_file(path)
        paths.append(path)
    logs = [service.open_log_file(path) for path in paths]
    for _ in range(data.draw(st.integers(4, 30))):
        data.draw(st.sampled_from(logs)).append(
            b"e" * data.draw(st.integers(0, 300)),
            force=data.draw(st.booleans()),
        )
    ids = [VOLUME_SEQUENCE_ID] + [log.logfile_id for log in logs]
    logs[0].append(b"f" * BLOCK)  # at least one burned block to forge
    volume = service.store.sequence.volumes[0]
    written = volume.next_data_block
    for local in data.draw(st.sets(st.integers(0, written - 1), max_size=3)):
        image = _forged_image(data.draw, ids)
        volume.device._raw_overwrite(volume._device_block(local), image)
    remains = service.crash()
    service, _ = LogService.mount(remains.devices, remains.nvram)
    catalog, reader = service.store.catalog, service.reader
    wanted_ids = ids + [UNKNOWN, FIRST_CLIENT_ID + len(parents)]
    for global_block in range(reader.global_extent()):
        parsed = reader.read_parsed_global(global_block)
        owners = [] if parsed is None else reader.record_ids(parsed)
        for wanted in wanted_ids:
            assert reader._block_matches(global_block, wanted) == [
                slot
                for slot, owner in enumerate(owners)
                if owner is not None and old_belongs(catalog, owner, wanted)
            ]
        if parsed is None:
            continue
        volume_index, local = service.store.sequence.to_local(global_block)
        expected = set()
        for owner in owners:
            if owner is not None:
                expected |= old_tracked(catalog, owner)
        if parsed.cont_in:
            carried = reader._continuation_owner(volume_index, local)
            if carried is not None:
                expected |= old_tracked(catalog, carried)
        assert reader.block_members(volume_index, local) == expected


# -- the catch-alls catch only what they mean -------------------------------------


class _Bug(Exception):
    pass


def _raise_bug(*args, **kwargs):
    raise _Bug("not an unknown owner")


def test_fsck_lets_a_non_catalog_error_through(monkeypatch):
    service = LogService.create(block_size=BLOCK, degree_n=4, volume_capacity_blocks=64)
    service.create_log_file("/app").append(b"x" * 40, force=True)
    monkeypatch.setattr(Catalog, "tracked", _raise_bug)
    with pytest.raises(_Bug):
        check_service(service)


def test_relocation_renote_lets_a_non_codec_error_through(monkeypatch):
    service = LogService.create(block_size=BLOCK, degree_n=4, volume_capacity_blocks=64)
    service.create_log_file("/app").append(b"x" * 40)
    image = service.writer.tail_image()
    monkeypatch.setattr("repro.core.entry.decode_record", _raise_bug)
    with pytest.raises(_Bug):
        service.writer._renote_members(image, 5)
