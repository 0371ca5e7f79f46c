"""Regression tests for entrymap accumulator edge cases.

Two bugs were found during development, both now locked in:

1. the level-L accumulator must also reflect memberships still parked in
   lower-level accumulators (the nested partial groups);
2. membership notes for blocks past a not-yet-emitted boundary (deferred
   emission) must be parked, not swallowed by the pending emission.

``entries_due`` returns early when no boundary is due; a property test
holds that answer to the walk over every level it short-cuts.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.entrymap import EntrymapSearch, EntrymapState, SearchStats


def drive(state, memberships):
    """Emit-then-note per block, exactly like the writer."""
    records = {}
    for block, ids in enumerate(memberships):
        for level, boundary in state.entries_due(block):
            records[(level, boundary)] = state.emit(level, boundary)
        if ids:
            state.note_membership(block, ids)
    return records


class TestNestedAccumulators:
    def test_level2_acc_sees_level1_partial_group(self):
        """A membership noted moments ago (level-1 acc) must be visible
        through the level-2 accumulator bitmap."""
        state = EntrymapState(degree=4, data_capacity=256)
        drive(state, [set(), set(), {8}])  # block 2 holds logfile 8
        cover_start, bitmap = state.acc_bitmap(2, 8)
        assert cover_start == 0
        assert bitmap & 1  # sub-group [0,4) flagged via the level-1 acc

    def test_level3_acc_sees_level1_partial_group(self):
        state = EntrymapState(degree=4, data_capacity=4**4)
        memberships = [set()] * 17 + [{9}]
        drive(state, memberships)
        _, bitmap = state.acc_bitmap(3, 9)
        assert bitmap & (1 << 1)  # block 17 is in sub-group [16,32)

    def test_folded_and_live_bits_combine(self):
        state = EntrymapState(degree=4, data_capacity=256)
        # Logfile 8 in block 1 (group 0, folded at boundary 4) and block 5
        # (live level-1 acc).
        drive(state, [set(), {8}, set(), set(), set(), {8}])
        _, bitmap = state.acc_bitmap(2, 8)
        assert bitmap & 0b11 == 0b11


class TestDeferredEmissionParking:
    def test_note_past_boundary_is_parked(self):
        state = EntrymapState(degree=4, data_capacity=256)
        drive(state, [{8}, set(), set(), set()])  # blocks 0..3 written
        # Boundary 4 is now due but NOT yet emitted (deferred); a note for
        # block 4 arrives first.
        assert state.entries_due(4) == [(1, 4)]
        state.note_membership(4, {9})
        record = state.emit(1, 4)
        # The emitted record covers [0,4): logfile 9 must NOT leak into it.
        assert 9 not in record.bitmaps
        assert record.bitmaps[8] == 0b0001
        # And the parked note must now be live in the accumulator.
        _, bitmap = state.acc_bitmap(1, 9)
        assert bitmap & 1  # block 4 = bit 0 of group [4,8)

    def test_parked_notes_visible_to_search_before_emission(self):
        state = EntrymapState(degree=4, data_capacity=256)
        memberships = {}

        def scan(block):
            return memberships.get(block, frozenset())

        records = {}
        search = EntrymapSearch(
            state, fetch=lambda lvl, b: records.get((lvl, b)), scan=scan
        )
        for block in range(4):
            for level, boundary in state.entries_due(block):
                records[(level, boundary)] = state.emit(level, boundary)
        # Emission for boundary 4 deferred; note for block 4 parked.
        state.note_membership(4, {8})
        memberships[4] = frozenset({8})
        stats = SearchStats()
        assert search.locate_prev(8, 6, stats) == 4

    def test_multiple_parked_notes_replay_in_order(self):
        state = EntrymapState(degree=4, data_capacity=256)
        drive(state, [set()] * 4)
        state.note_membership(4, {8})
        state.note_membership(5, {9})
        state.note_membership(6, {8})
        state.emit(1, 4)
        _, bm8 = state.acc_bitmap(1, 8)
        _, bm9 = state.acc_bitmap(1, 9)
        assert bm8 == 0b101  # blocks 4 and 6
        assert bm9 == 0b010  # block 5

    def test_untracked_ids_never_parked(self):
        state = EntrymapState(degree=4, data_capacity=256)
        drive(state, [set()] * 4)
        state.note_membership(4, {0, 1})  # volume-sequence + entrymap ids
        assert state._pending_level1 == []


def full_walk(state, opening_block):
    """What ``entries_due`` answers, walking every level every time."""
    due = []
    for level in range(1, state.max_level + 1):
        boundary = state.next_emit[level]
        while boundary <= opening_block:
            due.append((level, boundary))
            boundary += state.degree**level
    return sorted(due, key=lambda pair: (pair[1], pair[0]))


class TestEntriesDueEarlyReturn:
    @settings(max_examples=200)
    @given(
        st.integers(2, 6),
        st.integers(0, 300),
        st.lists(
            st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(-2, 400)),
            max_size=60,
        ),
    )
    def test_matches_the_full_walk_as_the_writer_drives_it(
        self, degree, capacity, steps
    ):
        """Blocks open in order, some skipped (invalidated), and only a
        prefix of what is due gets emitted: the rest stays due, deferred."""
        state = EntrymapState(degree, capacity)
        block = 0
        for advance, emitted, probe in steps:
            block += advance
            assert state.entries_due(probe) == full_walk(state, probe)
            due = state.entries_due(block)
            assert due == full_walk(state, block)
            for level, boundary in due[:emitted]:
                if boundary == state.next_emit[level]:
                    state.emit(level, boundary)

    @given(st.integers(2, 6), st.integers(0, 300), st.data())
    def test_matches_the_full_walk_for_any_boundaries(self, degree, capacity, data):
        """Recovery sets the boundaries directly; any values hold."""
        state = EntrymapState(degree, capacity)
        levels = state.max_level
        state.next_emit[1:] = data.draw(
            st.lists(st.integers(0, 400), min_size=levels, max_size=levels)
        )
        probe = data.draw(st.integers(-2, 500))
        assert state.entries_due(probe) == full_walk(state, probe)
