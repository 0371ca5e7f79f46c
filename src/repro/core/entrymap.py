"""The entrymap: Clio's hierarchical location index (Section 2.1, Figure 2).

The server maintains a special log file — the *entrymap log file* — whose
entries "effectively form a search tree of degree N":

* a **level-1** entrymap entry appears every N blocks and carries, per
  active log file with entries in the previous N blocks, an N-bit bitmap of
  which of those blocks contain such entries;
* a **level-2** entry appears every N² blocks and its bitmaps indicate
  which *groups of N blocks* contain entries; and so on.

This module provides three pieces:

* :class:`EntrymapRecord` — the wire format of one entrymap log entry.
  Each record is self-describing (level, degree, coverage start), which
  makes the reader robust to relocated records: the information is "not
  needed for correctness and is present only to provide efficient access".
* :class:`EntrymapState` — the per-volume in-memory accumulators: partial
  bitmaps for the group each level is currently inside, plus the boundary
  bookkeeping that says which entries have been emitted.  This is exactly
  the volatile state recovery must reconstruct after a crash.
* :class:`EntrymapSearch` — the degree-N tree search.  It is written
  against two callbacks (fetch a written entrymap record; consult the
  in-memory accumulator) so it can be unit-tested against a brute-force
  oracle without a device underneath.

Positions throughout are *volume-local* data-block addresses: entrymap
entries live at well-known positions "on the log device", so each medium
carries a self-contained tree.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields
from typing import Callable, Iterable

from repro.core.ids import ENTRYMAP_ID, VOLUME_SEQUENCE_ID

__all__ = [
    "EntrymapRecord",
    "EntrymapState",
    "EntrymapSearch",
    "SearchStats",
    "UNTRACKED_IDS",
    "coverage_of",
    "fold_group",
    "max_level_for",
]

#: Log files with no entrymap bitmaps (Section 2.1, footnote 6): the volume
#: sequence log (it is everything) and the entrymap log itself (it lives at
#: well-known positions).
UNTRACKED_IDS = frozenset({VOLUME_SEQUENCE_ID, ENTRYMAP_ID})

_FIXED = struct.Struct(">BHQH")  # level, degree, cover_start, logfile count
_PAIR_ID = struct.Struct(">H")
#: ``(logfile id, bitmap bytes)`` per bitmap width, compiled on first use.
_PAIRS: dict[int, struct.Struct] = {}


@dataclass(frozen=True, slots=True)
class EntrymapRecord:
    """One entrymap log entry: level-``level`` coverage of N^level blocks.

    ``bitmaps[f]`` is an N-bit integer; bit ``j`` (LSB = j0) set means the
    sub-range ``[cover_start + j*granule, cover_start + (j+1)*granule)``
    contains at least one entry of log file ``f`` (or of one of its
    sublogs), where ``granule = degree ** (level-1)``.
    """

    level: int
    degree: int
    cover_start: int
    bitmaps: dict[int, int]

    @property
    def granule(self) -> int:
        return self.degree ** (self.level - 1)

    @property
    def span(self) -> int:
        return self.degree**self.level

    @property
    def cover_end(self) -> int:
        return self.cover_start + self.span

    def encode(self) -> bytes:
        bitmap_bytes = (self.degree + 7) // 8
        parts = [
            _FIXED.pack(self.level, self.degree, self.cover_start, len(self.bitmaps))
        ]
        for logfile_id in sorted(self.bitmaps):
            bitmap = self.bitmaps[logfile_id]
            parts.append(_PAIR_ID.pack(logfile_id))
            parts.append(bitmap.to_bytes(bitmap_bytes, "big"))
        return b"".join(parts)

    @classmethod
    def decode(cls, payload: bytes) -> "EntrymapRecord":
        if len(payload) < _FIXED.size:
            raise ValueError(f"entrymap record of {len(payload)} bytes has no header")
        level, degree, cover_start, count = _FIXED.unpack_from(payload, 0)
        if level < 1 or degree < 2:
            raise ValueError(f"bad entrymap record (level={level}, N={degree})")
        bitmap_bytes = (degree + 7) // 8
        expected = _FIXED.size + count * (2 + bitmap_bytes)
        if len(payload) < expected:
            raise ValueError(
                f"entrymap record truncated: {len(payload)} < {expected} bytes"
            )
        pairs = _PAIRS.get(bitmap_bytes)
        if pairs is None:
            pairs = _PAIRS[bitmap_bytes] = struct.Struct(f">H{bitmap_bytes}s")
        from_bytes = int.from_bytes  # big-endian by default
        bitmaps = {
            logfile_id: from_bytes(bitmap)
            for logfile_id, bitmap in pairs.iter_unpack(payload[_FIXED.size : expected])
        }
        # Filled slot by slot: the frozen __init__ pays a setattr per field.
        record = cls.__new__(cls)
        for setter, value in zip(_SETTERS, (level, degree, cover_start, bitmaps)):
            setter(record, value)
        return record


_SETTERS = [vars(EntrymapRecord)[f.name].__set__ for f in fields(EntrymapRecord)]


def coverage_of(payload: bytes) -> tuple[int, int] | None:
    """An encoded record's ``(level, cover_start)``, bitmaps not decoded."""
    if len(payload) < _FIXED.size:
        return None
    level, _degree, cover_start, _count = _FIXED.unpack_from(payload, 0)
    return level, cover_start


def fold_group(upper: dict[int, int], logfile_ids: Iterable[int], bit: int) -> None:
    """OR ``bit`` (one group of the level above) into ``upper``'s bitmap
    of every log file in ``logfile_ids`` — the fold of Figure 2's tree that
    emission and recovery both make."""
    get = upper.get
    for logfile_id in logfile_ids:
        upper[logfile_id] = get(logfile_id, 0) | bit


def max_level_for(degree: int, data_capacity: int) -> int:
    """Highest entrymap level with any boundary inside the volume."""
    level = 0
    span = degree
    while span <= data_capacity:
        level += 1
        span *= degree
    return level


@dataclass(slots=True)
class SearchStats:
    """Instrumentation for one locate operation (Table 1's columns)."""

    entrymap_entries_examined: int = 0
    accumulator_examinations: int = 0
    fallback_blocks_scanned: int = 0


class EntrymapState:
    """Per-volume in-memory entrymap accumulators.

    ``acc[i]`` (for level i, 1-based) maps logfile id → partial bitmap for
    the level-i group currently being filled; ``next_emit[i]`` is the
    boundary at which the next level-i entrymap entry is due.  Emission
    *folds* the completed group into the accumulator one level up, so a
    level-(i+1) bitmap is the OR-reduction of its N level-i groups, exactly
    as Figure 2 depicts.
    """

    def __init__(self, degree: int, data_capacity: int) -> None:
        if degree < 2:
            raise ValueError(f"entrymap degree must be >= 2, got {degree}")
        self.degree = degree
        self.data_capacity = data_capacity
        self.max_level = max_level_for(degree, data_capacity)
        levels = self.max_level
        # Index 0 unused; levels are 1-based for clarity.
        self.acc: list[dict[int, int]] = [dict() for _ in range(levels + 1)]
        self.next_emit: list[int] = [0] + [degree**i for i in range(1, levels + 1)]
        # Membership notes for blocks past the level-1 boundary whose entry
        # has not been emitted yet (emission can be deferred when the
        # boundary block opens with a continuation fragment).
        self._pending_level1: list[tuple[int, frozenset[int]]] = []

    # -- write-side maintenance -------------------------------------------

    def note_membership(
        self, local_block: int, logfile_ids: Iterable[int]
    ) -> None:
        """Record that ``local_block`` contains entries of ``logfile_ids``."""
        if self.max_level == 0:
            return
        tracked = frozenset(
            logfile_id
            for logfile_id in logfile_ids
            if logfile_id not in UNTRACKED_IDS
        )
        if not tracked:
            return
        if local_block >= self.next_emit[1]:
            # The note belongs to a group whose predecessor has not been
            # emitted yet; park it so the pending emission cannot swallow it.
            self._pending_level1.append((local_block, tracked))
            return
        bit = 1 << (local_block % self.degree)
        acc1 = self.acc[1]
        # sorted: accumulator insertion order must not follow set hash
        # order, or the emitted entrymap record layout goes nondeterministic.
        for logfile_id in sorted(tracked):
            acc1[logfile_id] = acc1.get(logfile_id, 0) | bit

    def entries_due(self, opening_block: int) -> list[tuple[int, int]]:
        """(level, boundary) pairs due before ``opening_block`` is filled.

        Returned in ascending level order; the caller must emit them in
        that order (via :meth:`emit`) so folding cascades correctly.  A
        block address may be past its boundary when invalidated blocks were
        skipped — the entry is still emitted, covering its nominal range.
        """
        next_emit = self.next_emit
        # Nothing is due at N-1 of N block opens: one look at the boundaries.
        if self.max_level == 0 or opening_block < min(next_emit[1:]):
            return []
        due: list[tuple[int, int]] = []
        for level in range(1, self.max_level + 1):
            boundary = next_emit[level]
            while boundary <= opening_block:
                due.append((level, boundary))
                boundary += self.degree**level
        due.sort(key=lambda pair: (pair[1], pair[0]))
        return due

    def emit(self, level: int, boundary: int) -> EntrymapRecord:
        """Produce the level-``level`` record due at ``boundary`` and fold.

        The accumulator for ``level`` is folded into level+1 and cleared,
        and ``next_emit[level]`` advances by N^level.
        """
        if boundary != self.next_emit[level]:
            raise ValueError(
                f"level-{level} emission out of order: expected boundary "
                f"{self.next_emit[level]}, got {boundary}"
            )
        span = self.degree**level
        record = EntrymapRecord(
            level=level,
            degree=self.degree,
            cover_start=boundary - span,
            bitmaps={f: bm for f, bm in self.acc[level].items() if bm},
        )
        if level < self.max_level and record.bitmaps:
            group_index = ((boundary - span) % (span * self.degree)) // span
            fold_group(self.acc[level + 1], record.bitmaps, 1 << group_index)
        self.acc[level].clear()
        self.next_emit[level] = boundary + span
        if level == 1 and self._pending_level1:
            pending, self._pending_level1 = self._pending_level1, []
            for block, ids in pending:
                self.note_membership(block, ids)
        return record

    # -- read-side access ----------------------------------------------------

    def last_emitted_boundary(self, level: int) -> int:
        """Boundary of the most recently emitted level-``level`` entry."""
        return self.next_emit[level] - self.degree**level

    def acc_bitmap(self, level: int, logfile_id: int) -> tuple[int, int]:
        """(cover_start, bitmap) of the in-memory partial group at ``level``.

        Memberships of very recent blocks live only in the *lowest* level's
        accumulator until their group completes and is folded upward, so
        the effective level-``level`` bitmap is the stored one OR'd with
        one synthesized bit per lower-level accumulator that is non-empty
        for this log file (the nested partial groups of Figure 2's tree).
        """
        span = self.degree**level
        cover_start = self.next_emit[level] - span
        granule = span // self.degree
        bitmap = self.acc[level].get(logfile_id, 0)
        for lower in range(1, level):
            if self.acc[lower].get(logfile_id, 0):
                lower_start = self.next_emit[lower] - self.degree**lower
                bitmap |= 1 << ((lower_start - cover_start) // granule)
        for block, ids in self._pending_level1:
            if logfile_id in ids and cover_start <= block < cover_start + span:
                bitmap |= 1 << ((block - cover_start) // granule)
        return cover_start, bitmap

    def pending_bitmap(self, level: int, cover_start: int, logfile_id: int) -> int:
        """Bitmap contribution of parked (pending) notes for an arbitrary
        group — used by the search when it asks about groups beyond the
        accumulator's own (possible while emission is deferred)."""
        span = self.degree**level
        granule = span // self.degree
        bitmap = 0
        for block, ids in self._pending_level1:
            if logfile_id in ids and cover_start <= block < cover_start + span:
                bitmap |= 1 << ((block - cover_start) // granule)
        return bitmap


class EntrymapSearch:
    """Degree-N tree search over one volume's entrymap.

    The search needs two data sources, supplied as callables:

    ``fetch(level, boundary) -> EntrymapRecord | None``
        Return the *written* level-``level`` entrymap record whose nominal
        position is ``boundary`` (the record covers
        ``[boundary - N^level, boundary)``), or None if it cannot be found
        (corrupted / relocated beyond the search window).  Each call is
        counted as one entrymap entry examination.

    ``scan(block) -> frozenset[int] | None``
        Direct fallback: the set of logfile ids (including ancestors) with
        entries in ``block``, or None if the block is unreadable.  Used
        when entrymap information is missing — "it is always possible for
        the logging service simply to assume that no such entrymap entry
        is present, at the cost of some additional searching of the lower
        levels" (Section 2.3.2).

    ``state`` supplies the in-memory accumulators for the not-yet-emitted
    tail region.
    """

    def __init__(
        self,
        state: EntrymapState,
        fetch: Callable[[int, int], EntrymapRecord | None],
        scan: Callable[[int], "frozenset[int] | None"],
    ) -> None:
        self.state = state
        self.fetch = fetch
        self.scan = scan

    # -- bitmap access with accumulator overlay -----------------------------

    def _bitmap(
        self, level: int, boundary: int, logfile_id: int, stats: SearchStats
    ) -> int | None:
        """Bitmap for the level entry at ``boundary``; None = unavailable."""
        state = self.state
        if boundary > state.last_emitted_boundary(level):
            # The group ending at this boundary has not been emitted yet —
            # it is (part of) the live accumulator group.
            acc_start, bitmap = state.acc_bitmap(level, logfile_id)
            stats.accumulator_examinations += 1
            span = state.degree**level
            if acc_start != boundary - span:
                # A group past the accumulator's own: only parked notes
                # (deferred level-1 emission) can populate it.
                return state.pending_bitmap(level, boundary - span, logfile_id)
            return bitmap
        stats.entrymap_entries_examined += 1
        record = self.fetch(level, boundary)
        if record is None:
            return None
        return record.bitmaps.get(logfile_id, 0)

    def _scan_range(
        self,
        logfile_id: int,
        start: int,
        stop: int,
        reverse: bool,
        stats: SearchStats,
    ) -> int | None:
        """Direct block-scan fallback over [start, stop)."""
        blocks: Iterable[int] = range(start, stop)
        if reverse:
            blocks = reversed(blocks)
        for block in blocks:
            stats.fallback_blocks_scanned += 1
            members = self.scan(block)
            if members is not None and logfile_id in members:
                return block
        return None

    # -- backward search -------------------------------------------------------

    def locate_prev(
        self, logfile_id: int, before: int, stats: SearchStats | None = None
    ) -> int | None:
        """Greatest block < ``before`` containing entries of ``logfile_id``.

        Ascends the tree from level 1, examining at each step the entry
        whose coverage ends nearest above the unsearched region, and
        descends on the first hit — the paper's 2·log_N(d)−1 pattern.
        """
        stats = stats if stats is not None else SearchStats()
        state = self.state
        degree = state.degree
        if state.max_level == 0:
            return self._scan_range(logfile_id, 0, max(0, before), True, stats)

        hi = before  # invariant: [hi, before) contains no entry of logfile_id
        level = 1
        while hi > 0:
            span = degree**level
            granule = span // degree
            boundary = -(-hi // span) * span  # ceil to the covering boundary
            bitmap = self._bitmap(level, boundary, logfile_id, stats)
            if bitmap is None:
                # Missing entrymap information: fall back one level, or to a
                # direct scan of the covered range at level 1.
                if level > 1:
                    level -= 1
                    continue
                found = self._scan_range(
                    logfile_id, max(0, boundary - span), min(hi, boundary), True, stats
                )
                if found is not None:
                    return found
                hi = boundary - span
                if level < state.max_level:
                    level += 1
                continue
            cover_start = boundary - span
            # Highest subgroup whose start lies below hi.
            j_max = min(degree - 1, (hi - 1 - cover_start) // granule)
            hit = None
            for j in range(j_max, -1, -1):
                if bitmap & (1 << j):
                    hit = j
                    break
            if hit is None:
                hi = cover_start
                if level < state.max_level:
                    level += 1
                continue
            sub_start = cover_start + hit * granule
            if level == 1:
                return sub_start
            level -= 1
            hi = min(hi, sub_start + granule)
        return None

    # -- forward search ----------------------------------------------------------

    def locate_next(
        self,
        logfile_id: int,
        start: int,
        limit: int,
        stats: SearchStats | None = None,
    ) -> int | None:
        """Smallest block in [``start``, ``limit``) containing the log file."""
        stats = stats if stats is not None else SearchStats()
        state = self.state
        degree = state.degree
        if state.max_level == 0:
            return self._scan_range(logfile_id, max(0, start), limit, False, stats)

        lo = max(0, start)  # invariant: [start, lo) contains no entry
        level = 1
        while lo < limit:
            span = degree**level
            granule = span // degree
            boundary = (lo // span) * span + span  # entry covering block lo
            bitmap = self._bitmap(level, boundary, logfile_id, stats)
            if bitmap is None:
                if level > 1:
                    level -= 1
                    continue
                found = self._scan_range(
                    logfile_id,
                    max(lo, boundary - span),
                    min(limit, boundary),
                    False,
                    stats,
                )
                if found is not None:
                    return found
                lo = boundary
                if level < state.max_level:
                    level += 1
                continue
            cover_start = boundary - span
            j_min = (lo - cover_start) // granule
            hit = None
            for j in range(j_min, degree):
                if bitmap & (1 << j):
                    hit = j
                    break
            if hit is None:
                lo = boundary
                if level < state.max_level:
                    level += 1
                continue
            sub_start = cover_start + hit * granule
            if level == 1:
                if sub_start >= limit:
                    return None
                return sub_start
            level -= 1
            lo = max(lo, sub_start)
        return None
