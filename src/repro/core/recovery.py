"""Crash recovery (Section 2.3.1) and corruption handling (Section 2.3.2).

On reboot the server's RAM contents are gone; everything must be rebuilt
from the (append-only) device plus the battery-backed NVRAM tail.  The
three initialization steps, exactly as Section 3.4 enumerates them:

1. **Locate the most recently written block** — ask the device, or binary
   search the written/unwritten boundary in log₂(V) probes.
2. **Reconstruct missing entrymap information** — the in-memory bitmap
   accumulators for each level's partial group.  Level 1 is rebuilt by
   scanning the ≤N blocks since the last level-1 entrymap entry; level i>1
   by reading the ≤N level-(i−1) entrymap entries written since the last
   level-i entry.  Expected cost ≈ (N·log_N b)/2 block examinations —
   Figure 4's curve, which ``RecoveryReport`` lets benchmarks measure.
3. **Read the catalog log file** to rebuild the log-file table.

Corruption: a block that fails its CRC is *invalidated* (overwritten with
all 1s) and, if it had never been legitimately written, its location is
recorded in the corrupted-block log file.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Iterable

from repro.core.catalog import Catalog, CatalogError, CatalogRecord
from repro.core.entrymap import EntrymapState, fold_group
from repro.core.ids import CATALOG_ID, CORRUPTED_BLOCK_ID
from repro.core.reader import LogReader
from repro.core.store import LogStore
from repro.vsystem.instrument import EventLike

__all__ = [
    "RecoveryReport",
    "VolumeRecoveryStats",
    "rebuild_entrymap_state",
    "replay_catalog",
    "decode_corrupted_block_record",
    "encode_corrupted_block_record",
    "replay_corrupted_block_log",
]

_CORRUPT_RECORD = struct.Struct(">IQ")


def encode_corrupted_block_record(volume_index: int, local_block: int) -> bytes:
    """Payload of a corrupted-block log entry (Section 2.3.2)."""
    return _CORRUPT_RECORD.pack(volume_index, local_block)


def decode_corrupted_block_record(payload: bytes) -> tuple[int, int]:
    volume_index, local_block = _CORRUPT_RECORD.unpack_from(payload, 0)
    return volume_index, local_block


@dataclass(slots=True)
class VolumeRecoveryStats:
    """Cost accounting for one volume's entrymap reconstruction."""

    volume_index: int = 0
    tail_probes: int = 0
    last_opened_block: int = -1
    level1_blocks_scanned: int = 0
    entrymap_records_read: int = 0

    @property
    def blocks_examined(self) -> int:
        """Figure 4's y-axis: blocks touched to rebuild entrymap state."""
        return self.level1_blocks_scanned + self.entrymap_records_read


@dataclass(slots=True)
class RecoveryReport:
    """Everything a mount/recovery pass did, for benchmarks and logging."""

    volumes: list[VolumeRecoveryStats] = field(default_factory=list)
    catalog_records_replayed: int = 0
    corrupted_blocks_known: int = 0
    nvram_tail_recovered: bool = False
    #: The crash flight recorder: every event the journal captured during
    #: this recovery pass (empty unless an event journal is attached).
    flight_recorder: list[EventLike] = field(default_factory=list)

    @property
    def total_blocks_examined(self) -> int:
        return sum(v.blocks_examined for v in self.volumes)


def rebuild_entrymap_state(
    store: LogStore,
    reader: LogReader,
    volume_index: int,
    last_opened_block: int,
    stats: VolumeRecoveryStats | None = None,
) -> EntrymapState:
    """Reconstruct one volume's in-memory entrymap accumulators.

    ``last_opened_block`` is the local address of the newest block that was
    ever opened for writing (the NVRAM tail if recovered, else the last
    burned block); every entrymap entry with boundary <= that address was
    emitted before the crash.

    The state object is installed into ``store.states[volume_index]``
    *before* scanning, because the reader's fallback paths consult it.
    """
    volume = store.sequence.volumes[volume_index]
    degree = volume.degree_n
    previous = store.states[volume_index]
    state = EntrymapState(degree, volume.data_capacity)
    store.states[volume_index] = state
    stats = stats if stats is not None else VolumeRecoveryStats()
    stats.volume_index = volume_index
    stats.last_opened_block = last_opened_block
    if last_opened_block < 0 or state.max_level == 0:
        return state

    # Advance every level's boundary to just past the last opened block.
    for level in range(1, state.max_level + 1):
        span = degree**level
        state.next_emit[level] = (last_opened_block // span) * span + span

    # Level 1: scan the blocks of the current (partial) group directly.
    group_start = (last_opened_block // degree) * degree
    for block in range(group_start, last_opened_block + 1):
        stats.level1_blocks_scanned += 1
        members = reader.block_members(volume_index, block)
        if members:
            state.note_membership(block, members)

    # Levels 2..k: fold the level-(i-1) entrymap entries written since the
    # last level-i entry.  A record that cannot be read back (torn with the
    # lost tail, corrupted, relocated out of reach) is NOT silently treated
    # as empty — the accumulator's answers are authoritative, so a missing
    # record's information is reconstructed from the level below, down to
    # a direct block scan ("at the cost of some additional searching of
    # the lower levels", Section 2.3.2).
    missing = 0  # records that did not read back

    def logfiles_in_group(level: int, boundary: int) -> Iterable[int]:
        nonlocal missing
        stats.entrymap_records_read += 1
        record = reader._fetch_entrymap(volume_index, level, boundary)
        if record is not None:
            return record.bitmaps
        missing += 1
        found: set[int] = set()
        if level == 1:
            for block in range(max(0, boundary - degree), boundary):
                stats.level1_blocks_scanned += 1
                members = reader.block_members(volume_index, block)
                if members:
                    found.update(members)
            return found
        span, sub_span = degree**level, degree ** (level - 1)
        for sub_boundary in range(boundary - span + sub_span, boundary + 1, sub_span):
            found.update(logfiles_in_group(level - 1, sub_boundary))
        return found

    # Pass two follows pass one over the same boundaries (an entry emitted
    # in between would move ``next_emit``) and reads the same records: a
    # level whose records all read back keeps pass one's fold, as only a
    # group re-derived from its blocks depends on the catalog.
    earlier = previous if previous.next_emit == state.next_emit else None
    for level in range(2, state.max_level + 1):
        span = degree**level
        sub_span = degree ** (level - 1)
        level_start = (last_opened_block // span) * span
        last_sub = (last_opened_block // sub_span) * sub_span
        missing_before = missing
        groups = [
            logfiles_in_group(level - 1, boundary)
            for boundary in range(level_start + sub_span, last_sub + 1, sub_span)
        ]
        if earlier is not None and missing == missing_before:
            state.acc[level] = dict(earlier.acc[level])
            continue
        for group_index, logfile_ids in enumerate(groups):
            fold_group(state.acc[level], logfile_ids, 1 << group_index)
    return state


def replay_catalog(reader: LogReader, catalog: Catalog) -> int:
    """Step 3 of initialization: read the catalog log file and rebuild the
    log-file table.  Returns the number of records replayed."""
    replayed = 0
    for read_entry in reader.iter_entries(CATALOG_ID, start_global=0):
        try:
            record = CatalogRecord.decode(read_entry.entry.data)
            catalog.apply(record)
        except CatalogError:
            # A torn/garbage catalog record: skip it.  CREATEs are forced,
            # so a lost record can only be one whose log file was never
            # acknowledged to any client.
            continue
        replayed += 1
    return replayed


def replay_corrupted_block_log(reader: LogReader) -> set[tuple[int, int]]:
    """Rebuild the set of known-corrupt (volume, block) locations."""
    known: set[tuple[int, int]] = set()
    for read_entry in reader.iter_entries(CORRUPTED_BLOCK_ID, start_global=0):
        try:
            known.add(decode_corrupted_block_record(read_entry.entry.data))
        except struct.error:
            continue
    return known
