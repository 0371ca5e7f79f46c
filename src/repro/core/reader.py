"""The read path: block access, entry assembly, and entrymap-driven iteration.

Reading a log entry has the three steps of Section 3.3: (1) locate the
block containing the entry (entrymap tree search), (2) read that block
(cache or device), and (3) locate the entry within the block (scan the
Figure-1 index).  Every step is instrumented: Table 1's columns — entrymap
entries examined, block accesses, elapsed (simulated) time — all come from
the counters maintained here.

The reader is also where the robustness policies live: corrupt blocks are
reported (the service invalidates them and records never-written corrupt
blocks in the corrupted-block log file), missing entrymap entries trigger
the relocation-window scan and lower-level fallback, and an entry whose
continuation chain is missing (crash mid-write without a forced tail)
surfaces as :class:`TornEntryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterator

from repro.core.block import BlockFormatError, ParsedBlock, parse_block
from repro.core.catalog import CatalogError
from repro.core.entry import CorruptRecord, LogEntry, decode_record, peek_logfile_id
from repro.core.entrymap import (
    UNTRACKED_IDS,
    EntrymapRecord,
    EntrymapSearch,
    SearchStats,
)
from repro.core.ids import ENTRYMAP_ID, EntryLocation
from repro.core.store import LogStore
from repro.worm.errors import (
    BlockOutOfRange,
    InvalidatedBlockError,
    UnwrittenBlockError,
    VolumeOfflineError,
)

__all__ = ["LogReader", "ReadStats", "TornEntryError", "ReadEntry"]

#: Sentinel distinguishing "memo miss" from a memoized None result (block
#: addresses are never negative).
_MEMO_MISS = -1

#: Locate-memo entries kept before the memo is wholesale cleared.  The memo
#: lives only until the next append anyway, so a small bound merely guards
#: against one enormous scan between appends.
_MEMO_CAPACITY = 4096

#: Demand reads at consecutive ascending addresses before read-ahead kicks
#: in (the second sequential access is the trigger).
_PREFETCH_TRIGGER = 2


class TornEntryError(Exception):
    """An entry's continuation chain is incomplete on the device.

    Happens when a crash lost the unforced tail holding the final
    fragment(s) of a fragmented entry; the entry is unreadable and is
    skipped by iteration (prefix durability covers whole entries only).
    """


@dataclass(frozen=True, slots=True)
class ReadEntry:
    """One entry as returned to a reading client."""

    location: EntryLocation
    entry: LogEntry

    @property
    def data(self) -> bytes:
        return self.entry.data

    @property
    def timestamp(self) -> int | None:
        return self.entry.timestamp

    @property
    def logfile_id(self) -> int:
        return self.entry.logfile_id


@dataclass(slots=True)
class ReadStats:
    """Cumulative read-side instrumentation."""

    block_accesses: int = 0
    device_reads: int = 0
    corrupt_blocks_found: int = 0
    #: Record slots whose entry header failed to decode — a torn or
    #: garbage-suffixed write inside a structurally intact block.  Each
    #: distinct (volume, block, slot) is counted once.
    corrupt_records_found: int = 0
    torn_entries_skipped: int = 0
    #: Actual ``parse_block`` invocations — a cached re-read of an already
    #: decoded block does not increment this (the parsed-tier fast path).
    blocks_parsed: int = 0
    #: Locate operations answered from the tail-invalidated result memo
    #: without re-running the entrymap search.
    locate_memo_hits: int = 0
    search: SearchStats = field(default_factory=SearchStats)

    def snapshot(self) -> "ReadStats":
        return ReadStats(
            block_accesses=self.block_accesses,
            device_reads=self.device_reads,
            corrupt_blocks_found=self.corrupt_blocks_found,
            corrupt_records_found=self.corrupt_records_found,
            torn_entries_skipped=self.torn_entries_skipped,
            blocks_parsed=self.blocks_parsed,
            locate_memo_hits=self.locate_memo_hits,
            search=SearchStats(
                entrymap_entries_examined=self.search.entrymap_entries_examined,
                accumulator_examinations=self.search.accumulator_examinations,
                fallback_blocks_scanned=self.search.fallback_blocks_scanned,
            ),
        )

    def delta(self, earlier: "ReadStats") -> "ReadStats":
        return ReadStats(
            block_accesses=self.block_accesses - earlier.block_accesses,
            device_reads=self.device_reads - earlier.device_reads,
            corrupt_blocks_found=self.corrupt_blocks_found
            - earlier.corrupt_blocks_found,
            corrupt_records_found=self.corrupt_records_found
            - earlier.corrupt_records_found,
            torn_entries_skipped=self.torn_entries_skipped
            - earlier.torn_entries_skipped,
            blocks_parsed=self.blocks_parsed - earlier.blocks_parsed,
            locate_memo_hits=self.locate_memo_hits - earlier.locate_memo_hits,
            search=SearchStats(
                entrymap_entries_examined=self.search.entrymap_entries_examined
                - earlier.search.entrymap_entries_examined,
                accumulator_examinations=self.search.accumulator_examinations
                - earlier.search.accumulator_examinations,
                fallback_blocks_scanned=self.search.fallback_blocks_scanned
                - earlier.search.fallback_blocks_scanned,
            ),
        )


class LogReader:
    """Instrumented read-side of the log service.

    ``written_limit`` callbacks tell the reader how far each volume is
    written; for the active volume that includes the in-progress tail
    block, which the writer keeps pinned in the shared cache.
    """

    def __init__(
        self,
        store: LogStore,
        tail_position: Callable[[], tuple[int, int]],
        on_corrupt: Callable[[int, int], None] | None = None,
        tail_image: Callable[[], bytes | None] | None = None,
        on_volume_demand: Callable[[int], bool] | None = None,
    ) -> None:
        self.store = store
        #: () -> (active_volume_index, tail_block_addr); tail_block_addr is
        #: the local address one past the last *readable* block, i.e. the
        #: in-progress block itself (or -1 when none is open).
        self._tail_position = tail_position
        self._on_corrupt = on_corrupt
        #: () -> current encoded image of the in-progress tail block.  The
        #: tail block exists only in the writer's memory (and NVRAM) until
        #: it is burned, so if the cache drops it, reads regenerate it here.
        self._tail_image = tail_image
        #: (volume_index) -> bool: try to bring an offline volume back
        #: online (Section 2.1's "made available on demand, automatically").
        self._on_volume_demand = on_volume_demand
        self.stats = ReadStats()
        #: Sequential-scan detector state for read-ahead: the last demanded
        #: ``(volume_index, local_block)`` and the current ascending run
        #: length.  Only maintained while ``config.readahead_blocks > 0``.
        self._last_access: tuple[int, int] | None = None
        self._seq_run = 0
        #: Locate-result memo keyed ``(direction, logfile_id, position)``,
        #: valid for one ``store.append_generation`` (any append can change
        #: locate answers near the tail, so the whole memo is dropped).
        self._locate_memo: dict[tuple[str, int, int], int | None] = {}
        self._memo_generation = -1
        #: (volume, block, slot) triples already reported as corrupt
        #: records, so re-scans of the same damage count and journal once.
        self._corrupt_slots_reported: set[tuple[int, int, int]] = set()
        #: One entrymap search per volume, rebuilt when recovery installs a
        #: fresh ``EntrymapState`` for that volume.
        self._searches: dict[int, EntrymapSearch] = {}

    # -- geometry ------------------------------------------------------------

    def volume_extent(self, volume_index: int) -> int:
        """Number of readable data blocks in a volume (tail included)."""
        active_volume, tail_addr = self._tail_position()
        volume = self.store.sequence.volumes[volume_index]
        burned = max(0, volume.next_data_block)
        if volume_index == active_volume and tail_addr >= burned:
            return tail_addr + 1
        return burned

    def global_extent(self) -> int:
        """Total readable blocks across the sequence."""
        last = len(self.store.sequence.volumes) - 1
        return self.store.sequence.volume_base(last) + self.volume_extent(last)

    # -- raw block access -------------------------------------------------------

    def read_parsed(self, volume_index: int, local_block: int) -> ParsedBlock | None:
        """Read and parse one block via the cache; None if the block is
        unwritten, invalidated, or corrupt (corruption is reported)."""
        # ``volume_extent`` inlined, as this runs on every block access; its
        # one look at the tail also serves the loader.
        store = self.store
        active_volume, tail_addr = self._tail_position()
        burned = max(0, store.sequence.volumes[volume_index].next_data_block)
        at_active = volume_index == active_volume
        extent = tail_addr + 1 if at_active and tail_addr >= burned else burned
        if local_block < 0 or local_block >= extent:
            return None
        key = store.cache_key(volume_index, local_block)
        warm = self._warm_parsed(volume_index, local_block, key)
        if warm is not None:
            return warm
        cache = store.cache

        # ``_warm_parsed`` has already shown the access to the sequential-
        # run detector.
        readahead = store.config.readahead_blocks
        if readahead > 0 and self._seq_run >= _PREFETCH_TRIGGER and key not in cache:
            self._prefetch(volume_index, local_block, readahead)

        tail_image = self._tail_image if at_active and local_block == tail_addr else None

        def loader() -> bytes:
            # The writer's image of the tail block, else one device read;
            # spans only while tracing is on.
            image = tail_image() if tail_image is not None else None
            tracer = store.tracer
            if not tracer.enabled:
                if image is None:
                    image = self._read_device(volume_index, local_block)
                return image
            with tracer.span(
                "cache.fill", volume=volume_index, block=local_block
            ) as fill:
                if image is not None:
                    fill.set("source", "tail-image")
                    return image
                with tracer.span(
                    "device.io", op="read", volume=volume_index, block=local_block
                ):
                    return self._read_device(volume_index, local_block)

        try:
            data = cache.get(key, loader)
        except (UnwrittenBlockError, InvalidatedBlockError):
            return None
        except VolumeOfflineError:
            if self._on_volume_demand is not None and self._on_volume_demand(
                volume_index
            ):
                data = cache.get(key, loader)
            else:
                raise
        self.stats.block_accesses += 1
        store.charge("cache_interpret", store.costs.cached_block_ms)
        # No decoded object is pooled for this block (the warm access above
        # would have returned it), so this access pays the real parse.
        try:
            parsed = parse_block(data)
        except BlockFormatError:
            self.stats.corrupt_blocks_found += 1
            cache.invalidate(key)
            store.journal.emit("block.corrupt", volume=volume_index, block=local_block)
            if self._on_corrupt is not None:
                self._on_corrupt(volume_index, local_block)
            return None
        self.stats.blocks_parsed += 1
        cache.put_parsed(key, parsed)
        return parsed

    def _read_device(self, volume_index: int, local_block: int) -> bytes:
        volume = self.store.sequence.volumes[volume_index]
        busy_before = volume.device.stats.busy_ms
        data = volume.read_data_block(local_block)
        self.stats.device_reads += 1
        self.store.charge("device", volume.device.stats.busy_ms - busy_before)
        return data

    def _warm_parsed(
        self, volume_index: int, local_block: int, key: Hashable
    ) -> ParsedBlock | None:
        """One access to a readable block whose decoded form is pooled.

        Counts and charges exactly what :meth:`read_parsed` does for a
        block that is resident and decoded — the paper's ~0.6 ms "access
        and interpretation" of a cached block — without touching the raw
        bytes.  Returns None, having counted nothing, when the block has no
        pooled decode; the caller then goes through ``read_parsed``.
        """
        store = self.store
        if store.config.readahead_blocks > 0:
            self._note_access(volume_index, local_block)
        parsed: ParsedBlock | None = store.cache.get_warm(key)
        if parsed is not None:
            self.stats.block_accesses += 1
            store.charge("cache_interpret", store.costs.cached_block_ms)
        return parsed

    def read_parsed_global(self, global_block: int) -> ParsedBlock | None:
        try:
            volume_index, local = self.store.sequence.to_local(global_block)
        except BlockOutOfRange:
            # E.g. the continuation of a torn entry at the end of a full
            # volume: there is no such block, so there is no such parse.
            return None
        return self.read_parsed(volume_index, local)

    # -- sequential read-ahead ---------------------------------------------------

    def _note_access(self, volume_index: int, local_block: int) -> None:
        """Track the demand-read cursor for sequential-scan detection."""
        prev = self._last_access
        if prev == (volume_index, local_block - 1):
            self._seq_run += 1
        elif prev == (volume_index, local_block):
            pass  # re-reading the same block neither extends nor breaks a run
        else:
            self._seq_run = 1
        self._last_access = (volume_index, local_block)

    def _prefetch(self, volume_index: int, local_block: int, window: int) -> None:
        """Fetch up to ``window`` burned blocks from ``local_block`` onward
        in one device operation (one seek, N transfers) and stage them in
        the cache ahead of the scan cursor."""
        volume = self.store.sequence.volumes[volume_index]
        burned = max(0, volume.next_data_block)
        count = min(window, burned - local_block)
        if count <= 1:
            # Nothing beyond the demand block is burned yet (tail territory
            # is served from the writer's image, not the device).
            return
        cache = self.store.cache
        with self.store.tracer.span(
            "device.io", op="read_many", volume=volume_index, block=local_block
        ) as sp:
            busy_before = volume.device.stats.busy_ms
            try:
                blocks = volume.read_data_blocks(local_block, count)
            except VolumeOfflineError:
                return  # the demand path handles offline volumes
            self.stats.device_reads += len(blocks)
            self.store.charge("device", volume.device.stats.busy_ms - busy_before)
            sp.set("count", len(blocks))
        for offset, data in enumerate(blocks):
            if data is None:
                continue  # invalidated block; the demand path reports it
            staged_key = self.store.cache_key(volume_index, local_block + offset)
            cache.put_prefetched(staged_key, data)

    # -- entry assembly ------------------------------------------------------------

    def entry_at(self, location: EntryLocation) -> LogEntry:
        """Read the (possibly fragmented) entry starting at ``location``."""
        parsed = self.read_parsed_global(location.global_block)
        if parsed is None:
            raise TornEntryError(f"block {location.global_block} unreadable")
        return self._entry_in(parsed, location)

    def _entry_in(self, parsed: ParsedBlock, location: EntryLocation) -> LogEntry:
        """The entry starting at ``location``, whose block — ``parsed`` —
        the caller has just accessed.  A record that ends inside the block
        is decoded once per resident block; a fragmented one is reassembled
        through further block reads every time."""
        slot = location.slot
        if not parsed.starts_entry(slot):
            raise TornEntryError(
                f"no entry starts at slot {slot} of block {location.global_block}"
            )
        in_block = parsed.is_complete(slot)
        if in_block:
            entry = parsed.entries[slot]
            if entry is not None:
                return entry
        record = parsed.fragment(slot)
        complete = in_block
        next_block = location.global_block + 1
        while not complete:
            tail_parsed = self.read_parsed_global(next_block)
            if tail_parsed is None or not tail_parsed.cont_in:
                raise TornEntryError(
                    f"entry at block {location.global_block} slot "
                    f"{slot} is missing its continuation in block "
                    f"{next_block}"
                )
            record += tail_parsed.fragment(0)
            complete = not (tail_parsed.cont_out and tail_parsed.fragment_count == 1)
            next_block += 1
        try:
            entry = decode_record(record).entry
        except CorruptRecord as exc:
            raise TornEntryError(str(exc)) from exc
        if in_block:
            parsed.entries[slot] = entry
        return entry

    def entry_header_at(
        self, parsed: ParsedBlock, slot: int
    ) -> LogEntry | None:
        """Decode the record starting at ``slot`` from this block alone,
        once per resident block.

        Works even for a record that continues into the next block (the
        writer guarantees the full header fits in the first fragment): its
        header fields are right and its data is the part held here.
        Returns None if undecodable.
        """
        entry = parsed.entries[slot]
        if entry is None:
            try:
                entry = decode_record(parsed.fragment(slot)).entry
            except CorruptRecord:
                return None
            parsed.entries[slot] = entry
        return entry

    def record_ids(self, parsed: ParsedBlock) -> list[int | None]:
        """Per fragment, the logfile id of the record starting there.

        None for a continuation-in fragment and for a record whose header
        does not validate.  Every id in a block is peeked on the first call
        — a header check in the block image, nothing copied — and kept, so
        filtering a block by log file never decodes a record.
        """
        if parsed.record_ids is None:
            image, bounds = parsed.image, parsed.bounds
            ids: list[int | None] = [None] * parsed.fragment_count
            for slot in parsed.entry_start_slots():
                try:
                    ids[slot] = peek_logfile_id(image, bounds[slot], bounds[slot + 1])
                except CorruptRecord:
                    pass
            parsed.record_ids = ids
        return parsed.record_ids

    # -- membership ------------------------------------------------------------------

    def block_members(self, volume_index: int, local_block: int) -> frozenset[int] | None:
        """All log file ids (ancestors included) with fragments in a block.

        This is the reader-side equivalent of what the writer fed into
        ``EntrymapState.note_membership`` — used by recovery and by the
        entrymap search's direct-scan fallback.
        """
        parsed = self.read_parsed(volume_index, local_block)
        if parsed is None:
            return None
        members: set[int] = set()
        ids = self.record_ids(parsed)
        for slot in parsed.entry_start_slots():
            record_id = ids[slot]
            if record_id is None:
                # The writer guarantees every record's header fits in its
                # first fragment, so an undecodable header means the slot
                # carries garbage (e.g. a torn write inside a structurally
                # intact block).  Report it once per location.
                self._report_corrupt_record(volume_index, local_block, slot)
                continue
            members.update(self._tracked_ancestors(record_id))
        if parsed.cont_in:
            owner = self._continuation_owner(volume_index, local_block)
            if owner is not None:
                members.update(self._tracked_ancestors(owner))
        return frozenset(members)

    def _report_corrupt_record(
        self, volume_index: int, local_block: int, slot: int
    ) -> None:
        key = (volume_index, local_block, slot)
        if key in self._corrupt_slots_reported:
            return
        self._corrupt_slots_reported.add(key)
        self.stats.corrupt_records_found += 1
        self.store.journal.emit(
            "record.corrupt", volume=volume_index, block=local_block, slot=slot
        )

    def _tracked_ancestors(self, logfile_id: int) -> list[int]:
        try:
            chain = self.store.catalog.ancestors(logfile_id)
        except CatalogError:
            # An id the catalog has never seen (garbage that happens to
            # carry a valid header-version) belongs to itself alone.
            chain = [logfile_id]
        return [a for a in chain if a not in UNTRACKED_IDS]

    def _continuation_owner(self, volume_index: int, local_block: int) -> int | None:
        """The logfile id of the entry whose fragment opens this block."""
        global_block = self.store.sequence.to_global(volume_index, local_block)
        probe = global_block - 1
        while probe >= 0:
            parsed = self.read_parsed_global(probe)
            if parsed is None:
                return None
            starts = parsed.entry_start_slots()
            if starts:
                return self.record_ids(parsed)[starts[-1]]
            if not parsed.cont_in:
                return None
            probe -= 1
        return None

    # -- entrymap search plumbing -------------------------------------------------------

    def _fetch_entrymap(
        self, volume_index: int, level: int, boundary: int
    ) -> EntrymapRecord | None:
        """Find the written entrymap record for (level, boundary).

        The record's well-known home is block ``boundary``; if that block
        was invalidated the writer will have placed it "in the next
        uncorrupted block, if such a block is nearby" (Section 2.3.2) — so
        scan a bounded relocation window before giving up.
        """
        window = self.store.config.entrymap_relocation_window
        span = self.store.states[volume_index].degree ** level
        extent = self.volume_extent(volume_index)
        for local in range(boundary, min(boundary + window, extent)):
            parsed = self.read_parsed(volume_index, local)
            if parsed is None:
                continue
            ids = self.record_ids(parsed)
            for slot in parsed.entry_start_slots():
                if ids[slot] != ENTRYMAP_ID:
                    continue
                record = self._entrymap_at(parsed, slot, volume_index, local)
                if (
                    record is not None
                    and record.level == level
                    and record.cover_start == boundary - span
                ):
                    return record
        return None

    def _entrymap_at(
        self, parsed: ParsedBlock, slot: int, volume_index: int, local_block: int
    ) -> EntrymapRecord | None:
        """The entrymap record starting at ``slot``; None if it is torn or
        does not decode.  A record that ends inside the block is decoded in
        place — no extra block access — and once per resident block; a
        fragmented one pays its continuation reads on every fetch."""
        if not parsed.is_complete(slot):
            location = EntryLocation(
                global_block=self.store.sequence.to_global(volume_index, local_block),
                slot=slot,
            )
            try:
                return EntrymapRecord.decode(self.entry_at(location).data)
            except (TornEntryError, ValueError):
                return None
        memo = parsed.entrymaps
        if slot in memo:
            return memo[slot]
        record: EntrymapRecord | None = None
        entry = self.entry_header_at(parsed, slot)
        if entry is not None:
            try:
                record = EntrymapRecord.decode(entry.data)
            except ValueError:
                pass
        memo[slot] = record
        return record

    def volume_search(self, volume_index: int) -> EntrymapSearch:
        state = self.store.states[volume_index]
        search = self._searches.get(volume_index)
        if search is None or search.state is not state:
            search = self._searches[volume_index] = EntrymapSearch(
                state,
                fetch=lambda level, boundary: self._fetch_entrymap(
                    volume_index, level, boundary
                ),
                scan=lambda block: self.block_members(volume_index, block),
            )
        return search

    # -- cross-volume locate ---------------------------------------------------------------

    def locate_prev_global(self, logfile_id: int, before_global: int) -> int | None:
        """Greatest readable global block < ``before_global`` with entries
        of ``logfile_id`` (descending through predecessor volumes)."""
        memoized = self._memo_get("prev", logfile_id, before_global)
        if memoized != _MEMO_MISS:
            self.stats.locate_memo_hits += 1
            return memoized
        store = self.store
        if store.instruments is None and not store.tracer.enabled:
            found = self._locate_prev_impl(logfile_id, before_global)
        else:
            found = self._locate_observed(
                "prev", self._locate_prev_impl, logfile_id, before_global
            )
        self._memo_put("prev", logfile_id, before_global, found)
        return found

    def _memo_get(self, direction: str, logfile_id: int, position: int) -> int | None:
        """Look up a memoized locate result, dropping the memo whenever an
        append has moved the log tail since it was filled."""
        generation = self.store.append_generation
        if generation != self._memo_generation:
            self._locate_memo.clear()
            self._memo_generation = generation
        return self._locate_memo.get((direction, logfile_id, position), _MEMO_MISS)

    def _memo_put(
        self, direction: str, logfile_id: int, position: int, found: int | None
    ) -> None:
        if len(self._locate_memo) >= _MEMO_CAPACITY:
            self._locate_memo.clear()
        self._locate_memo[(direction, logfile_id, position)] = found

    def _locate_observed(
        self,
        direction: str,
        impl: Callable[[int, int], int | None],
        logfile_id: int,
        position: int,
    ) -> int | None:
        """Run one locate with a span and the Figure-3 per-operation count."""
        store = self.store
        examined_before = self.stats.search.entrymap_entries_examined
        with store.tracer.span(
            "locate", logfile_id=logfile_id, direction=direction
        ) as sp:
            found = impl(logfile_id, position)
            examined = (
                self.stats.search.entrymap_entries_examined - examined_before
            )
            sp.set("entries_examined", examined)
            sp.set("found_block", found)
        if store.instruments is not None:
            store.instruments.locate_entries_examined.observe(examined)
        return found

    def _locate_prev_impl(self, logfile_id: int, before_global: int) -> int | None:
        sequence = self.store.sequence
        if before_global <= 0:
            return None
        before_global = min(before_global, self.global_extent())
        if logfile_id == 0:
            # The volume sequence log file has entries in every block; no
            # entrymap bitmaps are kept for it (Section 2.1, footnote 6).
            return before_global - 1 if before_global > 0 else None
        volume_index, local = sequence.to_local(before_global - 1)
        local_before = local + 1
        while volume_index >= 0:
            found = self.volume_search(volume_index).locate_prev(
                logfile_id, local_before, self.stats.search
            )
            if found is not None:
                return sequence.to_global(volume_index, found)
            volume_index -= 1
            if volume_index >= 0:
                local_before = self.volume_extent(volume_index)
        return None

    def locate_next_global(self, logfile_id: int, start_global: int) -> int | None:
        """Smallest readable global block >= ``start_global`` with entries
        of ``logfile_id`` (ascending through successor volumes)."""
        memoized = self._memo_get("next", logfile_id, start_global)
        if memoized != _MEMO_MISS:
            self.stats.locate_memo_hits += 1
            return memoized
        store = self.store
        if store.instruments is None and not store.tracer.enabled:
            found = self._locate_next_impl(logfile_id, start_global)
        else:
            found = self._locate_observed(
                "next", self._locate_next_impl, logfile_id, start_global
            )
        self._memo_put("next", logfile_id, start_global, found)
        return found

    def _locate_next_impl(self, logfile_id: int, start_global: int) -> int | None:
        sequence = self.store.sequence
        extent = self.global_extent()
        if start_global >= extent:
            return None
        start_global = max(0, start_global)
        if logfile_id == 0:
            # Every block belongs to the volume sequence log file.
            return start_global
        volume_index, local = sequence.to_local(start_global)
        while volume_index < len(sequence.volumes):
            limit = self.volume_extent(volume_index)
            found = self.volume_search(volume_index).locate_next(
                logfile_id, local, limit, self.stats.search
            )
            if found is not None:
                return sequence.to_global(volume_index, found)
            volume_index += 1
            local = 0
        return None

    # -- filtered iteration --------------------------------------------------------------------

    def _belongs(self, entry_logfile_id: int, wanted: int) -> bool:
        """Sublog membership: the entry belongs to ``wanted`` if wanted is
        the entry's log file or one of its ancestors (Section 2.1)."""
        if entry_logfile_id == wanted:
            return True
        if wanted == 0:
            # "The entire sequence of log entries that have been written to
            # a volume can also be considered a log file" (Section 2).
            return True
        try:
            return wanted in self.store.catalog.ancestors(entry_logfile_id)
        except CatalogError:
            return False

    def iter_entries(
        self,
        logfile_id: int,
        start_global: int = 0,
        start_slot: int = 0,
        reverse: bool = False,
    ) -> Iterator[ReadEntry]:
        """Yield entries of ``logfile_id`` (and its sublogs) in log order.

        ``start_global``/``start_slot`` give the first position considered;
        with ``reverse=True`` iteration runs backward from that position
        (inclusive).  Torn entries at the log tail are skipped and counted.
        """
        if reverse:
            yield from self._iter_reverse(logfile_id, start_global, start_slot)
        else:
            yield from self._iter_forward(logfile_id, start_global, start_slot)

    def _block_matches(self, global_block: int, logfile_id: int) -> list[int]:
        """Slots of the entries starting in a block that belong to
        ``logfile_id`` — one block access, no record decoded."""
        parsed = self.read_parsed_global(global_block)
        if parsed is None:
            return []
        belongs = self._belongs
        return [
            slot
            for slot, owner in enumerate(self.record_ids(parsed))
            if owner is not None and belongs(owner, logfile_id)
        ]

    def _serve(self, global_block: int, slots: list[int]) -> Iterator[ReadEntry]:
        """Yield the entries starting at ``slots`` of one readable block.

        Each entry is one block access, as a client reading entry by entry
        makes it; while the block stays resident and decoded that access is
        the warm one and the entry comes straight out of the block's memo.
        When it does not — the block was evicted, or was the tail and an
        append rewrote it, since the last entry was yielded — the entry
        takes the full :meth:`entry_at` path.
        """
        if not slots:
            return
        volume_index, local = self.store.sequence.to_local(global_block)
        key = self.store.cache_key(volume_index, local)
        for slot in slots:
            location = EntryLocation(global_block=global_block, slot=slot)
            try:
                parsed = self._warm_parsed(volume_index, local, key)
                if parsed is None:
                    entry = self.entry_at(location)
                else:
                    entry = self._entry_in(parsed, location)
            except TornEntryError:
                self.stats.torn_entries_skipped += 1
                continue
            yield ReadEntry(location=location, entry=entry)

    def _iter_forward(
        self, logfile_id: int, start_global: int, start_slot: int
    ) -> Iterator[ReadEntry]:
        current = self.locate_next_global(logfile_id, start_global)
        while current is not None:
            slots = self._block_matches(current, logfile_id)
            if current == start_global:
                slots = [slot for slot in slots if slot >= start_slot]
            yield from self._serve(current, slots)
            current = self.locate_next_global(logfile_id, current + 1)

    def _iter_reverse(
        self, logfile_id: int, start_global: int, start_slot: int
    ) -> Iterator[ReadEntry]:
        extent = self.global_extent()
        start_global = min(start_global, extent - 1)
        if start_global < 0:
            return
        current: int | None = start_global
        if not self._block_matches(start_global, logfile_id):
            current = self.locate_prev_global(logfile_id, start_global)
        while current is not None:
            slots = self._block_matches(current, logfile_id)
            if current == start_global:
                slots = [slot for slot in slots if slot <= start_slot]
            yield from self._serve(current, slots[::-1])
            current = self.locate_prev_global(logfile_id, current)
