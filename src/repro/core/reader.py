"""The read path: block access, entry assembly, and entrymap-driven iteration.

Reading a log entry has the three steps of Section 3.3: (1) locate the
block containing the entry (entrymap tree search), (2) read that block
(cache or device), and (3) locate the entry within the block (scan the
Figure-1 index).  Step 2 is :meth:`LogReader.read_parsed`, the one block
access: the time probe, the entrymap fetch, the match of a located block
and each entry served from it make one call each, one counted access
charged the paper's ~0.6 ms of "access and interpretation".  Table 1's
columns — entrymap entries examined, block accesses, elapsed (simulated)
time — all come from the counters maintained here.

The reader is also where the robustness policies live: corrupt blocks are
reported (the service invalidates them and records never-written corrupt
blocks in the corrupted-block log file), missing entrymap entries trigger
the relocation-window scan and lower-level fallback, and an entry whose
continuation chain is missing (crash mid-write without a forced tail)
surfaces as :class:`TornEntryError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Callable, Iterator

from repro.core.block import BlockFormatError, ParsedBlock, parse_block
from repro.core.catalog import CatalogError
from repro.core.entry import SIZE_BY_VERSION, CorruptRecord, LogEntry, decode_record
from repro.core.entrymap import EntrymapRecord, EntrymapSearch, SearchStats, coverage_of
from repro.core.ids import ENTRYMAP_ID, EntryLocation, _served_location
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


_set_location, _set_entry = (vars(ReadEntry)[name].__set__ for name in ("location", "entry"))


def _served(location: EntryLocation, entry: LogEntry) -> ReadEntry:
    """A :class:`ReadEntry` the scan has just read, built without ``__init__``."""
    served = ReadEntry.__new__(ReadEntry)
    _set_location(served, location)
    _set_entry(served, entry)
    return served


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
        return replace(self, search=replace(self.search))

    def delta(self, earlier: "ReadStats") -> "ReadStats":
        """Counters accumulated since ``earlier`` (a prior snapshot)."""

        def minus(now: Any, then: Any) -> dict[str, Any]:
            return {
                counter.name: getattr(now, counter.name) - getattr(then, counter.name)
                for counter in fields(now)
                if counter.name != "search"
            }

        return ReadStats(
            **minus(self, earlier), search=SearchStats(**minus(self.search, earlier.search))
        )


class LogReader:
    """Instrumented read-side of the log service.

    The writer's ``tail_position`` tells the reader how far each volume is
    readable; for the active volume that includes the in-progress tail
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
        #: One access's fixed charge, in the integer µs ``advance_ms`` would
        #: round ``cached_block_ms`` to on every call.
        self._access_us = int(round(store.costs.cached_block_ms * 1000))

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
        """One counted access to a block, parsed, via the cache; None if
        the block is unwritten, invalidated, or corrupt (corruption is
        reported).  A block whose decoded form is pooled costs the access
        its count and charge and nothing else."""
        store = self.store
        cache = store.cache
        key = ("log", volume_index, local_block)
        readahead = store.config.readahead_blocks
        # Only a block read inside its volume's extent is ever pooled
        # decoded, and no extent shrinks: a warm block is in bounds.
        parsed: ParsedBlock | None = cache.get_warm(key)
        if parsed is not None:
            if readahead > 0:
                self._note_access(volume_index, local_block)
            self.stats.block_accesses += 1
            store.charge_us("cache_interpret", self._access_us)
            return parsed
        # ``volume_extent`` inlined: one look at the tail serves the bound
        # and the loader.
        active_volume, tail_addr = self._tail_position()
        extent = store.sequence.volumes[volume_index].next_data_block
        if volume_index == active_volume and tail_addr >= extent:
            extent = tail_addr + 1
        if not 0 <= local_block < extent:
            return None
        if readahead > 0:
            self._note_access(volume_index, local_block)
            if self._seq_run >= _PREFETCH_TRIGGER and key not in cache:
                self._prefetch(volume_index, local_block, readahead)
        at_tail = volume_index == active_volume and local_block == tail_addr
        try:
            data = cache.get(key, self._load, volume_index, local_block, at_tail)
        except (UnwrittenBlockError, InvalidatedBlockError):
            return None
        except VolumeOfflineError:
            demand = self._on_volume_demand
            if demand is None or not demand(volume_index):
                raise
            data = cache.get(key, self._load, volume_index, local_block, at_tail)
        self.stats.block_accesses += 1
        store.charge_us("cache_interpret", self._access_us)
        # No decoded object is pooled for this block, so this access pays
        # the real parse.
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

    def _load(self, volume_index: int, local_block: int, at_tail: bool) -> bytes:
        """A miss's fill: the writer's image of the tail block, else one
        device read; spans only while tracing is on."""
        tail_image = self._tail_image if at_tail else None
        image = tail_image() if tail_image is not None else None
        tracer = self.store.tracer
        if not tracer.enabled:
            return image if image is not None else self._read_device(volume_index, local_block)
        with tracer.span("cache.fill", volume=volume_index, block=local_block) as fill:
            if image is not None:
                fill.set("source", "tail-image")
                return image
            with tracer.span(
                "device.io", op="read", volume=volume_index, block=local_block
            ):
                return self._read_device(volume_index, local_block)

    def _read_device(self, volume_index: int, local_block: int) -> bytes:
        volume = self.store.sequence.volumes[volume_index]
        busy_before = volume.device.stats.busy_ms
        data = volume.read_data_block(local_block)
        self.stats.device_reads += 1
        self.store.charge("device", volume.device.stats.busy_ms - busy_before)
        return data

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
        try:
            volume_index, local = self.store.sequence.to_local(location.global_block)
        except BlockOutOfRange:
            raise TornEntryError(f"block {location.global_block} unreadable") from None
        return self._entry_in(volume_index, local, location)

    def _entry_in(
        self, volume_index: int, local_block: int, location: EntryLocation
    ) -> LogEntry:
        """The entry starting at ``location``, whose block is
        ``(volume_index, local_block)``: one access to that block.  A
        record that ends inside the block is decoded once per resident
        block; a fragmented one is reassembled through further block reads
        every time."""
        parsed = self.read_parsed(volume_index, local_block)
        if parsed is None:
            raise TornEntryError(f"block {location.global_block} unreadable")
        slot = location.slot
        count = parsed.fragment_count
        if not parsed.cont_in <= slot < count:
            raise TornEntryError(
                f"no entry starts at slot {slot} of block {location.global_block}"
            )
        in_block = not (parsed.cont_out and slot == count - 1)
        entries = parsed.entries
        if in_block and entries is not None:
            entry = entries[slot]
            if entry is not None:
                return entry
        record = parsed.image[parsed.bounds[slot] : parsed.bounds[slot + 1]]
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
            if parsed.entries is None:
                parsed.entries = [None] * count
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
        if parsed.entries is None:
            parsed.entries = [None] * parsed.fragment_count
        entries = parsed.entries
        entry = entries[slot]
        if entry is None:
            try:
                entry = decode_record(parsed.fragment(slot)).entry
            except CorruptRecord:
                return None
            entries[slot] = entry
        return entry

    def record_ids(self, parsed: ParsedBlock) -> list[int | None]:
        """Per fragment, the logfile id of the record starting there.

        None for a continuation-in fragment and for a record whose header
        does not validate.  Every id in a block is peeked on the first call
        — each header checked in the block image against the version
        table, as :func:`~repro.core.entry.decode_record` checks it,
        nothing copied — and kept, so filtering a block by log file never
        decodes a record.
        """
        if parsed.record_ids is None:
            image, bounds = parsed.image, parsed.bounds
            count = parsed.fragment_count
            ids: list[int | None] = [None] * count
            for slot in range(parsed.cont_in, count):
                start = bounds[slot]
                header_size = SIZE_BY_VERSION.get(image[start] >> 4)
                if header_size is not None and bounds[slot + 1] - start >= header_size:
                    ids[slot] = ((image[start] & 0x0F) << 8) | image[start + 1]
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
        owner_tracked = self.store.catalog.owner_tracked
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
            members.update(owner_tracked(record_id))
        if parsed.cont_in:
            owner = self._continuation_owner(volume_index, local_block)
            if owner is not None:
                members.update(owner_tracked(owner))
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
        wanted = (level, boundary - self.store.states[volume_index].degree ** level)
        # Past the volume's extent a block reads as None, uncounted.
        for local in range(boundary, boundary + window):
            parsed = self.read_parsed(volume_index, local)
            if parsed is None:
                continue
            for slot, owner in enumerate(self.record_ids(parsed)):
                if owner != ENTRYMAP_ID:
                    continue
                record = self._entrymap_at(parsed, slot, volume_index, local, wanted)
                if record is not None and (record.level, record.cover_start) == wanted:
                    return record
        return None

    def _entrymap_at(
        self,
        parsed: ParsedBlock,
        slot: int,
        volume_index: int,
        local_block: int,
        wanted: tuple[int, int],
    ) -> EntrymapRecord | None:
        """The entrymap record starting at ``slot``; None if it is torn or
        does not decode.  A record that ends inside the block is decoded in
        place — no extra block access — once per resident block, and not
        before a fetch wants its ``(level, cover_start)``, which its fixed
        header tells; a fragmented one pays its continuation reads on every
        fetch."""
        if not parsed.is_complete(slot):
            location = EntryLocation(
                self.store.sequence.to_global(volume_index, local_block), slot
            )
            try:
                entry = self._entry_in(volume_index, local_block, location)
                return EntrymapRecord.decode(entry.data)
            except (TornEntryError, ValueError):
                return None
        if parsed.entrymaps is None:
            parsed.entrymaps = {}
        memo = parsed.entrymaps
        if slot in memo:
            return memo[slot]
        record: EntrymapRecord | None = None
        header = self.entry_header_at(parsed, slot)
        if header is not None:
            if coverage_of(header.data) not in (None, wanted):
                return None
            try:
                record = EntrymapRecord.decode(header.data)
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
        return self._locate(("prev", logfile_id, before_global), self._locate_prev_impl)

    def locate_next_global(self, logfile_id: int, start_global: int) -> int | None:
        """Smallest readable global block >= ``start_global`` with entries
        of ``logfile_id`` (ascending through successor volumes)."""
        return self._locate(("next", logfile_id, start_global), self._locate_next_impl)

    def _locate(
        self, key: tuple[str, int, int], impl: Callable[[int, int], int | None]
    ) -> int | None:
        """One locate ``(direction, logfile_id, position)``, answered from
        the memo when it can be.  The memo is dropped whenever an append
        has moved the log tail since it was filled."""
        memo = self._locate_memo
        generation = self.store.append_generation
        if generation != self._memo_generation:
            memo.clear()
            self._memo_generation = generation
        found = memo.get(key, _MEMO_MISS)
        if found != _MEMO_MISS:
            self.stats.locate_memo_hits += 1
            return found
        direction, logfile_id, position = key
        store = self.store
        if store.instruments is None and not store.tracer.enabled:
            found = impl(logfile_id, position)
        else:
            found = self._locate_observed(direction, impl, logfile_id, position)
        if len(memo) >= _MEMO_CAPACITY:
            memo.clear()
        memo[key] = found
        return found

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

    def _locate_next_impl(self, logfile_id: int, start_global: int) -> int | None:
        sequence = self.store.sequence
        last = len(sequence.volumes) - 1
        limit = self.volume_extent(last)
        if start_global >= sequence.volume_base(last) + limit:
            return None
        start_global = max(0, start_global)
        if logfile_id == 0:
            # Every block belongs to the volume sequence log file.
            return start_global
        volume_index, local = sequence.to_local(start_global)
        # A search may report corruption, and so append: only a search that
        # starts in the last volume uses the extent read above.
        if volume_index != last:
            limit = self.volume_extent(volume_index)
        while True:
            found = self.volume_search(volume_index).locate_next(
                logfile_id, local, limit, self.stats.search
            )
            if found is not None:
                return sequence.to_global(volume_index, found)
            volume_index += 1
            if volume_index >= len(sequence.volumes):
                return None
            local, limit = 0, self.volume_extent(volume_index)

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
            return wanted in self.store.catalog.chain(entry_logfile_id)
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

        Each located block costs one access to match it, and each entry
        served from it one more, as a client reading entry by entry makes
        it; while the block stays resident and decoded that access is the
        warm one and the entry comes straight out of the block's memo.
        """
        if reverse:
            return self._iter_reverse(logfile_id, start_global, start_slot)
        return self._iter_forward(logfile_id, start_global, start_slot)

    def _block_matches(
        self, volume_index: int, local_block: int, logfile_id: int
    ) -> list[int]:
        """Slots of the entries starting in a block that belong to
        ``logfile_id`` — one block access, no record decoded."""
        parsed = self.read_parsed(volume_index, local_block)
        if parsed is None:
            return []
        belongs = self._belongs
        return [
            slot
            for slot, owner in enumerate(self.record_ids(parsed))
            if owner == logfile_id or (owner is not None and belongs(owner, logfile_id))
        ]

    def _iter_forward(
        self, logfile_id: int, start_global: int, start_slot: int
    ) -> Iterator[ReadEntry]:
        to_local = self.store.sequence.to_local
        entry_in = self._entry_in
        current = self.locate_next_global(logfile_id, start_global)
        while current is not None:
            volume_index, local = to_local(current)
            slots = self._block_matches(volume_index, local, logfile_id)
            if current == start_global:
                slots = [slot for slot in slots if slot >= start_slot]
            for slot in slots:
                location = _served_location(current, slot)
                try:
                    entry = entry_in(volume_index, local, location)
                except TornEntryError:
                    self.stats.torn_entries_skipped += 1
                    continue
                yield _served(location, entry)
            current = self.locate_next_global(logfile_id, current + 1)

    def _iter_reverse(
        self, logfile_id: int, start_global: int, start_slot: int
    ) -> Iterator[ReadEntry]:
        to_local = self.store.sequence.to_local
        entry_in = self._entry_in
        start_global = min(start_global, self.global_extent() - 1)
        if start_global < 0:
            return
        current: int | None = start_global
        if not self._block_matches(*to_local(start_global), logfile_id):
            current = self.locate_prev_global(logfile_id, start_global)
        while current is not None:
            volume_index, local = to_local(current)
            slots = self._block_matches(volume_index, local, logfile_id)
            if current == start_global:
                slots = [slot for slot in slots if slot <= start_slot]
            for slot in reversed(slots):
                location = _served_location(current, slot)
                try:
                    entry = entry_in(volume_index, local, location)
                except TornEntryError:
                    self.stats.torn_entries_skipped += 1
                    continue
                yield _served(location, entry)
            current = self.locate_prev_global(logfile_id, current)
