"""The tail writer: Clio's append path.

"Write operations are performed only at the end of the written data — a
disk location that is known at all times" (Section 2.1).  The writer owns
the single in-progress *tail block* and is responsible for:

* packing entry records into blocks (fragmenting entries that do not fit,
  Section 2.1 footnote 7), with one record packer for every kind of append:
  it draws the timestamp, places the record and counts its bytes, and a
  record that fits whole in the open block goes straight through it;
* trusting its arguments: the service checks them before any charge, so
  the packer builds its locations and results without re-validation;
* forcing the first entry of every block to carry a timestamp (the time
  search relies on it);
* noting block membership in the entrymap once per block and owner chain
  (the ``entrymap_maint`` charge of Section 3.2 stays per fragment);
* emitting entrymap log entries at their well-known positions when a block
  opens on a level boundary (Section 2.1), folding accumulators upward;
* staging the tail block in battery-backed RAM on forced writes, or — on a
  pure write-once device — burning the partial block and eating the
  internal fragmentation (Section 2.3.1 discusses exactly this trade-off);
* loading a successor volume when the active one fills (Section 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.block import BlockBuilder
from repro.core.catalog import CatalogRecord
from repro.core.entry import encode_record
from repro.core.entrymap import UNTRACKED_IDS, EntrymapState
from repro.core.ids import (
    CATALOG_ID,
    ENTRYMAP_ID,
    FIRST_CLIENT_ID,
    VOLUME_SEQUENCE_ID,
    EntryId,
    EntryLocation,
    _served_location,
)
from repro.core.store import LogStore
from repro.worm.errors import CorruptBlockError, StorageError
from repro.worm.volume import LogVolume

__all__ = ["TailWriter", "AppendResult"]


@dataclass(frozen=True, slots=True)
class AppendResult:
    """What a client learns from a write operation."""

    location: EntryLocation
    timestamp: int | None

    @property
    def entry_id(self) -> EntryId | None:
        """The unique identifier a synchronous writer obtains (Section 2.1)."""
        if self.timestamp is None:
            return None
        return EntryId(self.timestamp)


_set_location, _set_timestamp = (
    vars(AppendResult)[name].__set__ for name in ("location", "timestamp")
)


def _packed(location: EntryLocation, timestamp: int | None) -> AppendResult:
    """An :class:`AppendResult` the packer has just made, built without ``__init__``."""
    result = AppendResult.__new__(AppendResult)
    _set_location(result, location)
    _set_timestamp(result, timestamp)
    return result


class TailWriter:
    """Owns the tail block of the active volume and all append machinery."""

    def __init__(self, store: LogStore):
        self.store = store
        self._builder: BlockBuilder | None = None
        self._volume_index = len(store.sequence.volumes) - 1
        self._block_addr = -1
        self._block_has_entry_start = False
        self._carry_tracked_ids: frozenset[int] = frozenset()
        #: The last (state, block, tracked) noted: a fragment repeating it
        #: skips ``note_membership`` (an idempotent OR).  Dropped whenever a
        #: block opens or entrymap entries are emitted.
        self._noted: tuple[EntrymapState, int, frozenset[int]] | None = None
        self._pending_corrupt_reports: list[tuple[int, int]] = []
        self._draining = False
        #: Group-commit state (:meth:`append_batch`): while a batch is in
        #: flight, its client timestamps share one ``timestamp_ms`` charge
        #: (the values stay unique and monotonic) and the per-entry
        #: tail-cache re-encode is deferred to the batch end.
        self._in_batch = False
        self._batch_ts_charged = False
        #: Tail-block re-encodes performed (one per plain append; one per
        #: *batch* under group commit) — the benchmarks' wall-clock story.
        self.tail_refreshes = 0

    # -- introspection (used by the reader for tail visibility) ------------

    @property
    def volume_index(self) -> int:
        return self._volume_index

    def tail_position(self) -> tuple[int, int]:
        """(volume index, tail block address), for the reader's every access."""
        return self._volume_index, self._block_addr

    @property
    def tail_block_addr(self) -> int:
        """Local address of the in-progress tail block (-1 before first append)."""
        return self._block_addr

    @property
    def tail_global_block(self) -> int:
        if self._block_addr < 0:
            return self.store.sequence.next_global_block
        return self.store.sequence.to_global(self._volume_index, self._block_addr)

    def tail_image(self) -> bytes | None:
        """Current encoded image of the tail block, or None if no tail open."""
        if self._builder is None or self._builder.is_empty:
            return None
        return self._builder.encode()

    # -- resume (recovery path) ----------------------------------------------

    def resume_tail(self, volume_index: int, block_addr: int, image: bytes) -> None:
        """Adopt a tail block image recovered from NVRAM (Section 2.3.1)."""
        self._volume_index = volume_index
        self._block_addr = block_addr
        self._builder = BlockBuilder.from_image(image)
        parsed_starts = self._builder.fragment_count - (1 if self._builder.cont_in else 0)
        self._block_has_entry_start = parsed_starts > 0
        self.store.cache.put(
            self.store.cache_key(volume_index, block_addr), self._builder.encode()
        )

    # -- public append operations -----------------------------------------------

    def append(
        self,
        logfile_id: int,
        data: bytes,
        *,
        want_timestamp: bool = True,
        client_seq: int | None = None,
        force: bool = False,
    ) -> AppendResult:
        """Append one client entry to ``logfile_id``.

        Returns the location and (if timestamped) the server timestamp that
        uniquely identifies the entry.  ``force=True`` makes the entry
        durable before returning (NVRAM store, or a burned partial block on
        pure WORM configurations).
        """
        tracked = self.store.catalog.tracked(logfile_id)
        result = self._pack(logfile_id, data, want_timestamp, client_seq, tracked)
        if force:
            self._force()
        self.drain_corrupt_reports()
        return result

    def append_batch(
        self,
        logfile_id: int,
        payloads: list[bytes],
        *,
        want_timestamps: bool = True,
        client_seqs: list[int | None] | None = None,
        force: bool = False,
    ) -> list[AppendResult]:
        """Append a batch of client entries to ``logfile_id`` as one group
        commit.

        Each entry goes through the same record packer as :meth:`append`
        and lands exactly where :meth:`append` would place it (same
        blocks, same fragmentation, same entrymap entries), and every
        per-fragment charge is made in the same order.  The per-entry fixed
        work is amortized across the batch: the logfile id is resolved
        once, one ``timestamp_ms`` charge covers every client timestamp
        drawn (the values remain unique and strictly increasing), the tail
        block is re-encoded once at the end instead of once per entry, and
        ``force=True`` makes the whole batch durable with a single NVRAM
        store.  If a crash interrupts the batch, the usual prefix-durability
        rule applies to the entries written so far — a recovered log never
        has holes.
        """
        if not payloads:
            return []
        tracked = self.store.catalog.tracked(logfile_id)
        if client_seqs is None:
            client_seqs = [None] * len(payloads)
        pack = self._pack
        results: list[AppendResult] = []
        self._in_batch = True
        self._batch_ts_charged = False
        try:
            for data, client_seq in zip(payloads, client_seqs, strict=True):
                results.append(pack(logfile_id, data, want_timestamps, client_seq, tracked))
        finally:
            # Even on a mid-batch failure the entries already packed form a
            # consistent prefix: re-encode the tail once so readers see it.
            self._in_batch = False
            if results and self._builder is not None:
                self._refresh_tail_cache()
        if force:
            self._force()
        self.drain_corrupt_reports()
        inst = self.store.instruments
        if inst is not None:
            inst.append_batch_entries.observe(len(results))
        return results

    def append_catalog_record(
        self, record: CatalogRecord, force: bool = True
    ) -> AppendResult:
        """Append a record to the catalog log file (always timestamped;
        forced by default — losing catalog records loses log files)."""
        result = self._pack(
            CATALOG_ID, record.encode(), True, None, frozenset({CATALOG_ID})
        )
        if force:
            self._force()
        self.drain_corrupt_reports()
        return result

    def append_reserved(self, logfile_id: int, payload: bytes) -> AppendResult:
        """Append to another reserved log file (e.g. the corrupted-block log)."""
        tracked = frozenset({logfile_id}) - UNTRACKED_IDS
        return self._pack(logfile_id, payload, True, None, tracked)

    def flush(self) -> None:
        """Burn the tail block even if partially filled (volume unmount,
        clean shutdown without NVRAM)."""
        if self._builder is not None and not self._builder.is_empty:
            self.store.journal.emit(
                "writer.flush", volume=self._volume_index, block=self._block_addr
            )
            self.store.space.forced_padding += max(0, self._builder.free_bytes + 2)
            self._burn_current()

    # -- internals -------------------------------------------------------------

    def _make_timestamp(self, amortized: bool = True) -> int:
        if amortized and self._in_batch:
            if self._batch_ts_charged:
                # Group commit: the batch already paid its one timestamp
                # charge; further values are free but still unique (the
                # clock's timestamps are strictly increasing regardless).
                return self.store.clock.timestamp()
            self._batch_ts_charged = True
        self.store.charge("timestamp", self.store.costs.timestamp_ms)
        return self.store.clock.timestamp()

    @property
    def _state(self) -> EntrymapState:
        return self.store.states[self._volume_index]

    def _pack(
        self,
        logfile_id: int,
        data: bytes,
        want_timestamp: bool,
        client_seq: int | None,
        tracked: frozenset[int],
    ) -> AppendResult:
        """The record packer, every append's one path: draw the timestamp,
        put the record into the tail, fragmenting it across blocks as
        needed, and count its bytes (a client log file's entry, or a
        catalog record).  Its arguments were checked at the service
        boundary.

        A record that fits whole in the open block goes straight through;
        opening a block, a burn and a fragment's continuations branch off.
        "A header timestamp is mandatory for the first log entry in each
        block" (Section 2.1): an untimestamped record that would start a
        block draws one before it is encoded.
        """
        store = self.store
        timestamp = None
        if want_timestamp or client_seq is not None:
            timestamp = self._make_timestamp()
        builder = self._builder
        if builder is None:
            self._open_block(cont_in=False)
            builder = self._builder
        while True:
            if timestamp is None and not self._block_has_entry_start:
                timestamp = self._make_timestamp()
            record, header_size = encode_record(
                logfile_id, data, timestamp, client_seq
            )
            taken = builder.add_record(record, header_size)
            if taken:
                break
            self._burn_current()
            self._open_block(cont_in=False)
            builder = self._builder
        location = _served_location(
            store.sequence.to_global(self._volume_index, self._block_addr),
            builder.fragment_count - 1,
        )
        self._block_has_entry_start = True
        self._note_fragment(tracked)
        space = store.space
        space.size_index += 2
        if taken < len(record):
            self._carry_tracked_ids = tracked
            while taken < len(record):
                self._burn_current()
                self._open_block(cont_in=True)
                taken += self._builder.add_continuation(record[taken:])
                self._note_fragment(tracked)
                space.size_index += 2
                if not self._builder.cont_out:
                    # The continuation fragment is in place; any entrymap
                    # entries due at this block can now be emitted after it.
                    self._emit_due_entrymap_entries()
            self._carry_tracked_ids = frozenset()
        if not self._in_batch:
            self._refresh_tail_cache()
        store.append_generation += 1
        if logfile_id >= FIRST_CLIENT_ID or logfile_id == VOLUME_SEQUENCE_ID:
            # A log file clients append to: the root or one they created.
            space.client_entries += 1
            space.client_data += len(data)
            space.entry_headers += header_size
        elif logfile_id == CATALOG_ID:
            space.catalog += len(record)
        return _packed(location, timestamp)

    def _note_fragment(self, tracked: frozenset[int]) -> None:
        if tracked:
            state = self.store.states[self._volume_index]
            block = self._block_addr
            noted = self._noted
            if noted is None or noted[0] is not state or noted[1] != block or (
                noted[2] is not tracked and noted[2] != tracked
            ):
                self._noted = (state, block, tracked)
                state.note_membership(block, tracked)
        self.store.charge("entrymap_maint", self.store.costs.entrymap_per_entry_ms)

    def _refresh_tail_cache(self) -> None:
        self.tail_refreshes += 1
        key = self.store.cache_key(self._volume_index, self._block_addr)
        self.store.cache.put(key, self._builder.encode())

    def _burn_current(self) -> None:
        """Write the tail block image to the device and retire the builder.

        If the target block turns out to carry garbage (a failure wrote to
        never-written media, Section 2.3.2), it is invalidated, its
        location queued for the corrupted-block log file, and the image is
        burned at the next good block — entrymap bits already noted for the
        bad address are harmless false positives (the reader skips
        invalidated blocks).
        """
        store = self.store
        volume_index = self._volume_index
        volume = store.sequence.volumes[volume_index]
        image = self._builder.encode()
        with store.tracer.span("device.io", op="write", volume=volume_index) as sp:
            while True:
                try:
                    local = volume.append_data_block(image)
                    break
                except CorruptBlockError as exc:
                    bad_local = exc.block - 1  # device block -> data block
                    volume.invalidate_data_block(bad_local)
                    self._pending_corrupt_reports.append((volume_index, bad_local))
            sp.set("block", local)
        cache = store.cache
        if local != self._block_addr:
            # Relocated past one or more corrupt blocks: drop the stale
            # tail images cached under the skipped addresses and re-note
            # the memberships under the block's final address.
            for stale in range(self._block_addr, local):
                cache.invalidate(store.cache_key(volume_index, stale))
            self._renote_members(image, local)
            self._block_addr = local
        cache.put(store.cache_key(volume_index, local), image)
        store.space.blocks_written += 1
        if store.nvram is not None:
            store.nvram.clear()
        self._builder = None
        self._block_has_entry_start = False

    def _renote_members(self, image: bytes, local: int) -> None:
        """Record a relocated block's memberships under its real address."""
        from repro.core.block import parse_block
        from repro.core.entry import CorruptRecord, decode_record

        parsed = parse_block(image)
        members: set[int] = set(self._carry_tracked_ids if parsed.cont_in else ())
        for slot in parsed.entry_start_slots():
            try:
                header = decode_record(parsed.fragment(slot)).entry
            except CorruptRecord:
                continue
            members.update(self.store.catalog.owner_tracked(header.logfile_id))
        if members:
            self._state.note_membership(local, members)

    def drain_corrupt_reports(self) -> None:
        """Append queued corrupted-block records (Section 2.3.2).

        Called after each public append completes so the reserved-log write
        never interleaves with a client entry mid-fragmentation.
        """
        if self._draining or not self._pending_corrupt_reports:
            return
        from repro.core.ids import CORRUPTED_BLOCK_ID
        from repro.core.recovery import encode_corrupted_block_record

        self._draining = True
        try:
            while self._pending_corrupt_reports:
                volume_index, local = self._pending_corrupt_reports.pop(0)
                self.append_reserved(
                    CORRUPTED_BLOCK_ID,
                    encode_corrupted_block_record(volume_index, local),
                )
        finally:
            self._draining = False

    def _open_block(self, cont_in: bool) -> None:
        """Open the next tail block, extending the volume sequence if the
        active volume is full, and emit any entrymap entries now due."""
        volume = self.store.sequence.volumes[self._volume_index]
        if volume.is_full:
            volume = self._extend_sequence()
        self._block_addr = volume.next_data_block
        self._builder = BlockBuilder(self.store.config.block_size, cont_in=cont_in)
        self._block_has_entry_start = False
        self._noted = None
        if not cont_in:
            # A continuation fragment must be the block's first fragment,
            # so entrymap entries due at a continuation block are emitted
            # right after that fragment lands (see _pack) — they
            # stay due until emitted, and the reader's relocation window /
            # lower-level fallback tolerates the displacement.
            self._emit_due_entrymap_entries()

    def _extend_sequence(self) -> LogVolume:
        """Load and return a (previously unused) successor volume (Section 2.1)."""
        try:
            device = self.store.make_device()
        except StorageError as exc:
            # No successor medium available: the sequence is exhausted.
            # Surface the condition before the error propagates so the
            # journal records why the append failed.
            self.store.journal.emit(
                "volume.exhausted",
                volume=self._volume_index,
                error=type(exc).__name__,
            )
            raise
        volume = self.store.sequence.create_volume(device, created_ts=self.store.clock.now_us)
        self._volume_index = len(self.store.sequence.volumes) - 1
        self.store.states.append(
            EntrymapState(self.store.config.degree_n, volume.data_capacity)
        )
        self.store.journal.watch_device(self._volume_index, device)
        self.store.journal.emit("volume.extend", volume=self._volume_index)
        return volume

    def _emit_due_entrymap_entries(self) -> None:
        """Write the entrymap log entries whose well-known position is the
        block now opening (Section 2.1: level-i entries every N^i blocks).

        Emission advances the state's boundaries *before* the record is
        packed, so if packing spills into further blocks the re-entrant
        call sees no duplicate work and terminates.
        """
        state = self._state
        due = state.entries_due(self._block_addr)
        if due:
            self._noted = None
        for level, boundary in due:
            if state is not self._state:
                # The volume changed underneath us (a record spilled across
                # a volume boundary); the old volume's remaining entries
                # can no longer be written to it.  Readers fall back.
                break
            if boundary != state.next_emit[level]:
                # A nested emission (triggered while packing an earlier
                # record of this batch spilled into the next block) already
                # wrote this entry.
                continue
            record = state.emit(level, boundary)
            # Entrymap entries are the server's own bookkeeping: their
            # timestamps charge normally even inside a group commit, so a
            # batch's cost differs from N singles only in the per-entry
            # fixed costs (IPC, write overhead, client timestamps).
            encoded, header_size = encode_record(
                ENTRYMAP_ID, record.encode(), self._make_timestamp(amortized=False)
            )
            taken = self._builder.add_record(encoded, header_size)
            while taken == 0:
                self._burn_current()
                self._open_block(cont_in=False)
                taken = self._builder.add_record(encoded, header_size)
            self._block_has_entry_start = True
            self.store.space.entrymap += len(encoded) + 2
            while taken < len(encoded):
                self._burn_current()
                self._open_block(cont_in=True)
                taken += self._builder.add_continuation(encoded[taken:])
                self.store.space.entrymap += 2

    def _force(self) -> None:
        """Make everything appended so far durable (Section 2.3.1)."""
        if self._builder is None or self._builder.is_empty:
            return
        self.store.journal.emit(
            "writer.force",
            volume=self._volume_index,
            block=self._block_addr,
            target="nvram" if self.store.nvram is not None else "burn",
        )
        with self.store.tracer.span(
            "writer.force",
            volume=self._volume_index,
            block=self._block_addr,
            target="nvram" if self.store.nvram is not None else "burn",
        ):
            if self.store.nvram is not None:
                global_block = self.store.sequence.to_global(
                    self._volume_index, self._block_addr
                )
                self.store.nvram.store(global_block, self._builder.encode())
                if self.store.nvram.clock is not None:
                    # The NVRAM store advanced the clock itself (the tail
                    # RAM charges its own write cost); attribute that time
                    # to the span without advancing again.
                    self.store.tracer.charge(
                        "device", self.store.nvram.write_cost_ms
                    )
            else:
                # Pure write-once device: burn the partial block.  "Frequent
                # forced writes can lead to considerable internal
                # fragmentation" — account the wasted space so benchmarks
                # can show it.
                self.store.space.forced_padding += max(
                    0, self._builder.free_bytes + 2
                )
                self._burn_current()
