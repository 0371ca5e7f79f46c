"""Locating log entries by time (Section 2.1).

"The server must also be able to efficiently locate the position of those
log entries that were written at a given earlier point in time.  The server
uses a tree search, based on the timestamps in the log entry headers.  A
header timestamp is mandatory for the first log entry in each block, so the
search succeeds to a resolution of at least a single block."

Because the writer's clock is monotone and there is a single append point,
first-entry timestamps are non-decreasing in block order — so the search is
a plain binary search over global block positions: it keeps the answer in
``[lo, hi)``, probes the first-entry timestamp at ``(lo + hi) // 2``, and
stops when one block is left.  A probe that lands on a block without a
first-entry timestamp (unreadable, the middle of a fragmented entry, or a
first header without one) moves forward to the next block that has one,
bounded by ``hi``.  Each probe is one block access and a header peek.
"""

from __future__ import annotations

from repro.core.entry import CorruptRecord, peek_timestamp
from repro.core.reader import LogReader

__all__ = ["TimeIndex"]


class TimeIndex:
    """Timestamp search over one mounted volume sequence."""

    def __init__(self, reader: LogReader) -> None:
        self.reader = reader

    # -- primitives -----------------------------------------------------------

    def block_first_timestamp(self, global_block: int) -> int | None:
        """Timestamp of the first entry *starting* in a block.

        None for unreadable blocks and for blocks wholly occupied by the
        middle of a fragmented entry (those have no entry start).  Headers
        are peeked in place: a probe builds no entry and copies no payload.
        """
        parsed = self.reader.read_parsed_global(global_block)
        if parsed is None:
            return None
        image, bounds = parsed.image, parsed.bounds
        for slot in range(parsed.cont_in, parsed.fragment_count):
            try:
                return peek_timestamp(image, bounds[slot], bounds[slot + 1])
            except CorruptRecord:
                continue
        return None

    def _probe(self, global_block: int, hi: int) -> tuple[int, int | None]:
        """First-entry timestamp at or after ``global_block`` (skipping
        probe-resistant blocks forward, bounded by ``hi``)."""
        block = global_block
        while block < hi:
            ts = self.block_first_timestamp(block)
            if ts is not None:
                return block, ts
            block += 1
        return hi, None

    # -- the search -------------------------------------------------------------

    def locate_block(self, timestamp: int) -> int | None:
        """Greatest readable block whose first-entry timestamp is <= the
        given time (i.e. the block where entries written at that time
        start); None if the log begins after ``timestamp``."""
        extent = self.reader.global_extent()
        if extent == 0:
            return None
        lo, hi = 0, extent  # invariant: answer in [lo, hi)
        first_block, first_ts = self._probe(0, extent)
        if first_ts is None or first_ts > timestamp:
            return None
        lo = first_block
        while hi - lo > 1:
            mid = (lo + hi) // 2
            probe_block, probe_ts = self._probe(mid, hi)
            if probe_ts is None:
                # Everything in [mid, hi) is probe-resistant; narrow down.
                hi = mid
                continue
            if probe_ts <= timestamp:
                lo = probe_block
            else:
                hi = mid
        return lo

    def locate_entry(
        self, logfile_id: int, timestamp: int
    ) -> tuple[int, int] | None:
        """(global_block, slot) of the entry of ``logfile_id`` with exactly
        this server timestamp — the lookup behind
        :class:`~repro.core.ids.EntryId` resolution."""
        start_block = self.locate_block(timestamp)
        if start_block is None:
            return None
        for read_entry in self.reader.iter_entries(
            logfile_id, start_global=start_block
        ):
            entry_ts = read_entry.entry.timestamp
            if entry_ts == timestamp:
                return read_entry.location.global_block, read_entry.location.slot
            if entry_ts is not None and entry_ts > timestamp:
                return None
        return None

    def locate_position_after(
        self, logfile_id: int, timestamp: int
    ) -> tuple[int, int]:
        """(global_block, slot) from which to iterate ``logfile_id``'s
        entries written strictly after ``timestamp``.

        Section 2: "access can be provided to the sequence of entries in
        the file either subsequent to, or prior to, any previous point in
        time."
        """
        start_block = self.locate_block(timestamp)
        if start_block is None:
            return 0, 0
        for read_entry in self.reader.iter_entries(
            logfile_id, start_global=start_block
        ):
            entry_ts = read_entry.entry.timestamp
            if entry_ts is not None and entry_ts > timestamp:
                return (
                    read_entry.location.global_block,
                    read_entry.location.slot,
                )
        return self.reader.global_extent(), 0

    def find_client_entry(
        self,
        logfile_id: int,
        sequence_number: int,
        client_timestamp: int,
        max_skew_us: int,
    ) -> tuple[int, int] | None:
        """Resolve a (sequence number, client timestamp) identity.

        "The timestamp is used to determine the approximate location of the
        entry within the log file.  The sequence number is then used to
        identify the specific entry" (Section 2.1).  The search window is
        [client_timestamp - skew, client_timestamp + skew] in server time.
        """
        window_start = max(0, client_timestamp - max_skew_us)
        window_end = client_timestamp + max_skew_us
        start_block = self.locate_block(window_start)
        if start_block is None:
            start_block = 0
        for read_entry in self.reader.iter_entries(
            logfile_id, start_global=start_block
        ):
            entry = read_entry.entry
            if entry.timestamp is not None and entry.timestamp > window_end:
                return None
            if entry.timestamp is not None and entry.timestamp < window_start:
                continue
            if (
                entry.client_seq == sequence_number
                and entry.logfile_id == logfile_id
            ):
                return read_entry.location.global_block, read_entry.location.slot
        return None
