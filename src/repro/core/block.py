"""The on-device block format (Figure 1).

Entries are packed forward from the block header; an index of per-fragment
sizes grows *backward* from the block trailer, so a block can be scanned
"either forwards or backwards, to examine the log entries that it
contains" (Section 2.1).  A 4-byte CRC32 trailer supplies the integrity
check that Section 2.3.2's corruption handling assumes.

Layout of a ``block_size``-byte block::

    +--------------------+---------------------------+------+-----------+-----+
    | header (10 bytes)  | fragment 0 | fragment 1 ..| free | s_n .. s_1 | CRC |
    +--------------------+---------------------------+------+-----------+-----+

Header fields: magic (1), flags (1), fragment count (2), continuation-in
length (2), data length (2), reserved (2).  Flags: bit 0 = the first
fragment continues an entry begun in an earlier block; bit 1 = the last
fragment continues into the next block ("a log entry may also be
fragmented over more than one block", Section 2.1 footnote 7).

Fragment *i*'s size ``s_i`` is the 16-bit word at offset
``block_size - 4 - 2*(i+1)`` — sizes run right-to-left exactly as in
Figure 1.
"""

from __future__ import annotations

import struct
import zlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.core.entry import LogEntry
    from repro.core.entrymap import EntrymapRecord

__all__ = [
    "BlockFormatError",
    "ParsedBlock",
    "BlockBuilder",
    "BLOCK_OVERHEAD",
    "parse_block",
]

_MAGIC = 0xC1
_FLAG_CONT_IN = 0x01
_FLAG_CONT_OUT = 0x02
_HEADER = struct.Struct(">BBHHHH")
_HEADER_SIZE = _HEADER.size  # 10
_CRC = struct.Struct(">I")
_CRC_SIZE = _CRC.size
_INDEX_ENTRY_SIZE = 2


class _IndexStructs(dict[int, struct.Struct]):
    """The size index of an ``n``-fragment block, one precompiled struct per
    n, made on first use (at most one per fragment count the block geometry
    admits)."""

    def __missing__(self, count: int) -> struct.Struct:
        index = self[count] = struct.Struct(f">{count}H")
        return index


_INDEX = _IndexStructs()

#: Fixed per-block overhead (header + CRC trailer), excluding the index.
BLOCK_OVERHEAD = _HEADER_SIZE + _CRC_SIZE

#: Minimum usable block size: room for the fixed overhead, one index slot,
#: and at least a maximal (14-byte) entry header.
MIN_BLOCK_SIZE = BLOCK_OVERHEAD + _INDEX_ENTRY_SIZE + 14


class BlockFormatError(ValueError):
    """The block image does not parse (bad magic, CRC, or geometry)."""


class ParsedBlock:
    """A verified block: its image, fragment offsets and continuation flags.

    Fragment *i* is ``image[bounds[i]:bounds[i + 1]]``; :meth:`fragment`
    slices one and :attr:`fragments` all of them, only when asked, so a
    block whose records are only peeked at copies nothing.  Fragment 0 is
    the tail of an entry begun in an earlier block when ``cont_in`` is set;
    the final fragment is the head of an entry finished in a later block
    when ``cont_out`` is set.  Every other fragment is one complete record.

    A parsed block is also where the read path keeps what it has already
    decoded out of these fragments, so each record is interpreted once per
    *resident* block rather than once per access:

    ``record_ids``
        per fragment, the validated logfile id of the record starting
        there (None for the continuation-in fragment and for a record whose
        header does not validate); None until first asked for.
    ``entries``
        per fragment, the decoded :class:`~repro.core.entry.LogEntry` of
        the record starting there (for a record that continues into the
        next block: its header fields and the part of its data held here).
    ``entrymaps``
        slot → decoded entrymap record (None if it does not decode), for
        complete entrymap records only.

    :class:`~repro.core.reader.LogReader` makes and fills all three on
    first use.  They need no invalidation rule of their own: the block
    cache drops a parsed block together with the raw bytes it was parsed
    from.
    """

    __slots__ = (
        "cont_in",
        "cont_out",
        "image",
        "bounds",
        "fragment_count",
        "record_ids",
        "entries",
        "entrymaps",
    )

    def __init__(
        self, cont_in: bool, cont_out: bool, image: bytes, bounds: list[int]
    ) -> None:
        self.cont_in = cont_in
        self.cont_out = cont_out
        self.image = image
        self.bounds = bounds
        self.fragment_count = len(bounds) - 1
        self.record_ids: list[int | None] | None = None
        self.entries: list[LogEntry | None] | None = None
        self.entrymaps: dict[int, EntrymapRecord | None] | None = None

    def __repr__(self) -> str:
        return (
            f"ParsedBlock(cont_in={self.cont_in}, cont_out={self.cont_out}, "
            f"fragments={self.fragments!r})"
        )

    def fragment(self, slot: int) -> bytes:
        """A copy of fragment ``slot``."""
        return self.image[self.bounds[slot] : self.bounds[slot + 1]]

    @property
    def fragments(self) -> tuple[bytes, ...]:
        """Every fragment, sliced out of the image (a fresh copy per call)."""
        return tuple(map(self.fragment, range(self.fragment_count)))

    def entry_start_slots(self) -> range:
        """Indices of fragments that *begin* an entry in this block."""
        return range(self.cont_in, self.fragment_count)

    def is_complete(self, slot: int) -> bool:
        """True if the record starting at ``slot`` ends inside this block."""
        return not (self.cont_out and slot == self.fragment_count - 1)

    @property
    def is_pure_middle(self) -> bool:
        """True when the whole block is the middle of one giant entry."""
        return self.cont_in and self.cont_out and self.fragment_count == 1


def parse_block(data: bytes) -> ParsedBlock:
    """Verify a block image — magic, CRC, geometry, size index and
    continuation flags — and record where its fragments lie."""
    block_size = len(data)
    if block_size < MIN_BLOCK_SIZE:
        raise BlockFormatError(f"block of {block_size} bytes is too small")
    magic, flags, count, cont_len, data_len, _reserved = _HEADER.unpack_from(data, 0)
    if magic != _MAGIC:
        raise BlockFormatError(f"bad block magic 0x{magic:02x}")
    index_end = block_size - _CRC_SIZE
    (stored_crc,) = _CRC.unpack_from(data, index_end)
    actual_crc = zlib.crc32(data[:index_end])
    if stored_crc != actual_crc:
        raise BlockFormatError(
            f"CRC mismatch: stored 0x{stored_crc:08x}, computed 0x{actual_crc:08x}"
        )
    index_size = _INDEX_ENTRY_SIZE * count
    payload_region = block_size - BLOCK_OVERHEAD
    if index_size > payload_region or data_len > payload_region - index_size:
        raise BlockFormatError("block geometry inconsistent (data overlaps index)")

    # The index runs right-to-left (s_n .. s_1), so one read yields the
    # sizes in reverse; the geometry check above keeps it inside the block.
    # Their running sum from the header end gives every fragment's bounds.
    index = _INDEX[count]
    end = _HEADER_SIZE
    bounds = [end]
    for size in reversed(index.unpack_from(data, index_end - index_size)):
        end += size
        bounds.append(end)
    if end - _HEADER_SIZE != data_len:
        raise BlockFormatError(
            f"size index sums to {end - _HEADER_SIZE} but data length "
            f"is {data_len}"
        )
    cont_in = bool(flags & _FLAG_CONT_IN)
    cont_out = bool(flags & _FLAG_CONT_OUT)
    if cont_in:
        if count == 0 or bounds[1] - _HEADER_SIZE != cont_len:
            raise BlockFormatError("continuation-in length disagrees with index")
    elif cont_len != 0:
        raise BlockFormatError("continuation length set without the flag")
    return ParsedBlock(cont_in, cont_out, data, bounds)


class BlockBuilder:
    """Incrementally packs records into one block image.

    The writer owns exactly one builder (the tail block).  Records are
    appended with :meth:`add_record` / :meth:`add_continuation`; when the
    block cannot accept more, the writer encodes it, burns it to the
    device, and opens a fresh builder.

    A *new* record is only started if its full header fits, so the header
    of every entry is always parseable from the entry's first block (the
    time-search in Section 2.1 depends on reading the first entry's
    timestamp from a block in isolation).
    """

    def __init__(self, block_size: int, cont_in: bool = False) -> None:
        if block_size < MIN_BLOCK_SIZE:
            raise ValueError(
                f"block_size must be at least {MIN_BLOCK_SIZE}, got {block_size}"
            )
        if block_size > 0xFFFF:
            raise ValueError("block_size must fit the 16-bit size index")
        self.block_size = block_size
        self.cont_in = cont_in
        self.cont_out = False
        self._fragments: list[bytes] = []
        self._data_len = 0
        #: The last :meth:`encode`; the two adders, the only mutators, drop it.
        self._image: bytes | None = None

    # -- capacity ----------------------------------------------------------

    @property
    def fragment_count(self) -> int:
        return len(self._fragments)

    @property
    def is_empty(self) -> bool:
        return not self._fragments

    @property
    def free_bytes(self) -> int:
        """Payload bytes available if one more fragment is added."""
        return (
            self.block_size
            - BLOCK_OVERHEAD
            - self._data_len
            - _INDEX_ENTRY_SIZE * (len(self._fragments) + 1)
        )

    def fits_whole(self, record_size: int) -> bool:
        return record_size <= self.free_bytes

    # -- filling ------------------------------------------------------------

    def add_record(self, record: bytes, header_size: int) -> int:
        """Start a new record in this block; returns bytes consumed (0..len).

        Returns 0 when not even the record's header fits — the caller must
        flush the block and retry in a fresh one.  If only part of the
        record fits, the block is marked continuing-out and the caller
        carries the remainder into the next block.
        """
        if self.cont_out:
            raise RuntimeError("block already ends with a continuing fragment")
        take = len(record)
        if header_size > take:
            raise ValueError("header_size exceeds record length")
        free = self.free_bytes
        if free < header_size:
            return 0
        if take > free:
            take = free
            record = record[:free]
            self.cont_out = True
        self._fragments.append(record)
        self._data_len += take
        self._image = None
        return take

    def add_continuation(self, remainder: bytes) -> int:
        """Continue an entry from the previous block; returns bytes consumed.

        Must be the first fragment of the block (``cont_in`` builders only).
        """
        if not self.cont_in or self._fragments:
            raise RuntimeError(
                "continuation fragment must be the first fragment of a "
                "continuation block"
            )
        if not remainder:
            raise ValueError("continuation remainder must be non-empty")
        free = self.free_bytes
        take = min(free, len(remainder))
        self._fragments.append(remainder[:take])
        self._data_len += take
        self._image = None
        if take < len(remainder):
            self.cont_out = True
        return take

    # -- encoding -------------------------------------------------------------

    def encode(self) -> bytes:
        """Produce the full block image (free space zero-filled, CRC set)."""
        if self._image is not None:
            return self._image
        fragments = self._fragments
        count = len(fragments)
        flags = 0
        cont_len = 0
        if self.cont_in:
            if not fragments:
                raise RuntimeError("continuation block encoded with no fragments")
            flags |= _FLAG_CONT_IN
            cont_len = len(fragments[0])
        if self.cont_out:
            flags |= _FLAG_CONT_OUT
        gap = self.free_bytes + _INDEX_ENTRY_SIZE
        if gap < 0:
            raise RuntimeError("block overfilled — builder accounting bug")
        header = _HEADER.pack(_MAGIC, flags, count, cont_len, self._data_len, 0)
        sizes = _INDEX[count].pack(*map(len, reversed(fragments)))
        image = b"".join((header, *fragments, bytes(gap), sizes))
        if len(image) != self.block_size - _CRC_SIZE:
            raise RuntimeError(
                f"block image is {len(image) + _CRC_SIZE} bytes, not "
                f"{self.block_size} — builder accounting bug"
            )
        self._image = image = image + _CRC.pack(zlib.crc32(image))
        return image

    @classmethod
    def from_image(cls, data: bytes) -> "BlockBuilder":
        """Reconstruct a builder from a partial block image.

        Used on recovery to resume filling the tail block staged in NVRAM
        (Section 2.3.1).  The image must parse; its fragments become the
        builder's current contents.
        """
        parsed = parse_block(data)
        builder = cls(block_size=len(data), cont_in=parsed.cont_in)
        builder._fragments = list(parsed.fragments)
        builder._data_len = parsed.bounds[-1] - _HEADER_SIZE
        builder.cont_out = parsed.cont_out
        return builder
