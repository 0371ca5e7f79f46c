"""Log entries and their headers.

Section 2.2: the header is kept minimal because any attribute of the log
file *as a whole* lives in the catalog log file instead.  The 4-bit
``header-version`` field "indicates the form of log entry header that is
being used", which we exploit to define three forms:

====================  ======  =========================================
form                  bytes   fields
====================  ======  =========================================
``MINIMAL``              2    version:4, logfile-id:12
``TIMESTAMPED``         10    + timestamp:64 (µs)
``FULL``                14    + client sequence number:32
====================  ======  =========================================

The entry *size* is not part of the header: it is stored in the index at
the end of each disk block (Figure 1), so ``MINIMAL`` costs the paper's
4 bytes per entry (2 header + 2 index) and ``FULL`` is exactly the
"complete, 14-byte log entry header that included a (64-bit) timestamp"
used in the Section 3.2 measurements.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.core.ids import validate_logfile_id

__all__ = [
    "HeaderForm",
    "LogEntry",
    "encode_record",
    "DecodedRecord",
    "decode_record",
    "peek_logfile_id",
    "peek_timestamp",
    "CorruptRecord",
]

_U16 = struct.Struct(">H")
_U64 = struct.Struct(">Q")
_U64_U32 = struct.Struct(">QI")
#: One precompiled header per form, for :func:`encode_record`.
_TIMESTAMPED_HEADER = struct.Struct(">HQ")
_FULL_HEADER = struct.Struct(">HQI")


class HeaderForm(enum.IntEnum):
    """Values of the 4-bit header-version field."""

    MINIMAL = 1
    TIMESTAMPED = 2
    FULL = 3

    @property
    def header_size(self) -> int:
        return _HEADER_SIZES[self]


_HEADER_SIZES = {
    HeaderForm.MINIMAL: 2,
    HeaderForm.TIMESTAMPED: 10,
    HeaderForm.FULL: 14,
}
#: Header size by raw version nibble — the one table :func:`decode_record`,
#: the header peeks and the reader's id peek validate against.
SIZE_BY_VERSION = {form.value: size for form, size in _HEADER_SIZES.items()}
_MINIMAL_SIZE = _HEADER_SIZES[HeaderForm.MINIMAL]
_TIMESTAMPED_SIZE = _HEADER_SIZES[HeaderForm.TIMESTAMPED]
_FULL_SIZE = _HEADER_SIZES[HeaderForm.FULL]


class CorruptRecord(ValueError):
    """A record's header could not be parsed."""


@dataclass(frozen=True, slots=True)
class LogEntry:
    """A client log entry: the unit written to and read from a log file.

    ``timestamp`` is the server-assigned receive time (µs); ``client_seq``
    is the optional client-generated sequence number for asynchronous
    identification.  The header form is derived from which fields are
    present, except that a caller may force a timestamped form (the writer
    does this for the first entry of every block).
    """

    logfile_id: int
    data: bytes
    timestamp: int | None = None
    client_seq: int | None = None

    def __post_init__(self) -> None:
        validate_logfile_id(self.logfile_id)
        if self.client_seq is not None and self.timestamp is None:
            raise ValueError(
                "an entry with a client sequence number must be timestamped "
                "(the FULL header form contains both fields)"
            )
        if self.timestamp is not None and not 0 <= self.timestamp < 1 << 64:
            raise ValueError("timestamp must fit in 64 bits")
        if self.client_seq is not None and not 0 <= self.client_seq < 1 << 32:
            raise ValueError("client sequence number must fit in 32 bits")

    @property
    def form(self) -> HeaderForm:
        if self.client_seq is not None:
            return HeaderForm.FULL
        if self.timestamp is not None:
            return HeaderForm.TIMESTAMPED
        return HeaderForm.MINIMAL

    @property
    def header_size(self) -> int:
        return self.form.header_size

    @property
    def record_size(self) -> int:
        """Total on-device bytes for this entry (header + client data)."""
        return self.header_size + len(self.data)

    def encode(self) -> bytes:
        """Serialize header + data into the record written to the block."""
        record, _ = encode_record(
            self.logfile_id, self.data, self.timestamp, self.client_seq
        )
        return record


def encode_record(
    logfile_id: int,
    data: bytes,
    timestamp: int | None = None,
    client_seq: int | None = None,
) -> tuple[bytes, int]:
    """The one record encoder: returns (header + data, header size), the
    form following from which of ``timestamp`` and ``client_seq`` are
    present.  The caller has validated ``logfile_id`` (a :class:`LogEntry`
    or the writer).  The first 16 bits are version:4 | logfile-id:12."""
    if client_seq is not None:
        if not 0 <= client_seq < 1 << 32:
            raise ValueError("client sequence number must fit in 32 bits")
        header = _FULL_HEADER.pack(0x3000 | logfile_id, timestamp, client_seq)
        return header + data, _FULL_SIZE
    if timestamp is not None:
        header = _TIMESTAMPED_HEADER.pack(0x2000 | logfile_id, timestamp)
        return header + data, _TIMESTAMPED_SIZE
    return _U16.pack(0x1000 | logfile_id) + data, _MINIMAL_SIZE


@dataclass(frozen=True, slots=True)
class DecodedRecord:
    """A record parsed back out of a block: the entry plus its raw size."""

    entry: LogEntry
    record_size: int


#: Slot setters: :func:`decode_record` fills both types without ``__init__``,
#: as no header ``_header_size`` passes could fail ``LogEntry.__post_init__``.
_set_id, _set_data, _set_timestamp, _set_client_seq = (
    vars(LogEntry)[name].__set__
    for name in ("logfile_id", "data", "timestamp", "client_seq")
)
_set_entry, _set_record_size = (
    vars(DecodedRecord)[name].__set__ for name in ("entry", "record_size")
)


def _header_size(record: bytes, start: int, end: int) -> int:
    """Validate the header of ``record[start:end]`` and return its size;
    raises :class:`CorruptRecord` exactly when :func:`decode_record` would."""
    length = end - start
    if length < 2:
        raise CorruptRecord(f"record of {length} bytes has no header")
    version = record[start] >> 4
    header_size = SIZE_BY_VERSION.get(version)
    if header_size is None:
        raise CorruptRecord(f"unknown header-version {version}")
    if length < header_size:
        raise CorruptRecord(
            f"record of {length} bytes shorter than its {header_size}-byte "
            f"{HeaderForm(version).name} header"
        )
    return header_size


def peek_logfile_id(record: bytes, start: int = 0, end: int | None = None) -> int:
    """The logfile id of the record at ``record[start:end]`` (all of it by
    default), its header validated in place: nothing is built or copied.  A
    fragmented record's first fragment will do; its whole header is there."""
    _header_size(record, start, len(record) if end is None else end)
    return ((record[start] & 0x0F) << 8) | record[start + 1]


def peek_timestamp(record: bytes, start: int = 0, end: int | None = None) -> int | None:
    """Like :func:`peek_logfile_id`, but return the header timestamp (None
    for the ``MINIMAL`` form) — the time search's probe (Section 2.1)."""
    header_size = _header_size(record, start, len(record) if end is None else end)
    if header_size == _MINIMAL_SIZE:
        return None
    timestamp: int = _U64.unpack_from(record, start + 2)[0]
    return timestamp


def decode_record(record: bytes) -> DecodedRecord:
    """Parse one complete (reassembled, if fragmented) record.

    Raises :class:`CorruptRecord` if the header-version nibble is not a
    known form or the record is shorter than its header.
    """
    header_size = _header_size(record, 0, len(record))
    timestamp = client_seq = None
    if header_size == _TIMESTAMPED_SIZE:
        (timestamp,) = _U64.unpack_from(record, 2)
    elif header_size == _FULL_SIZE:
        timestamp, client_seq = _U64_U32.unpack_from(record, 2)
    entry = LogEntry.__new__(LogEntry)
    _set_id(entry, ((record[0] & 0x0F) << 8) | record[1])
    _set_data(entry, record[header_size:])
    _set_timestamp(entry, timestamp)
    _set_client_seq(entry, client_seq)
    decoded = DecodedRecord.__new__(DecodedRecord)
    _set_entry(decoded, entry)
    _set_record_size(decoded, len(record))
    return decoded
