"""Log file and log entry identities.

Section 2.2 gives the log entry header a 12-bit ``local-logfile-id``: an
index into the server's catalog of log files.  A handful of low ids are
reserved for the service's own log files:

* id 0 — the *volume sequence log file*: the entire sequence of entries
  written to the volume sequence (Section 2: every other log file is a
  subset of it).  It has no catalog record and no entrymap bitmaps.
* id 1 — the *entrymap log file* (Section 2.1), at well-known positions.
* id 2 — the *catalog log file* (Section 2.2), holding log-file attributes.
* id 3 — the *corrupted-block log file* (Section 2.3.2), recording
  locations of previously unwritten blocks found corrupted.

Client log files are numbered from :data:`FIRST_CLIENT_ID`.

Entries are uniquely identified either by the server timestamp returned
from a synchronous write (:class:`EntryId`) or, for asynchronous writers,
by a client-generated (sequence number, client timestamp) pair
(:class:`ClientEntryId`) per Section 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "VOLUME_SEQUENCE_ID",
    "ENTRYMAP_ID",
    "CATALOG_ID",
    "CORRUPTED_BLOCK_ID",
    "FIRST_CLIENT_ID",
    "MAX_LOGFILE_ID",
    "is_reserved_id",
    "validate_logfile_id",
    "EntryId",
    "ClientEntryId",
    "EntryLocation",
]

VOLUME_SEQUENCE_ID = 0
ENTRYMAP_ID = 1
CATALOG_ID = 2
CORRUPTED_BLOCK_ID = 3
FIRST_CLIENT_ID = 8
#: The header's logfile-id field is 12 bits wide (Section 2.2).
MAX_LOGFILE_ID = (1 << 12) - 1


def is_reserved_id(logfile_id: int) -> bool:
    return 0 <= logfile_id < FIRST_CLIENT_ID


def validate_logfile_id(logfile_id: int) -> int:
    if not 0 <= logfile_id <= MAX_LOGFILE_ID:
        raise ValueError(
            f"logfile id {logfile_id} outside the 12-bit range "
            f"0..{MAX_LOGFILE_ID}"
        )
    return logfile_id


@dataclass(frozen=True, slots=True, order=True)
class EntryId:
    """Server-assigned identity of a synchronously written entry.

    "If the entry is written synchronously to the logging service, then a
    client can obtain this timestamp as a consequence of the write
    operation" (Section 2.1).  Within a log file the timestamp is unique.
    """

    timestamp: int

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")


@dataclass(frozen=True, slots=True)
class ClientEntryId:
    """Client-generated identity for asynchronously written entries.

    The client timestamp narrows the search to the neighbourhood of the
    entry; the sequence number then selects the exact entry.  Correctness
    "depends on the sequence number not wrapping around within the maximum
    possible time skew between the client and the server" (Section 2.1).
    """

    sequence_number: int
    client_timestamp: int

    def __post_init__(self) -> None:
        if self.sequence_number < 0 or self.sequence_number > 0xFFFFFFFF:
            raise ValueError("sequence number must fit in 32 bits")
        if self.client_timestamp < 0:
            raise ValueError("client timestamp must be non-negative")


@dataclass(frozen=True, slots=True, order=True)
class EntryLocation:
    """Physical position of an entry: global block plus record slot.

    ``global_block`` is the block (in volume-sequence global data-block
    space) holding the *first* fragment of the entry; ``slot`` is the
    record index of that fragment within the block.
    """

    global_block: int
    slot: int

    def __post_init__(self) -> None:
        if self.global_block < 0:
            raise ValueError("global_block must be non-negative")
        if self.slot < 0:
            raise ValueError("slot must be non-negative")


_set_global_block, _set_slot = (
    vars(EntryLocation)[name].__set__ for name in ("global_block", "slot")
)


def _served_location(global_block: int, slot: int) -> EntryLocation:
    """An :class:`EntryLocation` the reader has just read an entry at (both
    fields non-negative by construction), built without ``__post_init__``."""
    location = EntryLocation.__new__(EntryLocation)
    _set_global_block(location, global_block)
    _set_slot(location, slot)
    return location
