"""The Clio log service: the paper's primary contribution.

Public API:

* :class:`LogService` — the extended file service (create/mount/crash,
  naming, append, read).
* :class:`LogFile` — client handle to one readable, append-only log file.
* :class:`EntryId` / :class:`ClientEntryId` — unique entry identities.
* :class:`AppendResult`, :class:`ReadEntry` — operation results.
"""

from repro.core.ids import (
    CATALOG_ID,
    CORRUPTED_BLOCK_ID,
    ENTRYMAP_ID,
    FIRST_CLIENT_ID,
    VOLUME_SEQUENCE_ID,
    ClientEntryId,
    EntryId,
    EntryLocation,
)
from repro.core.logfile import LogFile
from repro.core.reader import ReadEntry, TornEntryError
from repro.core.service import CrashRemains, LogService
from repro.core.writer import AppendResult

__all__ = [
    "LogService",
    "LogFile",
    "EntryId",
    "ClientEntryId",
    "EntryLocation",
    "AppendResult",
    "ReadEntry",
    "TornEntryError",
    "CrashRemains",
    "VOLUME_SEQUENCE_ID",
    "ENTRYMAP_ID",
    "CATALOG_ID",
    "CORRUPTED_BLOCK_ID",
    "FIRST_CLIENT_ID",
]
