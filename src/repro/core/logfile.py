"""The client-facing log file handle.

"Log files appear the same as conventional file system files except that
log files are append only [and] when a log file is opened for reading,
access can be provided to the sequence of entries in the file either
subsequent to, or prior to, any previous point in time" (Section 2).

A :class:`LogFile` is a thin handle: all mechanism lives in the service.
Handles remain valid for the life of the service instance.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.core.ids import ClientEntryId, EntryId
from repro.core.reader import ReadEntry
from repro.core.writer import AppendResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.service import LogService

__all__ = ["LogFile"]


class LogFile:
    """An open log file: readable, append-only."""

    def __init__(self, service: "LogService", logfile_id: int, path: str):
        self._service = service
        self.logfile_id = logfile_id
        self.path = path

    def __repr__(self) -> str:
        return f"LogFile(id={self.logfile_id}, path={self.path!r})"

    @property
    def service(self) -> "LogService":
        """The service this handle belongs to."""
        return self._service

    # -- writing -----------------------------------------------------------

    def append(
        self,
        data: bytes,
        *,
        force: bool = False,
        timestamped: bool = True,
        client_seq: int | None = None,
    ) -> AppendResult:
        """Append one entry; see :meth:`LogService.append`."""
        return self._service.append(
            self,
            data,
            force=force,
            timestamped=timestamped,
            client_seq=client_seq,
        )

    def append_many(
        self,
        batch: list[bytes],
        *,
        force: bool = False,
        timestamped: bool = True,
        client_seqs: list[int | None] | None = None,
    ) -> list[AppendResult]:
        """Append a batch as one group commit; see
        :meth:`LogService.append_many`."""
        return self._service.append_many(
            self,
            batch,
            force=force,
            timestamped=timestamped,
            client_seqs=client_seqs,
        )

    # -- reading ------------------------------------------------------------

    def entries(
        self,
        *,
        since: int | None = None,
        before: int | None = None,
        after=None,
        reverse: bool = False,
    ) -> Iterator[ReadEntry]:
        """Iterate this log file's entries (sublogs included); see
        :meth:`LogService.read_entries`."""
        return self._service.read_entries(
            self, since=since, before=before, after=after, reverse=reverse
        )

    def tail(self, count: int) -> list[ReadEntry]:
        """The newest ``count`` entries, oldest first — the dominant access
        pattern ("the most frequent accesses to large logs are to those
        entries that were written most recently")."""
        if not isinstance(count, int):
            raise TypeError(f"count must be an int, not {type(count).__name__}")
        if count < 0:
            raise ValueError("count must be non-negative")
        if count == 0:
            return []
        newest_first = []
        for entry in self.entries(reverse=True):
            newest_first.append(entry)
            if len(newest_first) >= count:
                break
        return list(reversed(newest_first))

    def read(self, entry_id: EntryId) -> ReadEntry | None:
        return self._service.read_entry(self, entry_id)

    def find(
        self, client_id: ClientEntryId, max_skew_us: int = 1_000_000
    ) -> ReadEntry | None:
        return self._service.find_client_entry(self, client_id, max_skew_us)

    # -- hierarchy ---------------------------------------------------------------

    def create_sublog(self, name: str, permissions: int = 0o644) -> "LogFile":
        """Create a sublog under this log file (Section 2.1)."""
        child_path = self.path.rstrip("/") + "/" + name
        return self._service.create_log_file(child_path, permissions)

    def sublogs(self) -> dict[str, "LogFile"]:
        return self._service.list_dir(self.path)

    # -- attributes ----------------------------------------------------------------

    def set_attribute(self, key: str, value: bytes) -> None:
        self._service.set_attribute(self, key, value)

    def attributes(self) -> dict[str, bytes]:
        return dict(self._service.store.catalog.info(self.logfile_id).attributes)
