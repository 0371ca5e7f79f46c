"""The catalog log file (Section 2.2).

*"Any information that is an attribute of a log file as a whole is recorded
separately, in a separate log file called the catalog log file.  Such 'log
file specific' attributes include a log file's name, its access
permissions, and its time of creation.  Any change to these attributes is
also logged (at time of the change) in the catalog log file."*

Catalog *records* (:class:`CatalogRecord`) are the entries appended to
reserved log file id 2; the :class:`Catalog` is the server's in-memory
table ("a catalog of log file specific information (i.e. file descriptors)
... derived from the catalog log file") rebuilt by replaying those records
on initialization.  Replay is idempotent and order-respecting: the final
state depends only on the record sequence, never on volatile state.

The catalog also implements the sublog tree (Section 2.1): every log file
has a parent, the root being the volume sequence log file (id 0), and "if
log file l2 is a sublog of log file l1, then any entry that is logged in l2
will also belong to l1".
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, fields

from repro.core.entrymap import UNTRACKED_IDS
from repro.core.ids import (
    FIRST_CLIENT_ID,
    MAX_LOGFILE_ID,
    VOLUME_SEQUENCE_ID,
    is_reserved_id,
    validate_logfile_id,
)
from repro.core.naming import split_path, validate_component

__all__ = [
    "CatalogError",
    "CatalogOp",
    "CatalogRecord",
    "LogFileInfo",
    "Catalog",
]


class CatalogError(Exception):
    """A catalog invariant was violated (duplicate name, unknown id, ...)."""


class CatalogOp(enum.IntEnum):
    CREATE = 1
    SET_ATTRIBUTE = 2


_FIXED = struct.Struct(">BHHHQ")


@dataclass(frozen=True, slots=True)
class CatalogRecord:
    """One entry in the catalog log file.

    ``CREATE`` carries the new log file's id, parent, permissions, creation
    time and name.  ``SET_ATTRIBUTE`` carries the id and a key/value pair
    (the value of ``key`` replaces any earlier value — the log of changes
    *is* the attribute history).
    """

    op: CatalogOp
    logfile_id: int
    parent_id: int = VOLUME_SEQUENCE_ID
    permissions: int = 0o644
    created_ts: int = 0
    name: str = ""
    key: str = ""
    value: bytes = b""

    def encode(self) -> bytes:
        fixed = _FIXED.pack(
            self.op, self.logfile_id, self.parent_id, self.permissions, self.created_ts
        )
        name_bytes = self.name.encode()
        key_bytes = self.key.encode()
        return b"".join(
            [
                fixed,
                struct.pack(">H", len(name_bytes)),
                name_bytes,
                struct.pack(">H", len(key_bytes)),
                key_bytes,
                struct.pack(">H", len(self.value)),
                self.value,
            ]
        )

    @classmethod
    def decode(cls, payload: bytes) -> "CatalogRecord":
        try:
            # op, logfile_id, parent_id, permissions, created_ts
            fixed = _FIXED.unpack_from(payload, 0)
        except struct.error as exc:
            raise CatalogError(f"catalog record truncated: {exc}") from None
        name, offset = _take(payload, _FIXED.size)
        key, offset = _take(payload, offset)
        try:
            name_text = name.decode()
            key_text = key.decode()
        except UnicodeDecodeError as exc:
            # Garbage that parsed as lengths: a non-UTF-8 name or key, or
            # an op byte outside CatalogOp, is damage like truncation, so
            # replay and fsck skip it.
            raise CatalogError(f"catalog record malformed: {exc}") from None
        op = _OPS.get(fixed[0])
        if op is None:
            raise CatalogError(
                f"catalog record malformed: {fixed[0]} is not a valid CatalogOp"
            )
        value, _ = _take(payload, offset)
        # Filled slot by slot: every field is checked above.
        record = cls.__new__(cls)
        values = (op, *fixed[1:], name_text, key_text, bytes(value))
        for setter, field_value in zip(_SETTERS, values):
            setter(record, field_value)
        return record


_OPS = {member.value: member for member in CatalogOp}
_LENGTH = struct.Struct(">H")
_SETTERS = [vars(CatalogRecord)[f.name].__set__ for f in fields(CatalogRecord)]


def _take(payload: bytes, offset: int) -> tuple[bytes, int]:
    """The length-prefixed field at ``offset``, and the offset past it."""
    try:
        (length,) = _LENGTH.unpack_from(payload, offset)
    except struct.error as exc:
        raise CatalogError(f"catalog record truncated: {exc}") from None
    offset += 2
    value = payload[offset : offset + length]
    if len(value) != length:
        raise CatalogError("catalog record truncated")
    return value, offset + length


@dataclass(slots=True)
class LogFileInfo:
    """In-memory descriptor of one log file."""

    logfile_id: int
    name: str
    parent_id: int
    permissions: int
    created_ts: int
    attributes: dict[str, bytes] = field(default_factory=dict)

    @property
    def is_root(self) -> bool:
        return self.logfile_id == VOLUME_SEQUENCE_ID


class Catalog:
    """The server's table of log files, derived from the catalog log file.

    The root (the volume sequence log file, id 0) always exists and is not
    represented by any catalog record.
    """

    def __init__(self) -> None:
        root = LogFileInfo(
            logfile_id=VOLUME_SEQUENCE_ID,
            name="",
            parent_id=VOLUME_SEQUENCE_ID,
            permissions=0o755,
            created_ts=0,
        )
        self._by_id: dict[int, LogFileInfo] = {VOLUME_SEQUENCE_ID: root}
        self._children: dict[int, dict[str, int]] = {VOLUME_SEQUENCE_ID: {}}
        self._next_id = FIRST_CLIENT_ID
        #: Memoized :meth:`chain` / :meth:`tracked` answers, filled on first
        #: ask.  The catalog only grows (no rename, delete or reparent), so
        #: an answer once walked never goes stale.
        self._chains: dict[int, tuple[int, ...]] = {}
        self._tracked: dict[int, frozenset[int]] = {}

    # -- queries -------------------------------------------------------------

    def __contains__(self, logfile_id: int) -> bool:
        return logfile_id in self._by_id

    def info(self, logfile_id: int) -> LogFileInfo:
        try:
            return self._by_id[logfile_id]
        except KeyError:
            raise CatalogError(f"unknown log file id {logfile_id}") from None

    def children(self, logfile_id: int) -> dict[str, int]:
        """name → id of the sublogs directly under ``logfile_id``."""
        self.info(logfile_id)
        return dict(self._children.get(logfile_id, {}))

    def resolve(self, path: str) -> int:
        """Resolve an absolute path to a log file id."""
        current = VOLUME_SEQUENCE_ID
        for component in split_path(path):
            children = self._children.get(current, {})
            if component not in children:
                raise CatalogError(f"no log file {component!r} under {current}")
            current = children[component]
        return current

    def path_of(self, logfile_id: int) -> str:
        """Inverse of :meth:`resolve`."""
        components = []
        info = self.info(logfile_id)
        while not info.is_root:
            components.append(info.name)
            info = self.info(info.parent_id)
        return "/" + "/".join(reversed(components))

    def ancestors(self, logfile_id: int) -> list[int]:
        """Ids of ``logfile_id`` and all its ancestors up to (and
        including) the root.  Entry membership propagates along this chain:
        a sublog entry 'also belongs to' every ancestor log file."""
        return list(self.chain(logfile_id))

    def chain(self, logfile_id: int) -> tuple[int, ...]:
        """:meth:`ancestors`, memoized — each id's from its parent's; an
        unknown id raises and memoizes nothing."""
        chain = self._chains.get(logfile_id)
        if chain is None:
            info = self.info(logfile_id)
            chain = (logfile_id,)
            if not info.is_root:
                chain += self.chain(info.parent_id)
            self._chains[logfile_id] = chain
        return chain

    def tracked(self, logfile_id: int) -> frozenset[int]:
        """The log files the entrymap notes an entry of ``logfile_id``
        under: its :meth:`chain` minus ``UNTRACKED_IDS``, memoized alike."""
        members = self._tracked.get(logfile_id)
        if members is None:
            members = frozenset(self.chain(logfile_id)) - UNTRACKED_IDS
            self._tracked[logfile_id] = members
        return members

    def owner_tracked(self, logfile_id: int) -> frozenset[int]:
        """:meth:`tracked` for an owner id read off the medium: an id the
        catalog has never seen (garbage carrying a valid header, or an
        entry whose CREATE was lost) belongs to itself alone."""
        if logfile_id in self._by_id:
            return self.tracked(logfile_id)
        return frozenset((logfile_id,)) - UNTRACKED_IDS

    def all_ids(self) -> list[int]:
        return sorted(self._by_id)

    @property
    def next_id(self) -> int:
        return self._next_id

    def allocate_id(self) -> int:
        """Allocate the next never-used client log file id."""
        if self._next_id > MAX_LOGFILE_ID:
            raise CatalogError("log file id space (12 bits) exhausted")
        allocated = self._next_id
        self._next_id += 1
        return allocated

    # -- record construction -------------------------------------------------

    def make_create_record(
        self,
        logfile_id: int,
        name: str,
        parent_id: int,
        permissions: int,
        created_ts: int,
    ) -> CatalogRecord:
        """Validate and build a CREATE record (does not apply it)."""
        validate_logfile_id(logfile_id)
        validate_component(name)
        if is_reserved_id(logfile_id) and logfile_id != VOLUME_SEQUENCE_ID:
            raise CatalogError(f"cannot create reserved log file id {logfile_id}")
        if logfile_id in self._by_id:
            raise CatalogError(f"log file id {logfile_id} already exists")
        parent = self.info(parent_id)
        if name in self._children.get(parent.logfile_id, {}):
            raise CatalogError(
                f"name {name!r} already exists under {self.path_of(parent_id)!r}"
            )
        return CatalogRecord(
            op=CatalogOp.CREATE,
            logfile_id=logfile_id,
            parent_id=parent_id,
            permissions=permissions,
            created_ts=created_ts,
            name=name,
        )

    def make_set_attribute_record(
        self, logfile_id: int, key: str, value: bytes
    ) -> CatalogRecord:
        self.info(logfile_id)
        if not key:
            raise CatalogError("attribute key must be non-empty")
        return CatalogRecord(
            op=CatalogOp.SET_ATTRIBUTE, logfile_id=logfile_id, key=key, value=value
        )

    # -- replay --------------------------------------------------------------

    def apply(self, record: CatalogRecord) -> None:
        """Apply one catalog record (in log order).

        Used both on the live write path (after the record is logged) and
        during recovery replay.
        """
        if record.op is CatalogOp.CREATE:
            self._apply_create(record)
        elif record.op is CatalogOp.SET_ATTRIBUTE:
            self._apply_set_attribute(record)
        else:  # pragma: no cover - enum is closed
            raise CatalogError(f"unknown catalog op {record.op}")

    def _apply_create(self, record: CatalogRecord) -> None:
        if record.logfile_id in self._by_id:
            raise CatalogError(
                f"replayed CREATE for existing id {record.logfile_id}"
            )
        if record.parent_id not in self._by_id:
            raise CatalogError(
                f"CREATE {record.logfile_id} references unknown parent "
                f"{record.parent_id}"
            )
        info = LogFileInfo(
            logfile_id=record.logfile_id,
            name=record.name,
            parent_id=record.parent_id,
            permissions=record.permissions,
            created_ts=record.created_ts,
        )
        self._by_id[record.logfile_id] = info
        self._children.setdefault(record.parent_id, {})[record.name] = record.logfile_id
        self._children.setdefault(record.logfile_id, {})
        if record.logfile_id >= self._next_id:
            self._next_id = record.logfile_id + 1

    #: The reserved attribute key carrying permission changes: its 2-byte
    #: big-endian value updates the descriptor's mode ("any change to these
    #: attributes is also logged ... in the catalog log file").
    MODE_ATTRIBUTE = "mode"

    @staticmethod
    def encode_mode(permissions: int) -> bytes:
        return struct.pack(">H", permissions)

    def _apply_set_attribute(self, record: CatalogRecord) -> None:
        info = self.info(record.logfile_id)
        info.attributes[record.key] = record.value
        if record.key == self.MODE_ATTRIBUTE and len(record.value) == 2:
            (info.permissions,) = struct.unpack(">H", record.value)
