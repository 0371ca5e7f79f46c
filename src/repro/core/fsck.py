"""Offline consistency checking for log volumes ("clio-fsck").

A production log service running "continuously for several years" over
"several hundred volumes" (Section 3) needs a way to audit a volume
sequence end to end.  The checker walks every readable block and
cross-checks the paper's invariants:

* every block parses and passes its CRC (or is explicitly invalidated);
* the first entry starting in each block carries a timestamp, and
  first-entry timestamps are non-decreasing in block order (Section 2.1's
  time-search precondition);
* continuation chains are well-formed (a cont-out block is followed by a
  cont-in block, except at the log tail);
* every written entrymap record's bitmaps agree with the actual block
  contents — no *false negatives* (a set of blocks containing a log file
  must be covered), while false positives are tolerated, matching the
  redundancy argument of Section 2.3.2;
* every entry's logfile id is known to the catalog (or reserved);
* catalog records replay cleanly.

The checker is read-only and reports findings rather than repairing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.catalog import Catalog, CatalogError, CatalogRecord
from repro.core.entrymap import EntrymapRecord
from repro.core.ids import (
    CATALOG_ID,
    CORRUPTED_BLOCK_ID,
    ENTRYMAP_ID,
    FIRST_CLIENT_ID,
)

__all__ = ["FsckFinding", "FsckReport", "check_service"]


@dataclass(frozen=True, slots=True)
class FsckFinding:
    severity: str  # "error" | "warning"
    volume_index: int
    block: int | None
    message: str


@dataclass(slots=True)
class FsckReport:
    findings: list[FsckFinding] = field(default_factory=list)
    blocks_checked: int = 0
    entries_checked: int = 0
    entrymap_records_checked: int = 0
    catalog_records_checked: int = 0

    @property
    def errors(self) -> list[FsckFinding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> list[FsckFinding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def clean(self) -> bool:
        return not self.errors

    def add(self, severity: str, volume_index: int, block: int | None, message: str):
        self.findings.append(FsckFinding(severity, volume_index, block, message))


def _block_entry_info(reader, volume_index, block, catalog):
    """(tracked membership ids, first-start timestamp or None, parsed)"""
    parsed = reader.read_parsed(volume_index, block)
    if parsed is None:
        return None, None, None
    members: set[int] = set()
    first_ts = "unset"
    for slot in parsed.entry_start_slots():
        header = reader.entry_header_at(parsed, slot)
        if header is None:
            continue
        if first_ts == "unset":
            first_ts = header.timestamp
        members.update(catalog.owner_tracked(header.logfile_id))
    if first_ts == "unset":
        first_ts = None
    return members, first_ts, parsed


def check_service(service, max_blocks: int | None = None) -> FsckReport:
    """Audit a live (or freshly mounted) service's volume sequence."""
    report = FsckReport()
    reader = service.reader
    catalog = service.store.catalog
    sequence = service.store.sequence

    # Continuation chains and timestamp ordering span volume boundaries
    # ("this successor being logically a continuation of its predecessor").
    previous_cont_out = False
    previous_ts = -1
    for volume_index, volume in enumerate(sequence.volumes):
        extent = reader.volume_extent(volume_index)
        if max_blocks is not None:
            extent = min(extent, max_blocks)
        memberships: dict[int, set[int]] = {}
        entrymap_records: list[tuple[int, EntrymapRecord]] = []

        for block in range(extent):
            report.blocks_checked += 1
            members, first_ts, parsed = _block_entry_info(
                reader, volume_index, block, catalog
            )
            if parsed is None:
                invalidated = volume.is_data_invalidated(block)
                if not invalidated:
                    report.add(
                        "error",
                        volume_index,
                        block,
                        "block unreadable and not invalidated",
                    )
                previous_cont_out = False
                continue

            # Continuation chain shape.  A cont-out block followed by a
            # non-continuation block is the signature of a torn entry
            # (the crash lost the unforced tail holding the final
            # fragments) — real data loss, but expected and handled, so a
            # warning rather than an error.
            if previous_cont_out and not parsed.cont_in:
                report.add(
                    "warning",
                    volume_index,
                    block,
                    "torn entry: previous block continues but this block "
                    "has no continuation fragment (tail lost in a crash?)",
                )
            if parsed.cont_in and not previous_cont_out:
                report.add(
                    "warning",
                    volume_index,
                    block,
                    "continuation fragment with no continuing predecessor "
                    "(predecessor lost to invalidation?)",
                )
            previous_cont_out = parsed.cont_out

            # Timestamp discipline.
            starts = parsed.entry_start_slots()
            if starts and first_ts is None:
                report.add(
                    "error",
                    volume_index,
                    block,
                    "first entry in block has no timestamp",
                )
            if first_ts is not None:
                if first_ts < previous_ts:
                    report.add(
                        "error",
                        volume_index,
                        block,
                        f"first-entry timestamp {first_ts} regresses below "
                        f"{previous_ts}",
                    )
                previous_ts = first_ts

            # Per-entry checks.
            cont_owner_pending = parsed.cont_in
            for slot in starts:
                header = reader.entry_header_at(parsed, slot)
                if header is None:
                    report.add(
                        "error", volume_index, block, f"undecodable record in slot {slot}"
                    )
                    continue
                report.entries_checked += 1
                logfile_id = header.logfile_id
                known = (
                    logfile_id in (ENTRYMAP_ID, CATALOG_ID, CORRUPTED_BLOCK_ID, 0)
                    or logfile_id in catalog
                )
                if not known and logfile_id >= FIRST_CLIENT_ID:
                    report.add(
                        "warning",
                        volume_index,
                        block,
                        f"entry for log file {logfile_id} not in catalog "
                        "(its CREATE may have been lost in a crash)",
                    )
                if logfile_id == ENTRYMAP_ID and parsed.is_complete(slot):
                    try:
                        record = EntrymapRecord.decode(header.data)
                        entrymap_records.append((block, record))
                    except ValueError as exc:
                        report.add(
                            "error",
                            volume_index,
                            block,
                            f"undecodable entrymap record: {exc}",
                        )
                        continue
                    # The record's well-known home is its cover end; a
                    # displaced record beyond the reader's relocation
                    # window is findable only via the slow fallback.
                    window = service.store.config.entrymap_relocation_window
                    displacement = block - record.cover_end
                    if displacement < 0:
                        report.add(
                            "error",
                            volume_index,
                            block,
                            f"entrymap record covering up to "
                            f"{record.cover_end} written before its "
                            "coverage completed",
                        )
                    elif displacement >= window:
                        report.add(
                            "warning",
                            volume_index,
                            block,
                            f"entrymap record displaced {displacement} "
                            f"blocks past its home {record.cover_end} "
                            f"(relocation window is {window})",
                        )
                if logfile_id == CATALOG_ID and parsed.is_complete(slot):
                    report.catalog_records_checked += 1
                    try:
                        CatalogRecord.decode(header.data)
                    except CatalogError as exc:
                        report.add(
                            "error",
                            volume_index,
                            block,
                            f"undecodable catalog record: {exc}",
                        )
            memberships[block] = set(members or set())

        # Propagate continuation membership: a block whose fragment belongs
        # to an entry started earlier counts for that entry's log files.
        owner = None
        for block in range(extent):
            parsed = reader.read_parsed(volume_index, block)
            if parsed is None:
                owner = None
                continue
            if parsed.cont_in and owner is not None:
                memberships.setdefault(block, set()).update(owner)
            starts = parsed.entry_start_slots()
            if parsed.cont_out:
                if starts:
                    header = reader.entry_header_at(parsed, starts[-1])
                    if header is not None:
                        owner = catalog.owner_tracked(header.logfile_id)
                # else: pure middle block — owner unchanged.
            else:
                owner = None

        # Entrymap coverage: no false negatives.
        for home_block, record in entrymap_records:
            report.entrymap_records_checked += 1
            granule = record.granule
            for logfile_id in sorted(
                {f for m in memberships.values() for f in m}
            ):
                bitmap = record.bitmaps.get(logfile_id, 0)
                for sub in range(record.degree):
                    sub_start = record.cover_start + sub * granule
                    sub_blocks = range(
                        sub_start, min(sub_start + granule, extent)
                    )
                    actually_present = any(
                        logfile_id in memberships.get(b, ()) for b in sub_blocks
                    )
                    bit_set = bool(bitmap & (1 << sub))
                    if actually_present and not bit_set:
                        report.add(
                            "error",
                            volume_index,
                            home_block,
                            f"entrymap level-{record.level} record at "
                            f"{home_block} misses log file {logfile_id} in "
                            f"[{sub_start}, {sub_start + granule})",
                        )

    # Catalog replays cleanly from scratch.
    replay = Catalog()
    for read_entry in reader.iter_entries(CATALOG_ID, start_global=0):
        try:
            replay.apply(CatalogRecord.decode(read_entry.entry.data))
        except CatalogError as exc:
            report.add(
                "warning",
                -1,
                read_entry.location.global_block,
                f"catalog replay skipped a record: {exc}",
            )
    return report
