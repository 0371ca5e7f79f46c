"""The Clio log service façade.

This is the paper's "extended file server": one object owning the volume
sequence, the shared block cache, the catalog, the tail writer, and the
instrumented reader.  Clients use it (usually through
:class:`~repro.core.logfile.LogFile` handles) exactly like a file service —
create/open by hierarchical name, append, and iterate entries forward or
backward from any point in time.

Lifecycle:

* :meth:`LogService.create` initializes a fresh service on a new medium.
* :meth:`LogService.crash` simulates a server crash: volatile state (cache,
  accumulators, catalog table) is lost; the devices and the battery-backed
  NVRAM survive and are returned.
* :meth:`LogService.mount` performs Section 2.3.1's recovery on surviving
  media: find the tail, rebuild entrymap accumulators, replay the catalog.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cache import BlockCache
from repro.core.catalog import Catalog
from repro.core.entrymap import EntrymapState
from repro.core.ids import (
    CORRUPTED_BLOCK_ID,
    ClientEntryId,
    EntryId,
    EntryLocation,
)
from repro.core.logfile import LogFile
from repro.core.naming import parent_path, split_path
from repro.core.reader import LogReader, ReadEntry
from repro.core.recovery import (
    RecoveryReport,
    VolumeRecoveryStats,
    encode_corrupted_block_record,
    rebuild_entrymap_state,
    replay_catalog,
    replay_corrupted_block_log,
)
from repro.core.store import LogStore, StoreConfig
from repro.core.timeindex import TimeIndex
from repro.core.writer import AppendResult, TailWriter
from repro.vsystem.clock import SimClock
from repro.vsystem.costs import SUN3, CostModel
from repro.worm.device import WormDevice
from repro.worm.errors import StorageError
from repro.worm.nvram import NvramTail
from repro.worm.volume import LogVolume, VolumeSequence

__all__ = ["LogService", "CrashRemains", "ReadOnlyService", "ServiceCrashed"]


@dataclass(frozen=True, slots=True)
class CrashRemains:
    """What survives a server crash: the non-volatile hardware."""

    devices: list[WormDevice]
    nvram: NvramTail | None


class ServiceCrashed(RuntimeError):
    """Operations were attempted on a crashed service instance."""


class ReadOnlyService(RuntimeError):
    """A mutating operation was attempted on a read-only mount."""


def _payload(data: object, index: int | None = None) -> bytes | bytearray | memoryview:
    """``data`` (``batch[index]`` of a batch) if it is bytes-like, a
    memoryview as a flat view of its bytes, so every length taken of it
    counts bytes, not items; anything else is refused before a charge."""
    if isinstance(data, memoryview):
        return data.cast("B")
    if not isinstance(data, (bytes, bytearray)):
        name = "data" if index is None else f"batch[{index}]"
        raise TypeError(f"{name} must be bytes-like, not {type(data).__name__}")
    return data


def _check_client_seq(client_seq: int | None, name: str) -> None:
    if client_seq is None:
        return
    if not isinstance(client_seq, int):
        raise TypeError(f"{name} must be an int, not {type(client_seq).__name__}")
    if not 0 <= client_seq < 1 << 32:
        raise ValueError(f"{name} must fit in 32 bits, got {client_seq}")


def _check_readahead(blocks: int, name: str) -> None:
    if not isinstance(blocks, int):
        raise TypeError(f"{name} must be an int, not {type(blocks).__name__}")
    if blocks < 0:
        raise ValueError(f"{name} must be >= 0, got {blocks}")


def _check_permissions(permissions: int) -> None:
    if not 0 <= permissions <= 0o7777:
        raise ValueError(f"permissions must be in 0..0o7777, got {permissions:#o}")


class LogService:
    """The extended file service providing log files."""

    def __init__(
        self,
        store: LogStore,
        writer: TailWriter,
    ):
        self.store = store
        self.writer = writer
        self.last_recovery_report: RecoveryReport | None = None
        self.reader = LogReader(
            store,
            tail_position=writer.tail_position,
            on_corrupt=self._handle_corrupt_block,
            tail_image=writer.tail_image,
            on_volume_demand=self._handle_volume_demand,
        )
        self.time_index = TimeIndex(self.reader)
        self.known_corrupt_blocks: set[tuple[int, int]] = set()
        #: Optional operator/jukebox hook: (volume_index) -> bool, asked to
        #: make an offline volume "available on demand" (Section 2.1).
        self.volume_demand_handler = None
        self.demand_mounts = 0
        self._crashed = False
        self._read_only = False

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @classmethod
    def create(
        cls,
        *,
        block_size: int = 1024,
        degree_n: int = 16,
        volume_capacity_blocks: int = 4096,
        cache_capacity_blocks: int = 2048,
        geometry=None,
        clock: SimClock | None = None,
        cost_model: CostModel = SUN3,
        nvram_tail: bool = True,
        nvram_survives_crash: bool = True,
        supports_tail_query: bool = True,
        device_factory=None,
        sequence_id: bytes | None = None,
        nvram: NvramTail | None = None,
        remote_clients: bool = False,
        enforce_permissions: bool = False,
        observability: bool = False,
        readahead_blocks: int = 0,
    ) -> "LogService":
        """Initialize a brand-new log service on a fresh medium.

        ``nvram`` injects a specific NVRAM implementation (e.g. the
        file-backed one); otherwise one is created per the flags.
        ``observability=True`` enables the metrics registry and span tracer
        (:mod:`repro.obs`) from the first operation.
        """
        from repro.worm.geometry import NULL_GEOMETRY

        _check_readahead(readahead_blocks, "readahead_blocks")
        config = StoreConfig(
            block_size=block_size,
            degree_n=degree_n,
            volume_capacity_blocks=volume_capacity_blocks,
            cache_capacity_blocks=cache_capacity_blocks,
            geometry=geometry if geometry is not None else NULL_GEOMETRY,
            supports_tail_query=supports_tail_query,
            nvram_tail=nvram_tail,
            nvram_survives_crash=nvram_survives_crash,
            remote_clients=remote_clients,
            enforce_permissions=enforce_permissions,
            readahead_blocks=readahead_blocks,
        )
        clock = clock or SimClock()
        store = LogStore(
            config=config,
            clock=clock,
            costs=cost_model,
            sequence=VolumeSequence(sequence_id=sequence_id),
            cache=BlockCache(cache_capacity_blocks),
            catalog=Catalog(),
            # A tail-staging RAM that does not survive crashes cannot back
            # forced writes; such a configuration degenerates to the pure
            # write-once discipline (forces burn partial blocks), so no
            # NVRAM object is created for it.
            nvram=nvram
            if nvram is not None
            else (
                NvramTail(
                    capacity_bytes=block_size,
                    survives_crash=True,
                    clock=clock,
                )
                if nvram_tail and nvram_survives_crash
                else None
            ),
            device_factory=device_factory,
        )
        first_volume = LogVolume.create(
            store.make_device(),
            degree_n=degree_n,
            sequence_id=store.sequence.sequence_id,
            volume_index=0,
            created_ts=clock.now_us,
        )
        store.sequence.add_volume(first_volume)
        store.states.append(EntrymapState(degree_n, first_volume.data_capacity))
        writer = TailWriter(store)
        service = cls(store, writer)
        if observability:
            service.enable_observability()
        return service

    @classmethod
    def mount(
        cls,
        devices: list[WormDevice],
        nvram: NvramTail | None = None,
        *,
        cache_capacity_blocks: int = 2048,
        clock: SimClock | None = None,
        cost_model: CostModel = SUN3,
        device_factory=None,
        read_only: bool = False,
        observability: bool = False,
        readahead_blocks: int = 0,
    ) -> tuple["LogService", RecoveryReport]:
        """Mount surviving media after a crash (or cold start) and run the
        three-step recovery of Section 2.3.1 / 3.4.

        ``read_only=True`` mounts for examination only (e.g. an archive
        shelf): every mutating operation raises :class:`ReadOnlyService`,
        and corruption found while reading is reported but not repaired.
        ``observability=True`` enables metrics and tracing *before* the
        recovery pass runs, so the mount itself produces a span tree.
        """
        if not devices:
            raise ValueError("mount requires at least one device")
        _check_readahead(readahead_blocks, "readahead_blocks")
        volumes = sorted(
            (LogVolume.mount(device) for device in devices),
            key=lambda volume: volume.header.volume_index,
        )
        header = volumes[0].header
        config = StoreConfig(
            block_size=header.block_size,
            degree_n=header.degree_n,
            volume_capacity_blocks=header.capacity_blocks,
            cache_capacity_blocks=cache_capacity_blocks,
            supports_tail_query=volumes[0].device.supports_tail_query,
            nvram_tail=nvram is not None,
            nvram_survives_crash=nvram.survives_crash if nvram else True,
            readahead_blocks=readahead_blocks,
        )
        clock = clock or SimClock()
        sequence = VolumeSequence(sequence_id=header.sequence_id)
        store = LogStore(
            config=config,
            clock=clock,
            costs=cost_model,
            sequence=sequence,
            cache=BlockCache(cache_capacity_blocks),
            catalog=Catalog(),
            nvram=nvram,
            device_factory=device_factory,
        )
        for volume in volumes:
            sequence.add_volume(volume)
            store.states.append(
                EntrymapState(volume.degree_n, volume.data_capacity)
            )
        writer = TailWriter(store)
        service = cls(store, writer)
        service._read_only = read_only
        if observability:
            service.enable_observability()
        report = service._recover()
        return service, report

    def crash(self) -> CrashRemains:
        """Simulate a file server crash: volatile memory is lost.

        The service instance becomes unusable; the returned non-volatile
        remains can be passed to :meth:`mount`.
        """
        self.store.journal.emit(
            "service.crash",
            nvram=self.store.nvram is not None,
        )
        self._crashed = True
        if self.store.nvram is not None:
            self.store.nvram.crash()
        self.store.cache.clear()
        return CrashRemains(
            devices=[volume.device for volume in self.store.sequence.volumes],
            nvram=self.store.nvram,
        )

    def shutdown(self) -> CrashRemains:
        """Clean shutdown: the tail block is flushed to the device first."""
        self.store.journal.emit("service.shutdown")
        self.writer.flush()
        return self.crash()

    def _check_alive(self) -> None:
        if self._crashed:
            raise ServiceCrashed("this service instance has crashed")

    def _check_writable(self) -> None:
        self._check_alive()
        if self._read_only:
            raise ReadOnlyService("this service was mounted read-only")

    # ------------------------------------------------------------------ #
    # Recovery (Section 2.3.1)
    # ------------------------------------------------------------------ #

    def _recover(self) -> RecoveryReport:
        report = RecoveryReport()
        store = self.store
        active_index = len(store.sequence.volumes) - 1
        flight_start = store.journal.next_seq
        store.journal.emit(
            "recovery.begin", volumes=len(store.sequence.volumes)
        )

        with store.tracer.span("recovery", volumes=len(store.sequence.volumes)) as root:
            # Step 1: locate the end of the written portion of each volume.
            tails: list[int] = []
            for index, volume in enumerate(store.sequence.volumes):
                stats = VolumeRecoveryStats()
                with store.tracer.span("recovery.find_tail", volume=index) as sp:
                    last, probes = volume.find_last_written_data_block()
                    sp.set("tail_probes", probes)
                stats.tail_probes = probes
                tails.append(last)
                report.volumes.append(stats)
                store.journal.emit(
                    "recovery.find_tail", volume=index, tail=last, probes=probes
                )

            # Adopt the NVRAM tail image if it continues the active volume.
            if store.nvram is not None:
                image = store.nvram.load()
                if image is None:
                    # Nothing staged: either the last burn completed cleanly
                    # or the NVRAM did not survive the crash.  Recorded so
                    # NVRAM loss is observable at mount time.
                    store.journal.emit("recovery.nvram_empty", volume=active_index)
                else:
                    expected_global = store.sequence.volume_base(active_index) + (
                        tails[active_index] + 1
                    )
                    if image.block_index == expected_global:
                        self.writer.resume_tail(
                            active_index, tails[active_index] + 1, image.data
                        )
                        tails[active_index] += 1
                        report.nvram_tail_recovered = True
                        store.journal.emit(
                            "recovery.nvram_tail",
                            volume=active_index,
                            block=tails[active_index],
                        )
                    else:
                        store.journal.emit(
                            "recovery.nvram_stale",
                            volume=active_index,
                            block=image.block_index,
                            expected=expected_global,
                        )

            # Step 2: reconstruct entrymap accumulators, volume by volume.
            for index in range(len(store.sequence.volumes)):
                with store.tracer.span(
                    "recovery.rebuild_entrymap", volume=index
                ) as sp:
                    rebuild_entrymap_state(
                        store, self.reader, index, tails[index], report.volumes[index]
                    )
                    sp.set("blocks_scanned", report.volumes[index].blocks_examined)
                store.journal.emit(
                    "recovery.rebuild_entrymap",
                    volume=index,
                    blocks_scanned=report.volumes[index].blocks_examined,
                )

            # Timestamps must keep increasing across reboots (they uniquely
            # identify entries and order the time search); advance the clock
            # past the newest timestamp on the medium.
            self._resume_clock_after(store)

            # Step 3: replay the catalog log file.
            with store.tracer.span("recovery.replay_catalog") as sp:
                report.catalog_records_replayed = replay_catalog(
                    self.reader, store.catalog
                )
                sp.set("records", report.catalog_records_replayed)
            store.journal.emit(
                "recovery.replay_catalog",
                records=report.catalog_records_replayed,
            )

            # The level-1 rescan above ran before the catalog existed, so sublog
            # ancestor bits may be missing from the accumulators; redo it now
            # that names resolve.  Every access of pass one is made and charged
            # again (warm while cached); the report counts pass one only.
            for index in range(len(store.sequence.volumes)):
                rebuild_entrymap_state(store, self.reader, index, tails[index])

            # Merge, don't replace: the rebuild scan above may itself have
            # discovered garbage blocks (below the tail, so no persisted
            # record exists for them); overwriting the set would silently
            # drop those findings from the report and the corrupt-blocks
            # gauge.
            self.known_corrupt_blocks |= replay_corrupted_block_log(self.reader)
            report.corrupted_blocks_known = len(self.known_corrupt_blocks)
            root.set("blocks_scanned", report.total_blocks_examined)
            root.set("catalog_records", report.catalog_records_replayed)
        store.journal.emit(
            "recovery.complete",
            blocks_scanned=report.total_blocks_examined,
            catalog_records=report.catalog_records_replayed,
        )
        # The crash flight recorder: attach every event this recovery pass
        # emitted (device reads, phase transitions, corruption findings).
        report.flight_recorder = [
            event
            for event in store.journal.events()
            if event.seq >= flight_start
        ]
        self.last_recovery_report = report
        return report

    def _resume_clock_after(self, store: LogStore) -> None:
        """Advance the (fresh) clock past the newest on-media timestamp."""
        newest = 0
        extent = self.reader.global_extent()
        for global_block in range(extent - 1, max(-1, extent - 16), -1):
            parsed = self.reader.read_parsed_global(global_block)
            if parsed is None:
                continue
            found = False
            for slot in parsed.entry_start_slots():
                header = self.reader.entry_header_at(parsed, slot)
                if header is not None and header.timestamp is not None:
                    newest = max(newest, header.timestamp)
                    found = True
            if found:
                break
        if store.clock.now_us <= newest:
            store.charge_us("clock_resume", newest - store.clock.now_us + 1000)

    # ------------------------------------------------------------------ #
    # Naming and catalog operations
    # ------------------------------------------------------------------ #

    def create_log_file(self, path: str, permissions: int = 0o644) -> LogFile:
        """Create a log file (and sublog) at an absolute path.

        The parent must already exist; creating "/" is meaningless (it is
        the volume sequence log file, which always exists).  The CREATE
        record is forced to the catalog log file before returning.
        """
        self._check_writable()
        _check_permissions(permissions)
        catalog = self.store.catalog
        components = split_path(path)
        if not components:
            raise ValueError("cannot create '/': it is the volume sequence log file")
        parent_id = catalog.resolve(parent_path(path))
        # Validated before its id is taken: a refused create burns no id.
        record = catalog.make_create_record(
            logfile_id=catalog.next_id,
            name=components[-1],
            parent_id=parent_id,
            permissions=permissions,
            created_ts=self.store.clock.now_us,
        )
        logfile_id = catalog.allocate_id()
        self._charge_write(len(record.encode()))
        self.writer.append_catalog_record(record, force=True)
        catalog.apply(record)
        return LogFile(self, logfile_id, path)

    def open_log_file(self, path: str) -> LogFile:
        """Open an existing log file by name ("named using the standard
        file directory mechanism")."""
        self._check_alive()
        logfile_id = self.store.catalog.resolve(path)
        return LogFile(self, logfile_id, self.store.catalog.path_of(logfile_id))

    def open_root(self) -> LogFile:
        """The volume sequence log file: every entry ever written."""
        return self.open_log_file("/")

    def list_dir(self, path: str) -> dict[str, LogFile]:
        """The sublogs directly under ``path`` (a name is also a directory)."""
        self._check_alive()
        catalog = self.store.catalog
        parent_id = catalog.resolve(path)
        return {
            name: LogFile(self, child_id, catalog.path_of(child_id))
            for name, child_id in sorted(catalog.children(parent_id).items())
        }

    def set_attribute(self, target, key: str, value: bytes) -> None:
        """Change a log-file attribute; the change is logged in the catalog
        log file at the time of the change (Section 2.2)."""
        self._check_writable()
        if not isinstance(key, str):
            raise TypeError(f"key must be a str, not {type(key).__name__}")
        if not isinstance(value, (bytes, bytearray, memoryview)):
            raise TypeError(f"value must be bytes-like, not {type(value).__name__}")
        logfile_id = self._resolve_target(target)
        record = self.store.catalog.make_set_attribute_record(logfile_id, key, value)
        self._charge_write(len(record.encode()))
        self.writer.append_catalog_record(record, force=True)
        self.store.catalog.apply(record)

    def set_permissions(self, target, permissions: int) -> None:
        """Change a log file's access permissions; like every attribute
        change, logged in the catalog log file at the time of the change."""
        self._check_writable()
        _check_permissions(permissions)
        logfile_id = self._resolve_target(target)
        record = self.store.catalog.make_set_attribute_record(
            logfile_id,
            Catalog.MODE_ATTRIBUTE,
            Catalog.encode_mode(permissions),
        )
        self._charge_write(len(record.encode()))
        self.writer.append_catalog_record(record, force=True)
        self.store.catalog.apply(record)

    def _check_permission(self, logfile_id: int, bit: int, action: str) -> None:
        if not self.store.config.enforce_permissions:
            return
        if logfile_id < 8:
            return  # reserved log files are the server's own
        permissions = self.store.catalog.info(logfile_id).permissions
        if not permissions & bit:
            raise PermissionError(
                f"log file {self.store.catalog.path_of(logfile_id)!r} does "
                f"not permit {action} (mode {permissions:o})"
            )

    def _resolve_target(self, target) -> int:
        if isinstance(target, LogFile):
            return target.logfile_id
        if isinstance(target, str):
            return self.store.catalog.resolve(target)
        if isinstance(target, int):
            self.store.catalog.info(target)  # existence check
            return target
        raise TypeError(f"cannot resolve log file from {target!r}")

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def append(
        self,
        target,
        data: bytes,
        *,
        force: bool = False,
        timestamped: bool = True,
        client_seq: int | None = None,
    ) -> AppendResult:
        """Append one entry to a log file.

        ``force=True`` makes the entry durable before returning (used e.g.
        "on a transaction commit", Section 2.3.1).  ``timestamped=False``
        writes the minimal 2-byte header where permitted; ``client_seq``
        attaches the client sequence number for asynchronous
        identification.
        """
        self._check_writable()
        logfile_id = self._resolve_target(target)
        self._check_permission(logfile_id, 0o200, "append")
        data = _payload(data)
        _check_client_seq(client_seq, "client_seq")
        store = self.store
        start_ms = store.clock.now_ms
        with store.tracer.span(
            "append", logfile_id=logfile_id, bytes=len(data), force=force
        ):
            self._charge_write(len(data))
            result = self.writer.append(
                logfile_id,
                data,
                want_timestamp=timestamped,
                client_seq=client_seq,
                force=force,
            )
        if store.instruments is not None:
            store.instruments.append_latency_ms.observe(
                store.clock.now_ms - start_ms
            )
        return result

    def append_many(
        self,
        target,
        batch: list[bytes],
        *,
        force: bool = False,
        timestamped: bool = True,
        client_seqs: list[int | None] | None = None,
    ) -> list[AppendResult]:
        """Append a batch of entries to one log file as a single group
        commit (server-side batching).

        The entries land exactly where sequential :meth:`append` calls
        would put them, but the fixed per-operation costs are paid once for
        the whole batch: one client IPC, one write-operation overhead, one
        timestamp charge (each entry still gets a unique timestamp), and —
        with ``force=True`` — one NVRAM store at the end.  Per-byte copying
        and per-entry entrymap maintenance remain per entry, as they must.

        Durability follows the usual prefix rule: if the server crashes
        mid-batch, recovery yields some prefix of the batch with no holes.
        """
        self._check_writable()
        logfile_id = self._resolve_target(target)
        self._check_permission(logfile_id, 0o200, "append")
        if not batch:
            return []
        batch = [_payload(data, index) for index, data in enumerate(batch)]
        if client_seqs is not None:
            if len(client_seqs) != len(batch):
                raise ValueError(
                    f"client_seqs has {len(client_seqs)} items for "
                    f"{len(batch)} payloads"
                )
            for index, client_seq in enumerate(client_seqs):
                _check_client_seq(client_seq, f"client_seqs[{index}]")
        store = self.store
        start_ms = store.clock.now_ms
        total_bytes = sum(len(data) for data in batch)
        with store.tracer.span(
            "append_many",
            logfile_id=logfile_id,
            entries=len(batch),
            bytes=total_bytes,
            force=force,
        ):
            self._charge_write(total_bytes)
            results = self.writer.append_batch(
                logfile_id,
                batch,
                want_timestamps=timestamped,
                client_seqs=client_seqs,
                force=force,
            )
        if store.instruments is not None:
            store.instruments.append_latency_ms.observe(
                store.clock.now_ms - start_ms
            )
        return results

    def sync(self) -> None:
        """Make everything appended so far durable (a force with no entry
        attached) — e.g. at the end of a reporting period."""
        self._check_writable()
        self.writer._force()

    def _charge_write(self, data_len: int) -> None:
        costs = self.store.costs
        self.store.charge_many(
            [
                ("ipc", costs.ipc_ms(self.store.config.remote_clients)),
                ("write_fixed", costs.write_fixed_ms),
                ("copy", costs.copy_per_byte_ms * data_len),
            ]
        )

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    def read_entries(
        self,
        target,
        *,
        since: int | None = None,
        before: int | None = None,
        after=None,
        reverse: bool = False,
    ):
        """Iterate a log file's entries (sublog entries included).

        ``since=T`` starts at the first entry with timestamp >= T;
        ``before=T`` (with ``reverse=True``) starts at the last entry with
        timestamp <= T; ``after=location`` (an
        :class:`~repro.core.ids.EntryLocation`) resumes strictly after a
        known entry — the right primitive for consumers resuming from a
        remembered position, since it also covers untimestamped entries.
        Without bounds, iteration covers the whole log file, forward or
        backward.
        """
        self._check_alive()
        if sum(bound is not None for bound in (since, before, after)) > 1:
            raise ValueError("specify at most one of since/before/after")
        if after is not None:
            if reverse:
                raise ValueError("after= only supports forward iteration")
            if not isinstance(after, EntryLocation):
                raise TypeError(
                    f"after must be an EntryLocation, not {type(after).__name__}"
                )
        for name, bound in (("since", since), ("before", before)):
            if bound is not None and not isinstance(bound, int):
                raise TypeError(f"{name} must be an int, not {type(bound).__name__}")
        logfile_id = self._resolve_target(target)
        self._check_permission(logfile_id, 0o400, "read")
        self._charge_read_call()
        if after is not None:
            return self.reader.iter_entries(
                logfile_id,
                start_global=after.global_block,
                start_slot=after.slot + 1,
            )
        if not reverse:
            start_block, start_slot = 0, 0
            if since is not None:
                start_block, start_slot = self.time_index.locate_position_after(
                    logfile_id, since - 1
                )
            return self.reader.iter_entries(
                logfile_id, start_global=start_block, start_slot=start_slot
            )
        extent = self.reader.global_extent()
        start_block, start_slot = extent - 1, 1 << 30
        if before is not None:
            after_block, after_slot = self.time_index.locate_position_after(
                logfile_id, before
            )
            if after_slot == 0:
                start_block, start_slot = after_block - 1, 1 << 30
            else:
                start_block, start_slot = after_block, after_slot - 1
        return self.reader.iter_entries(
            logfile_id,
            start_global=max(0, start_block),
            start_slot=start_slot,
            reverse=True,
        )

    def read_entry(self, target, entry_id: EntryId) -> ReadEntry | None:
        """Fetch the entry a synchronous write identified (Section 2.1)."""
        self._check_alive()
        if not isinstance(entry_id, EntryId):
            raise TypeError(f"entry_id must be an EntryId, not {type(entry_id).__name__}")
        logfile_id = self._resolve_target(target)
        self._charge_read_call()
        with self.store.tracer.span(
            "read", logfile_id=logfile_id, timestamp=entry_id.timestamp
        ):
            position = self.time_index.locate_entry(logfile_id, entry_id.timestamp)
            if position is None:
                return None
            global_block, slot = position
            location = EntryLocation(global_block=global_block, slot=slot)
            return ReadEntry(
                location=location, entry=self.reader.entry_at(location)
            )

    def find_client_entry(
        self, target, client_id: ClientEntryId, max_skew_us: int = 1_000_000
    ) -> ReadEntry | None:
        """Resolve an asynchronously written entry by (sequence number,
        client timestamp), tolerating clock skew up to ``max_skew_us``."""
        self._check_alive()
        if not isinstance(client_id, ClientEntryId):
            raise TypeError(f"client_id must be a ClientEntryId, not {type(client_id).__name__}")
        if max_skew_us < 0:
            raise ValueError(f"max_skew_us must be >= 0, got {max_skew_us}")
        logfile_id = self._resolve_target(target)
        self._charge_read_call()
        position = self.time_index.find_client_entry(
            logfile_id,
            client_id.sequence_number,
            client_id.client_timestamp,
            max_skew_us,
        )
        if position is None:
            return None
        location = EntryLocation(global_block=position[0], slot=position[1])
        return ReadEntry(location=location, entry=self.reader.entry_at(location))

    def _charge_read_call(self) -> None:
        costs = self.store.costs
        self.store.charge_many(
            [
                ("ipc", costs.ipc_ms(self.store.config.remote_clients)),
                ("read_fixed", costs.read_fixed_ms),
            ]
        )

    def configure_readahead(self, blocks: int) -> None:
        """Set the sequential read-ahead window on a live service.

        ``blocks=0`` restores the paper's one-block-per-access model; a
        positive window lets detected sequential scans fetch that many
        blocks per device operation (one seek amortized over the window).
        """
        _check_readahead(blocks, "blocks")
        from dataclasses import replace

        self.store.config = replace(self.store.config, readahead_blocks=blocks)

    # ------------------------------------------------------------------ #
    # Removable media (Section 2.1)
    # ------------------------------------------------------------------ #

    def take_volume_offline(self, volume_index: int) -> None:
        """Dismount a sealed predecessor volume (archival shelf storage)."""
        self._check_alive()
        self._volume(volume_index).take_offline()
        self.store.journal.emit("volume.offline", volume=volume_index)

    def bring_volume_online(self, volume_index: int) -> None:
        self._check_alive()
        self._volume(volume_index).bring_online()
        self.store.journal.emit("volume.online", volume=volume_index)

    def _volume(self, volume_index: int) -> LogVolume:
        volumes = self.store.sequence.volumes
        if not 0 <= volume_index < len(volumes):
            raise ValueError(
                f"volume_index must be in 0..{len(volumes) - 1}, got {volume_index}"
            )
        return volumes[volume_index]

    def _handle_volume_demand(self, volume_index: int) -> bool:
        """Automatic on-demand mounting: consult the operator hook."""
        handler = self.volume_demand_handler
        if handler is None:
            return False
        if handler(volume_index):
            self.store.sequence.volumes[volume_index].bring_online()
            self.demand_mounts += 1
            self.store.journal.emit("volume.demand_mount", volume=volume_index)
            return True
        return False

    # ------------------------------------------------------------------ #
    # Corruption handling (Section 2.3.2)
    # ------------------------------------------------------------------ #

    def _handle_corrupt_block(self, volume_index: int, local_block: int) -> None:
        """Invalidate a block whose content failed its integrity check and,
        if it had never been legitimately written, record its location in
        the corrupted-block log file."""
        volume = self.store.sequence.volumes[volume_index]
        was_beyond_tail = local_block > volume.next_data_block - 1
        if self._read_only:
            # Report only; a read-only mount never touches the media.
            self.known_corrupt_blocks.add((volume_index, local_block))
            return
        if (
            volume_index == self.writer.volume_index
            and local_block == self.writer.tail_block_addr
        ):
            # The writer owns this address; it will burn over the garbage.
            return
        volume.invalidate_data_block(local_block)
        self.known_corrupt_blocks.add((volume_index, local_block))
        if was_beyond_tail and not self._crashed and not self._read_only:
            try:
                self.writer.append_reserved(
                    CORRUPTED_BLOCK_ID,
                    encode_corrupted_block_record(volume_index, local_block),
                )
            except StorageError:
                # Best effort: the in-memory set still knows.
                pass

    # ------------------------------------------------------------------ #
    # Observability (repro.obs)
    # ------------------------------------------------------------------ #

    def enable_observability(self, *, tracing: bool = True):
        """Attach a metrics registry, an event journal and, by default, a
        span tracer.

        Idempotent; safe to call on a running service — the registry's
        counters and gauges read the live stats objects, so they reflect
        the full history, while histograms, traces and events start from
        this call.  Returns the registry.
        """
        # The plug-in's load point: the engine's only reference to
        # repro.obs (the engine-imports lint rule allow-lists this site).
        from repro.obs.wiring import attach_observability

        return attach_observability(self, tracing=tracing)

    @property
    def metrics(self):
        """The service's :class:`~repro.obs.MetricsRegistry` (enabling
        metrics collection — but not tracing — on first access)."""
        if self.store.metrics is None:
            self.enable_observability(tracing=False)
        return self.store.metrics

    @property
    def tracer(self):
        """The service's span tracer (:data:`~repro.obs.NULL_TRACER` until
        observability is enabled with tracing)."""
        return self.store.tracer

    @property
    def journal(self):
        """The service's event journal (:data:`~repro.obs.NULL_JOURNAL`
        until observability is enabled with events)."""
        return self.store.journal

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def clock(self) -> SimClock:
        return self.store.clock

    @property
    def now_ms(self) -> float:
        return self.store.clock.now_ms

    @property
    def space_stats(self):
        return self.store.space

    @property
    def cache_stats(self):
        return self.store.cache.stats

    @property
    def read_stats(self):
        return self.reader.stats

    @property
    def devices(self) -> list[WormDevice]:
        return [volume.device for volume in self.store.sequence.volumes]
