"""Wire one :class:`~repro.core.service.LogService` into a metrics registry.

The existing stats dataclasses (``DeviceStats``, ``CacheStats``,
``ReadStats``/``SearchStats``, ``SpaceStats``, ``RecoveryReport``) remain
the source of truth for every benchmark; this module registers a *sampler*
that mirrors them into registry families at collection time, plus a small
set of direct instruments (:class:`Instruments`) for the distributions the
dataclasses cannot express (per-append latency, amortization batch sizes,
per-locate entry examinations).

The metric catalog's paper mapping lives in ``docs/OBSERVABILITY.md``; the
two headline counters are ``clio_locate_entrymap_entries_examined_total``
(Figure 3's y-axis) and ``clio_recovery_blocks_scanned_total`` (Figure 4's
y-axis).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.events import EventJournal
from repro.obs.registry import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
)
from repro.obs.tracing import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.service import LogService

__all__ = ["Instruments", "attach_observability", "wire_service"]

#: Space-accounting components mirrored as ``clio_space_bytes{component=}``.
_SPACE_COMPONENTS = (
    "client_data",
    "entry_headers",
    "size_index",
    "entrymap",
    "catalog",
    "forced_padding",
)


class Instruments:
    """Pre-bound hot-path instruments, stored as ``store.instruments``.

    Hot paths check ``store.instruments is not None`` once per operation,
    so the disabled-by-default configuration pays a single attribute load.
    """

    __slots__ = (
        "append_latency_ms",
        "writer_batch_entries",
        "append_batch_entries",
        "locate_entries_examined",
    )

    def __init__(self, registry: MetricsRegistry) -> None:
        self.append_latency_ms = registry.histogram(
            "clio_append_latency_ms",
            "Simulated end-to-end latency of one append operation "
            "(Section 3.2's 2.0/2.9 ms measurements).",
            buckets=DEFAULT_LATENCY_BUCKETS_MS,
        )
        self.writer_batch_entries = registry.histogram(
            "clio_writer_batch_entries",
            "Entries packed into each burned tail block (Section 3.3.1's "
            "write amortization batch size).",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self.append_batch_entries = registry.histogram(
            "clio_append_batch_entries",
            "Entries per server-side group commit (append_many batch size).",
            buckets=(1, 2, 4, 8, 16, 32, 64, 128, 256),
        )
        self.locate_entries_examined = registry.histogram(
            "clio_locate_entries_examined",
            "Entrymap entries examined by one locate operation (Figure 3).",
            buckets=COUNT_BUCKETS,
        )


def wire_service(service: "LogService") -> Instruments:
    """Register every metric family for ``service`` and return the
    pre-bound hot-path instruments.

    Idempotent per registry: metric registration is get-or-create, and the
    sampler reads live state each collection.
    """
    store = service.store
    registry = store.metrics
    if not isinstance(registry, MetricsRegistry):
        raise ValueError("service has no metrics registry to wire into")
    instruments = Instruments(registry)

    device_counters = {
        field: registry.counter(
            f"clio_device_{field}_total",
            f"Device-level {field.replace('_', ' ')} per volume "
            "(DeviceStats; Section 2's device contract).",
            labelnames=("volume",),
        )
        for field in (
            "reads",
            "writes",
            "seeks",
            "invalidations",
            "tail_queries",
            "written_probes",
        )
    }
    device_busy = registry.counter(
        "clio_device_busy_ms_total",
        "Simulated milliseconds each device spent on head movement and "
        "transfer (DeviceStats.busy_ms).",
        labelnames=("volume",),
    )
    device_written = registry.gauge(
        "clio_device_blocks_written",
        "Blocks burned on each volume's device so far.",
        labelnames=("volume",),
    )

    cache_counters = {
        field: registry.counter(
            f"clio_cache_{field}_total",
            f"Block cache {field} (CacheStats; Section 3.3.2: read cost is "
            "determined primarily by the number of cache misses).",
        )
        for field in (
            "hits",
            "misses",
            "insertions",
            "evictions",
            "parse_avoided",
            "prefetched",
            "prefetch_hits",
        )
    }
    cache_hit_ratio = registry.gauge(
        "clio_cache_hit_ratio", "Fraction of cache accesses served from memory."
    )
    cache_resident = registry.gauge(
        "clio_cache_resident_blocks", "Blocks currently resident in the cache."
    )
    cache_capacity = registry.gauge(
        "clio_cache_capacity_blocks", "Configured cache capacity in blocks."
    )

    writer_counters = {
        "client_entries": registry.counter(
            "clio_writer_client_entries_total",
            "Client entries appended (SpaceStats.client_entries).",
        ),
        "client_data": registry.counter(
            "clio_writer_client_bytes_total",
            "Client data bytes appended (Section 3.5's d).",
        ),
        "blocks_written": registry.counter(
            "clio_writer_blocks_written_total",
            "Tail blocks burned to the device.",
        ),
        "forced_padding": registry.counter(
            "clio_writer_forced_padding_bytes_total",
            "Bytes wasted forcing partial blocks onto pure write-once media "
            "(Section 2.3.1's internal fragmentation).",
        ),
    }

    reader_counters = {
        field: registry.counter(
            f"clio_reader_{field}_total",
            f"Read-side {field.replace('_', ' ')} (ReadStats).",
        )
        for field in (
            "block_accesses",
            "device_reads",
            "corrupt_blocks_found",
            "corrupt_records_found",
            "torn_entries_skipped",
            "blocks_parsed",
            "locate_memo_hits",
        )
    }
    locate_counters = {
        "entrymap_entries_examined": registry.counter(
            "clio_locate_entrymap_entries_examined_total",
            "Entrymap entries examined across all locate operations "
            "(Figure 3 / Table 1, column 'entrymap entries examined').",
        ),
        "accumulator_examinations": registry.counter(
            "clio_locate_accumulator_examinations_total",
            "In-memory accumulator examinations during locates.",
        ),
        "fallback_blocks_scanned": registry.counter(
            "clio_locate_fallback_blocks_scanned_total",
            "Blocks scanned directly when an entrymap entry was missing "
            "(Section 2.3.2's lower-level fallback).",
        ),
    }

    recovery_blocks = registry.counter(
        "clio_recovery_blocks_scanned_total",
        "Blocks examined rebuilding entrymap accumulators at mount "
        "(Figure 4's y-axis).",
    )
    recovery_tail_probes = registry.counter(
        "clio_recovery_tail_probes_total",
        "Binary-search probes used to find each volume's append point "
        "(Section 2.3.1, step 1).",
    )
    recovery_catalog = registry.counter(
        "clio_recovery_catalog_records_replayed_total",
        "Catalog records replayed at mount (Section 2.3.1, step 3).",
    )
    recovery_runs = registry.counter(
        "clio_recovery_runs_total", "Completed mount/recovery passes."
    )
    recovery_nvram = registry.gauge(
        "clio_recovery_nvram_tail_recovered",
        "1 if the last recovery adopted an NVRAM tail image, else 0.",
    )

    space_bytes = registry.gauge(
        "clio_space_bytes",
        "Cumulative space accounting by component (Section 3.5).",
        labelnames=("component",),
    )
    sim_clock = registry.gauge(
        "clio_sim_clock_ms", "Current simulated time in milliseconds."
    )
    volumes_gauge = registry.gauge(
        "clio_volumes", "Volumes in the mounted sequence."
    )
    demand_mounts = registry.counter(
        "clio_demand_mounts_total",
        "Offline volumes brought online on demand (Section 2.1).",
    )
    corrupt_known = registry.gauge(
        "clio_corrupt_blocks_known",
        "Locations in the known-corrupt set (Section 2.3.2).",
    )
    mirror_divergence = registry.counter(
        "clio_mirror_divergence_total",
        "Mirror divergence incidents across all volumes: read repairs plus "
        "replicas dropped on write failure (Section 5.1, footnote 11).",
    )
    mirror_healthy = registry.gauge(
        "clio_mirror_healthy_replicas",
        "Healthy replicas backing each mirrored volume.",
        labelnames=("volume",),
    )

    # Workload-observatory instruments (repro.obs.workload drives these
    # directly via registry.get(); no sampler backing).
    registry.counter(
        "clio_workload_ops_total",
        "Operations replayed by the workload observatory, by phase and "
        "operation kind.",
        labelnames=("phase", "op"),
    )
    registry.counter(
        "clio_workload_phases_total",
        "Workload phases completed by the observatory harness.",
    )
    registry.counter(
        "clio_workload_think_us_total",
        "Simulated think-time microseconds charged between workload "
        "operations (the workload_think cost component).",
    )
    registry.counter(
        "clio_workload_alerts_total",
        "SLO alerts fired during workload replays.",
    )
    registry.counter(
        "clio_workload_faults_fired_total",
        "Fault injections fired mid-replay by the under-load campaign.",
    )

    def sample(_registry: MetricsRegistry) -> None:
        divergence_total = 0
        for index, volume in enumerate(store.sequence.volumes):
            label = str(index)
            device = volume.device
            stats = device.stats
            for field, counter in device_counters.items():
                counter.labels(volume=label).set_total(getattr(stats, field))
            device_busy.labels(volume=label).set_total(stats.busy_ms)
            device_written.labels(volume=label).set(device.blocks_written)
            divergences = getattr(device, "divergences", None)
            healthy = getattr(device, "healthy_replicas", None)
            if isinstance(divergences, int):
                divergence_total += divergences
            if isinstance(healthy, int):
                mirror_healthy.labels(volume=label).set(healthy)
        mirror_divergence.set_total(divergence_total)

        cache_stats = store.cache.stats
        for field, counter in cache_counters.items():
            counter.set_total(getattr(cache_stats, field))
        cache_hit_ratio.set(cache_stats.hit_ratio)
        cache_resident.set(len(store.cache))
        cache_capacity.set(store.cache.capacity_blocks)

        space = store.space
        for field, counter in writer_counters.items():
            counter.set_total(getattr(space, field))
        for component in _SPACE_COMPONENTS:
            space_bytes.labels(component=component).set(
                getattr(space, component)
            )

        read_stats = service.reader.stats
        for field, counter in reader_counters.items():
            counter.set_total(getattr(read_stats, field))
        for field, counter in locate_counters.items():
            counter.set_total(getattr(read_stats.search, field))

        report = service.last_recovery_report
        if report is not None:
            recovery_runs.set_total(1)
            recovery_blocks.set_total(report.total_blocks_examined)
            recovery_tail_probes.set_total(
                sum(v.tail_probes for v in report.volumes)
            )
            recovery_catalog.set_total(report.catalog_records_replayed)
            recovery_nvram.set(1 if report.nvram_tail_recovered else 0)

        sim_clock.set(store.clock.now_ms)
        volumes_gauge.set(len(store.sequence.volumes))
        demand_mounts.set_total(service.demand_mounts)
        corrupt_known.set(len(service.known_corrupt_blocks))

    registry.register_sampler(sample)
    return instruments


def attach_observability(
    service: "LogService",
    *,
    tracing: bool = True,
    registry: MetricsRegistry | None = None,
    events: bool = True,
) -> object:
    """Fill the engine's instrumentation slots (the body of
    :meth:`~repro.core.service.LogService.enable_observability`).

    Each slot is filled once: a registry with its sampler and the
    pre-bound instruments, a span tracer, and an event journal pointed at
    every mounted volume's device sinks and the cache's eviction hook
    (the writer re-points it at each successor volume through
    ``journal.watch_device``).  Returns the registry.
    """
    store = service.store
    if store.metrics is None:
        store.metrics = registry if registry is not None else MetricsRegistry()
        store.instruments = wire_service(service)
    if tracing and not store.tracer.enabled:
        store.tracer = SpanTracer(store.clock)
    if events and not store.journal.enabled:
        journal = EventJournal(store.clock)
        store.journal = journal
        for index, volume in enumerate(store.sequence.volumes):
            journal.watch_device(index, volume.device)
        store.cache.on_evict = lambda block: journal.emit(
            "cache.evict", block=block
        )
    return store.metrics
