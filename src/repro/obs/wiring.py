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
        for field in ("reads", "writes", "seeks")
    }

    cache_counters = {
        field: registry.counter(
            f"clio_cache_{field}_total",
            f"Block cache {field} (CacheStats; Section 3.3.2: read cost is "
            "determined primarily by the number of cache misses).",
        )
        for field in (
            "hits",
            "misses",
            "parse_avoided",
            "prefetched",
            "prefetch_hits",
        )
    }
    cache_hit_ratio = registry.gauge(
        "clio_cache_hit_ratio", "Fraction of cache accesses served from memory."
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
            "corrupt_records_found",
            "blocks_parsed",
            "locate_memo_hits",
        )
    }
    locate_examined = registry.counter(
        "clio_locate_entrymap_entries_examined_total",
        "Entrymap entries examined across all locate operations "
        "(Figure 3 / Table 1, column 'entrymap entries examined').",
    )

    recovery_blocks = registry.counter(
        "clio_recovery_blocks_scanned_total",
        "Blocks examined rebuilding entrymap accumulators at mount "
        "(Figure 4's y-axis).",
    )
    recovery_runs = registry.counter(
        "clio_recovery_runs_total", "Completed mount/recovery passes."
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
    corrupt_known = registry.gauge(
        "clio_corrupt_blocks_known",
        "Locations in the known-corrupt set (Section 2.3.2).",
    )
    mirror_divergence = registry.counter(
        "clio_mirror_divergence_total",
        "Mirror divergence incidents across all volumes: read repairs plus "
        "replicas dropped on write failure (Section 5.1, footnote 11).",
    )

    def sample(_registry: MetricsRegistry) -> None:
        divergence_total = 0
        for index, volume in enumerate(store.sequence.volumes):
            label = str(index)
            device = volume.device
            stats = device.stats
            for field, counter in device_counters.items():
                counter.labels(volume=label).set_total(getattr(stats, field))
            divergences = getattr(device, "divergences", None)
            if isinstance(divergences, int):
                divergence_total += divergences
        mirror_divergence.set_total(divergence_total)

        cache_stats = store.cache.stats
        for field, counter in cache_counters.items():
            counter.set_total(getattr(cache_stats, field))
        cache_hit_ratio.set(cache_stats.hit_ratio)
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
        locate_examined.set_total(read_stats.search.entrymap_entries_examined)

        report = service.last_recovery_report
        if report is not None:
            recovery_runs.set_total(1)
            recovery_blocks.set_total(report.total_blocks_examined)

        sim_clock.set(store.clock.now_ms)
        volumes_gauge.set(len(store.sequence.volumes))
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
