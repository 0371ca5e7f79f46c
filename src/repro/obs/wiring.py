"""Wire one :class:`~repro.core.service.LogService` into a metrics registry.

The existing stats dataclasses (``DeviceStats``, ``CacheStats``,
``ReadStats``/``SearchStats``, ``SpaceStats``, ``RecoveryReport``) remain
the source of truth for every benchmark; this module declares one registry
family per count, whose read function looks at them when collected, plus
a small set of direct instruments (:class:`Instruments`) for the
distributions the dataclasses cannot express (per-append latency,
amortization batch sizes, per-locate entry examinations).

The metric catalog's paper mapping lives in ``docs/OBSERVABILITY.md``; the
two headline counters are ``clio_locate_entrymap_entries_examined_total``
(Figure 3's y-axis) and ``clio_recovery_blocks_scanned_total`` (Figure 4's
y-axis).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.obs.events import EventJournal
from repro.obs.registry import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_MS,
    MetricsRegistry,
    Read,
    Sample,
)
from repro.obs.tracing import SpanTracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.service import LogService

__all__ = ["Instruments", "attach_observability", "wire_service"]

#: Space-accounting components read as ``clio_space_bytes{component=}``.
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


def _one(read: Callable[[], float]) -> Read:
    """An unlabelled family's read function: one sample, as a float."""
    return lambda: [((), float(read()))]


def _stat(owner: Callable[[], object], field: str) -> Read:
    return _one(lambda: getattr(owner(), field))


def wire_service(
    service: "LogService", registry: MetricsRegistry
) -> Instruments:
    """Declare every metric family for ``service`` in ``registry`` and
    return the pre-bound hot-path instruments.

    Counters and gauges read the live stats objects each time they are
    collected; only the three histograms hold state.
    """
    store = service.store
    instruments = Instruments(registry)
    add = registry.add

    def per_volume(field: str) -> Read:
        return lambda: [
            ((("volume", str(index)),), float(getattr(device.stats, field)))
            for index, device in enumerate(service.devices)
        ]

    def space_bytes() -> list[Sample]:
        return [
            ((("component", name),), float(getattr(store.space, name)))
            for name in _SPACE_COMPONENTS
        ]

    def mirror_divergence() -> int:
        total = 0
        for device in service.devices:
            divergences = getattr(device, "divergences", None)
            if isinstance(divergences, int):
                total += divergences
        return total

    for field in ("reads", "writes", "seeks"):
        add(
            f"clio_device_{field}_total",
            "counter",
            f"Device-level {field} per volume "
            "(DeviceStats; Section 2's device contract).",
            per_volume(field),
        )
    for field in (
        "hits",
        "misses",
        "parse_avoided",
        "prefetched",
        "prefetch_hits",
    ):
        add(
            f"clio_cache_{field}_total",
            "counter",
            f"Block cache {field} (CacheStats; Section 3.3.2: read cost is "
            "determined primarily by the number of cache misses).",
            _stat(lambda: store.cache.stats, field),
        )
    add(
        "clio_cache_hit_ratio",
        "gauge",
        "Fraction of cache accesses served from memory.",
        _stat(lambda: store.cache.stats, "hit_ratio"),
    )
    add(
        "clio_cache_capacity_blocks",
        "gauge",
        "Configured cache capacity in blocks.",
        _stat(lambda: store.cache, "capacity_blocks"),
    )
    add(
        "clio_writer_client_entries_total",
        "counter",
        "Client entries appended (SpaceStats.client_entries).",
        _stat(lambda: store.space, "client_entries"),
    )
    add(
        "clio_writer_client_bytes_total",
        "counter",
        "Client data bytes appended (Section 3.5's d).",
        _stat(lambda: store.space, "client_data"),
    )
    add(
        "clio_writer_blocks_written_total",
        "counter",
        "Tail blocks burned to the device.",
        _stat(lambda: store.space, "blocks_written"),
    )
    add(
        "clio_writer_forced_padding_bytes_total",
        "counter",
        "Bytes wasted forcing partial blocks onto pure write-once media "
        "(Section 2.3.1's internal fragmentation).",
        _stat(lambda: store.space, "forced_padding"),
    )
    for field in (
        "block_accesses",
        "corrupt_records_found",
        "blocks_parsed",
        "locate_memo_hits",
    ):
        add(
            f"clio_reader_{field}_total",
            "counter",
            f"Read-side {field.replace('_', ' ')} (ReadStats).",
            _stat(lambda: service.reader.stats, field),
        )
    add(
        "clio_locate_entrymap_entries_examined_total",
        "counter",
        "Entrymap entries examined across all locate operations "
        "(Figure 3 / Table 1, column 'entrymap entries examined').",
        _stat(
            lambda: service.reader.stats.search, "entrymap_entries_examined"
        ),
    )
    add(
        "clio_recovery_blocks_scanned_total",
        "counter",
        "Blocks examined rebuilding entrymap accumulators at mount "
        "(Figure 4's y-axis).",
        _one(
            lambda: getattr(
                service.last_recovery_report, "total_blocks_examined", 0
            )
        ),
    )
    add(
        "clio_recovery_runs_total",
        "counter",
        "Completed mount/recovery passes.",
        _one(lambda: service.last_recovery_report is not None),
    )
    add(
        "clio_space_bytes",
        "gauge",
        "Cumulative space accounting by component (Section 3.5).",
        space_bytes,
    )
    add(
        "clio_sim_clock_ms",
        "gauge",
        "Current simulated time in milliseconds.",
        _stat(lambda: store.clock, "now_ms"),
    )
    add(
        "clio_volumes",
        "gauge",
        "Volumes in the mounted sequence.",
        _one(lambda: len(store.sequence.volumes)),
    )
    add(
        "clio_corrupt_blocks_known",
        "gauge",
        "Locations in the known-corrupt set (Section 2.3.2).",
        _one(lambda: len(service.known_corrupt_blocks)),
    )
    add(
        "clio_mirror_divergence_total",
        "counter",
        "Mirror divergence incidents across all volumes: read repairs plus "
        "replicas dropped on write failure (Section 5.1, footnote 11).",
        _one(mirror_divergence),
    )
    return instruments


def attach_observability(
    service: "LogService", *, tracing: bool = True
) -> object:
    """Fill the engine's instrumentation slots (the body of
    :meth:`~repro.core.service.LogService.enable_observability`).

    Each slot is filled once: a registry of every metric family with the
    pre-bound instruments, a span tracer, and an event journal pointed at
    every mounted volume's device sinks and the cache's eviction hook
    (the writer re-points it at each successor volume through
    ``journal.watch_device``).  Returns the registry.
    """
    store = service.store
    if store.metrics is None:
        registry = MetricsRegistry()
        store.instruments = wire_service(service, registry)
        store.metrics = registry
    if tracing and not store.tracer.enabled:
        store.tracer = SpanTracer(store.clock)
    if not store.journal.enabled:
        journal = EventJournal(store.clock)
        store.journal = journal
        for index, volume in enumerate(store.sequence.volumes):
            journal.watch_device(index, volume.device)
        store.cache.on_evict = lambda block: journal.emit(
            "cache.evict", block=block
        )
    return store.metrics
