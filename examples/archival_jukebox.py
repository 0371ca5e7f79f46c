#!/usr/bin/env python3
"""Removable media and archiving (paper Sections 2.1 and 4).

"The history-based model combines regular permanent storage with
archiving.  No separate mechanism is needed for archival storage."  Filled
volumes are sealed and can be shelved; "many of the previous volumes in a
volume sequence may also be available for reading (only), or may be made
available on demand, either automatically or manually".

This example fills several small volumes, shelves the old ones, shows the
tail staying fully usable, and then installs a jukebox handler that
auto-mounts shelved volumes when an old entry is requested.  It finishes
with an fsck over the whole sequence and a mirrored-device variant.

Run:  python examples/archival_jukebox.py
"""

from repro import LogService
from repro.core.fsck import check_service
from repro.worm import VolumeOfflineError, WormDevice
from repro.worm.mirror import MirroredWormDevice


def main() -> None:
    service = LogService.create(
        block_size=512,
        degree_n=8,
        volume_capacity_blocks=32,
        cache_capacity_blocks=8,
    )
    archive = service.create_log_file("/measurements")

    print("== filling several small volumes ==")
    results = []
    for i in range(160):
        results.append(
            archive.append(f"sample-{i:05d} value={i * i}".encode() * 4, force=True)
        )
    volumes = service.store.sequence.volumes
    print(f"  volume sequence now spans {len(volumes)} volumes "
          f"({sum(v.is_sealed for v in volumes)} sealed)")

    print("== shelving the sealed predecessors ==")
    for index in range(len(volumes) - 1):
        service.take_volume_offline(index)
        print(f"  volume {index} -> shelf")

    print("== the tail (newest volume) stays fully usable ==")
    archive.append(b"still writing to the active volume", force=True)
    latest = next(iter(archive.entries(reverse=True)))
    print(f"  newest entry: {latest.data!r}")

    print("== reading old data without the media fails loudly ==")
    try:
        archive.read(results[0].entry_id)
    except VolumeOfflineError as exc:
        print(f"  {exc}")

    print("== installing the jukebox: volumes mount on demand ==")
    service.volume_demand_handler = lambda index: True  # robot fetches it
    first = archive.read(results[0].entry_id)
    print(f"  first sample recovered: {first.data[:30]!r}...")
    print(f"  demand mounts performed: {service.demand_mounts}")

    print("== auditing the whole sequence ==")
    report = check_service(service)
    print(f"  fsck: {report.blocks_checked} blocks, "
          f"{report.entries_checked} entries, "
          f"{'clean' if report.clean else 'PROBLEMS'}")

    print("== replication at the log device level (footnote 11) ==")
    mirror_service = LogService.create(
        block_size=512,
        degree_n=8,
        volume_capacity_blocks=64,
        device_factory=lambda: MirroredWormDevice(
            [WormDevice(block_size=512, capacity_blocks=64) for _ in range(2)]
        ),
    )
    log = mirror_service.create_log_file("/replicated")
    log.append(b"written to both replicas", force=True)
    mirror_service.writer.flush()  # burn the tail so both replicas hold it
    mirror = mirror_service.store.sequence.volumes[0].device
    print(f"  healthy replicas: {mirror.healthy_replicas}")
    # Lose one replica's copy of a block: reads fall through to the other.
    del mirror._replicas[0]._blocks[1]
    mirror_service.store.cache.clear()
    print(f"  data after replica damage: "
          f"{[e.data for e in log.entries()]}")


if __name__ == "__main__":
    main()
