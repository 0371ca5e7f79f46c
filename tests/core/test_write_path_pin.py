"""The forced-append path, pinned: what it counts and the bytes it leaves.

A seeded store on file-backed volumes (``vol-NNN.img`` + ``nvram.img``, the
CLI's layout) takes forced and unforced appends, group commits with and
without a force, entries in a sublog two levels deep and in an unrelated
file, and rolls over to a second volume.  Then it crashes, remounts from
the files alone, appends a little more (rolling over to a third volume)
and reads a sublog back.

Pinned, and recorded before the write path was reworked for wall-clock
speed:

* the ledger at the crash and again at the end — the simulated clock,
  ``SpaceStats``, ``CacheStats``, every device's counters, the writer's
  tail refreshes and the NVRAM's store count;
* the sha256 of ``nvram.img`` after every force, folded into one digest;
* the sha256 of each ``vol-*.img`` at the end.

A change meant to be wall-only that moves a count, a charge or a byte on
disk fails here, in seconds.
"""

import dataclasses
import glob
import hashlib
import itertools
import os
import random

from repro.core import LogService
from repro.worm import volume as volume_module
from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice

BLOCK = 512


def _ledger(service):
    return {
        "now_us": service.clock.now_us,
        "tail_refreshes": service.writer.tail_refreshes,
        "nvram_writes": service.store.nvram.writes,
        "space": dataclasses.asdict(service.space_stats),
        "cache": dataclasses.asdict(service.cache_stats),
        "devices": [
            {
                field.name: getattr(device.stats, field.name)
                for field in dataclasses.fields(device.stats)
                if isinstance(getattr(device.stats, field.name), int)
            }
            for device in service.devices
        ],
    }


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _scenario(directory, monkeypatch):
    ids = itertools.count(1)
    monkeypatch.setattr(
        volume_module, "_fresh_id", lambda: next(ids).to_bytes(16, "big")
    )
    nvram_path = os.path.join(directory, "nvram.img")

    def new_volume():
        index = len(glob.glob(os.path.join(directory, "vol-*.img")))
        return FileBackedWormDevice.create(
            os.path.join(directory, f"vol-{index:03d}.img"),
            block_size=BLOCK,
            capacity_blocks=160,
        )

    service = LogService.create(
        block_size=BLOCK,
        degree_n=8,
        volume_capacity_blocks=160,
        cache_capacity_blocks=16,
        device_factory=new_volume,
        sequence_id=b"write-path-pin\x00\x00",
        nvram=FileBackedNvram(nvram_path, capacity_bytes=BLOCK),
    )
    rng = random.Random(30)
    app = service.create_log_file("/app")
    mid = app.create_sublog("mid")
    deep = mid.create_sublog("deep")
    files = [app, mid, deep, service.create_log_file("/other")]
    sizes = (8, 40, 120, 300, 900)
    nvram_digest = hashlib.sha256()

    def append(log, force):
        log.append(
            rng.randbytes(rng.choice(sizes)),
            force=force,
            timestamped=rng.random() < 0.9,
        )
        if force:
            nvram_digest.update(_sha256(nvram_path).encode())

    for index in range(420):
        log = rng.choice(files)
        if index % 30 == 29:
            batch = [
                rng.randbytes(rng.choice(sizes)) for _ in range(rng.randint(2, 12))
            ]
            force = index % 60 == 59
            log.append_many(batch, force=force)
            if force:
                nvram_digest.update(_sha256(nvram_path).encode())
        else:
            append(log, force=rng.random() < 0.5)
    at_crash = _ledger(service)

    for device in service.crash().devices:
        device.close()
    devices = [
        FileBackedWormDevice.open_path(path)
        for path in sorted(glob.glob(os.path.join(directory, "vol-*.img")))
    ]
    service, report = LogService.mount(
        devices,
        FileBackedNvram(nvram_path, capacity_bytes=BLOCK),
        cache_capacity_blocks=16,
        device_factory=new_volume,
    )
    deep = service.open_log_file("/app/mid/deep")
    for _ in range(30):
        append(deep, force=rng.random() < 0.7)
    digest = hashlib.sha256()
    count = 0
    for entry in service.open_log_file("/app/mid").entries():
        count += 1
        digest.update(b"%d:%d:" % (entry.location.global_block, entry.location.slot))
        digest.update(entry.data)
    at_end = _ledger(service)
    for device in service.devices:
        device.close()
    return {
        "nvram_tail_recovered": report.nvram_tail_recovered,
        "at_crash": at_crash,
        "at_end": at_end,
        "mid_entries": count,
        "mid_digest": digest.hexdigest(),
        "nvram_after_each_force": nvram_digest.hexdigest(),
        "volumes": {
            os.path.basename(path): _sha256(path)
            for path in sorted(glob.glob(os.path.join(directory, "vol-*.img")))
        },
    }


#: Recorded by running :func:`_scenario` on the commit before the forced
#: append was reworked (memoized membership, one tail encode per change,
#: one write per NVRAM persist).
_GOLDEN = {
    "nvram_tail_recovered": True,
    "at_crash": {
        "now_us": 3416420,
        "tail_refreshes": 424,
        "nvram_writes": 208,
        "space": {
            "client_data": 140776,
            "entry_headers": 4940,
            "size_index": 1610,
            "entrymap": 1473,
            "catalog": 139,
            "forced_padding": 0,
            "blocks_written": 299,
            "client_entries": 514
        },
        "cache": {
            "hits": 0,
            "misses": 0,
            "insertions": 300,
            "evictions": 284,
            "parse_avoided": 0,
            "prefetched": 0,
            "prefetch_hits": 0
        },
        "devices": [
            {
                "reads": 0,
                "writes": 160,
                "invalidations": 0,
                "tail_queries": 0,
                "written_probes": 0,
                "seeks": 160
            },
            {
                "reads": 0,
                "writes": 141,
                "invalidations": 0,
                "tail_queries": 0,
                "written_probes": 0,
                "seeks": 141
            }
        ]
    },
    "at_end": {
        "now_us": 4389170,
        "tail_refreshes": 30,
        "nvram_writes": 24,
        "space": {
            "client_data": 11860,
            "entry_headers": 268,
            "size_index": 108,
            "entrymap": 68,
            "catalog": 0,
            "forced_padding": 0,
            "blocks_written": 24,
            "client_entries": 30
        },
        "cache": {
            "hits": 870,
            "misses": 324,
            "insertions": 349,
            "evictions": 333,
            "parse_avoided": 870,
            "prefetched": 0,
            "prefetch_hits": 0
        },
        "devices": [
            {
                "reads": 163,
                "writes": 0,
                "invalidations": 0,
                "tail_queries": 1,
                "written_probes": 0,
                "seeks": 163
            },
            {
                "reads": 155,
                "writes": 19,
                "invalidations": 0,
                "tail_queries": 1,
                "written_probes": 0,
                "seeks": 174
            },
            {
                "reads": 5,
                "writes": 6,
                "invalidations": 0,
                "tail_queries": 0,
                "written_probes": 0,
                "seeks": 11
            }
        ]
    },
    "mid_entries": 328,
    "mid_digest": "6d6e7b0b99de84db7d929703a01336fc48bf6b8ce06b3b547722a3047883ff7a",
    "nvram_after_each_force": "7d1377d90096b107fb08b20d4b1a08db5292c46d75871f278f2b8d1204f87f8d",
    "volumes": {
        "vol-000.img": "2175d133e92be342d8edaf4f65a9e2429b092748ba984664586abd213789ad67",
        "vol-001.img": "30f50ea96d213aa1eca4bae1931b4136be3aab67066fb4775dec4d860fe20849",
        "vol-002.img": "e452bf32dd92c3e1924a81fd94eb9cf5f9b5a530a32b0ab1f941eaa86cae2479"
    }
}


def test_write_path_counts_and_bytes_match_the_recorded_ledger(
    tmp_path, monkeypatch
):
    assert _scenario(str(tmp_path), monkeypatch) == _GOLDEN
