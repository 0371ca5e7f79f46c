"""The mount path, pinned: what recovery counts and what it rebuilds.

A seeded store on file-backed volumes (the CLI's ``vol-NNN.img`` +
``nvram.img`` layout) holds more than twenty log files, sublogs two levels
deep among them, at two entrymap degrees: N = 4, which fills two volumes
and leaves partial groups at three levels on the third, and N = 20, whose
3-byte bitmaps are no native integer width and whose partial groups are at
levels 1 and 2.  Before the mount, the images
are damaged the ways Section 2.3 expects:

* an entrymap record the level-(i+1) rebuild reads is *torn* — the block
  holding its continuation is garbage;
* the block at another entrymap boundary the rebuild reads is garbage, so
  its record is gone and the group is re-derived from the level below;
* a block inside the partial level-1 group is garbage;
* a log file's entries carry an owner id whose CREATE never reached the
  catalog log file;
* the newest entries live only in the NVRAM tail image.

Pinned, and recorded before the mount path was reworked for wall-clock
speed: the ``RecoveryReport``, every volume's ``EntrymapState`` after each
of the two rebuild passes, the replayed catalog, the known-corrupt blocks
and the ledger right after the mount (the simulated clock, ``ReadStats``,
``CacheStats``, ``SpaceStats``, the writer's tail refreshes, the NVRAM's
store count and every device's counters).  A digest of each log file's
newest entries, read after the ledger is taken, checks that what was
rebuilt still finds them.  A change meant to be wall-only that moves a
count or a bit fails here, in seconds.
"""

import dataclasses
import glob
import hashlib
import itertools
import os
import random
import struct

import pytest

from repro.core import LogService
from repro.core import service as service_module
from repro.core.block import parse_block
from repro.core.catalog import CatalogOp, CatalogRecord
from repro.core.entry import decode_record
from repro.core.entrymap import max_level_for
from repro.core.ids import ENTRYMAP_ID
from repro.worm import volume as volume_module
from repro.worm.corruption import corrupt_block
from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice
from repro.worm.volume import LogVolume

BLOCK = 256
#: An owner id whose CREATE is applied to the live catalog only, never
#: logged: after the crash no catalog record names it.
GHOST_ID = 4000
#: degree → (volume capacity in blocks, appends before the crash).
SHAPES = {4: (96, 390), 20: (480, 420)}


def _entrymap_starts(device):
    """(local block, level, cover_start, complete) of every entrymap record
    that begins in a burned block of ``device``'s volume, read off the
    image alone."""
    volume = LogVolume.mount(device)
    blocks = [
        parse_block(volume.read_data_block(local))
        for local in range(volume.next_data_block)
    ]
    for local, parsed in enumerate(blocks):
        for slot in parsed.entry_start_slots():
            record = parsed.fragment(slot)
            following = local + 1
            while not parsed.is_complete(slot) and following < len(blocks):
                # Reassemble a fragmented record from the continuations.
                record += blocks[following].fragment(0)
                if not blocks[following].cont_out:
                    break
                following += 1
            entry = decode_record(record).entry
            if entry.logfile_id == ENTRYMAP_ID:
                level, _degree, cover_start, _count = struct.unpack_from(
                    ">BHQH", entry.data
                )
                yield local, level, cover_start, parsed.is_complete(slot)


def _damage(paths, degree, tail):
    """Garble three burned blocks of the last volume; returns them as
    (kind, local block)."""
    device = FileBackedWormDevice.open_path(paths[-1])
    try:
        top = max_level_for(degree, LogVolume.mount(device).data_capacity)
        # Level i+1's rebuild reads the level-i records of its partial
        # group; the two damaged records are among those.
        read = [
            (local, complete)
            for local, level, cover_start, complete in _entrymap_starts(device)
            if level < top
            and cover_start >= tail // degree ** (level + 1) * degree ** (level + 1)
            and cover_start + degree**level <= tail // degree**level * degree**level
        ]
        torn = [local for local, complete in read if not complete]
        whole = [local for local, complete in read if complete]
        assert torn and whole, "scenario no longer has the records it damages"
        victims = [
            ("torn-continuation", torn[-1] + 1),
            ("entrymap-home", min(set(whole) - {torn[-1], torn[-1] + 1})),
            ("partial-group", (tail // degree) * degree),
        ]
        assert len({block for _, block in victims}) == 3
        assert all(block < device.next_writable - 1 for _, block in victims)
        for number, (_, block) in enumerate(victims):
            corrupt_block(device, block + 1, random.Random(number))
    finally:
        device.close()
    return victims


def _ledger(service):
    return {
        "now_us": service.clock.now_us,
        "tail_refreshes": service.writer.tail_refreshes,
        "nvram_writes": service.store.nvram.writes,
        "read": dataclasses.asdict(service.read_stats),
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


def _state(state):
    return {
        "max_level": state.max_level,
        "next_emit": list(state.next_emit),
        "acc": [sorted(level.items()) for level in state.acc],
        "pending": [(block, sorted(ids)) for block, ids in state._pending_level1],
    }


def _catalog(catalog):
    return {
        "next_id": catalog.next_id,
        "files": {
            logfile_id: (
                catalog.path_of(logfile_id),
                catalog.info(logfile_id).permissions,
                catalog.info(logfile_id).created_ts,
                dict(catalog.info(logfile_id).attributes),
            )
            for logfile_id in catalog.all_ids()
        },
    }


def _scenario(directory, degree, monkeypatch):
    ids = itertools.count(1)
    monkeypatch.setattr(
        volume_module, "_fresh_id", lambda: next(ids).to_bytes(16, "big")
    )
    capacity, appends = SHAPES[degree]
    nvram_path = os.path.join(directory, "nvram.img")

    def volume_paths():
        return sorted(glob.glob(os.path.join(directory, "vol-*.img")))

    def new_volume():
        return FileBackedWormDevice.create(
            os.path.join(directory, f"vol-{len(volume_paths()):03d}.img"),
            block_size=BLOCK,
            capacity_blocks=capacity,
        )

    service = LogService.create(
        block_size=BLOCK,
        degree_n=degree,
        volume_capacity_blocks=capacity,
        cache_capacity_blocks=16,
        device_factory=new_volume,
        sequence_id=b"recovery-pin\x00\x00\x00\x00",
        nvram=FileBackedNvram(nvram_path, capacity_bytes=BLOCK),
    )
    rng = random.Random(34 + degree)
    files = []
    for top in range(6):
        parent = service.create_log_file(f"/t{top}")
        files.append(parent)
        for sub in range(2):
            child = parent.create_sublog(f"s{sub}")
            files.append(child)
            if (top + sub) % 2 == 0:
                files.append(child.create_sublog("deep"))
    files[1].set_attribute("owner", b"ops")
    service.store.catalog.apply(
        CatalogRecord(op=CatalogOp.CREATE, logfile_id=GHOST_ID, name="ghost")
    )
    files.append(service.open_log_file("/ghost"))
    assert len(files) >= 20
    sizes = (8, 40, 120, 300)
    for index in range(appends):
        log = rng.choice(files)
        if index % 40 == 39:
            batch = [rng.randbytes(rng.choice(sizes)) for _ in range(rng.randint(2, 6))]
            log.append_many(batch, force=True)
        else:
            log.append(rng.randbytes(rng.choice(sizes)), force=rng.random() < 0.3)
    files[-2].append(b"staged in the NVRAM tail", force=True)
    tail = service.store.sequence.active_volume.next_data_block

    for device in service.crash().devices:
        device.close()
    damaged = _damage(volume_paths(), degree, tail)

    passes = []
    rebuild = service_module.rebuild_entrymap_state

    def recorded(store, reader, volume_index, last_opened_block, stats=None):
        state = rebuild(store, reader, volume_index, last_opened_block, stats)
        passes.append((volume_index, stats is not None, _state(state)))
        return state

    monkeypatch.setattr(service_module, "rebuild_entrymap_state", recorded)
    service, report = LogService.mount(
        [FileBackedWormDevice.open_path(path) for path in volume_paths()],
        FileBackedNvram(nvram_path, capacity_bytes=BLOCK),
        cache_capacity_blocks=16,
        device_factory=new_volume,
    )
    monkeypatch.setattr(service_module, "rebuild_entrymap_state", rebuild)
    ledger = _ledger(service)

    digest = hashlib.sha256()
    for log in [service.open_log_file(f.path) for f in files[:-1]]:
        for entry in log.tail(2):
            digest.update(b"%d:%d:" % (entry.location.global_block, entry.location.slot))
            digest.update(entry.data)
    for device in service.devices:
        device.close()
    return {
        "damaged": damaged,
        "report": {
            "volumes": [dataclasses.asdict(v) for v in report.volumes],
            "catalog_records_replayed": report.catalog_records_replayed,
            "corrupted_blocks_known": report.corrupted_blocks_known,
            "nvram_tail_recovered": report.nvram_tail_recovered,
            "flight_recorder": len(report.flight_recorder),
            "total_blocks_examined": report.total_blocks_examined,
        },
        "passes": passes,
        "catalog": _catalog(service.store.catalog),
        "known_corrupt": sorted(service.known_corrupt_blocks),
        "ledger": ledger,
        "newest_digest": digest.hexdigest(),
    }


#: Recorded by running :func:`_scenario` on the commit before the mount path
#: was reworked (one-pass bitmap decode, fold without per-id lookups).
_GOLDEN = {4: {'damaged': [('torn-continuation', 17), ('entrymap-home', 32),
                     ('partial-group', 40)],
         'report': {'volumes': [{'volume_index': 0,
                                 'tail_probes': 1,
                                 'last_opened_block': 94,
                                 'level1_blocks_scanned': 3,
                                 'entrymap_records_read': 4},
                                {'volume_index': 1,
                                 'tail_probes': 1,
                                 'last_opened_block': 94,
                                 'level1_blocks_scanned': 3,
                                 'entrymap_records_read': 4},
                                {'volume_index': 2,
                                 'tail_probes': 1,
                                 'last_opened_block': 43,
                                 'level1_blocks_scanned': 8,
                                 'entrymap_records_read': 12}],
                    'catalog_records_replayed': 25,
                    'corrupted_blocks_known': 3,
                    'nvram_tail_recovered': True,
                    'flight_recorder': 0,
                    'total_blocks_examined': 34},
         'passes': [(0, True,
                     {'max_level': 3,
                      'next_emit': [0, 96, 96, 128],
                      'acc': [[], [(21, 6), (25, 4), (26, 4), (29, 1), (31, 3)],
                              [(8, 7), (9, 5), (10, 5), (11, 3), (12, 6), (13, 2),
                               (14, 4), (15, 4), (16, 3), (17, 2), (18, 2), (19, 1),
                               (20, 7), (21, 2), (22, 7), (23, 2), (24, 6), (27, 2),
                               (28, 7), (30, 7), (31, 7), (4000, 2)],
                              [(8, 1), (9, 1), (12, 1), (14, 1), (15, 1), (16, 1),
                               (17, 1), (18, 1), (19, 1), (20, 1), (21, 1), (24, 1),
                               (25, 1), (26, 1), (28, 1), (30, 1)]],
                      'pending': []}),
                    (1, True,
                     {'max_level': 3,
                      'next_emit': [0, 96, 96, 128],
                      'acc': [[], [(14, 1), (19, 3), (24, 6), (29, 1)],
                              [(8, 7), (9, 1), (11, 4), (12, 6), (13, 6), (14, 4),
                               (16, 3), (17, 3), (19, 2), (20, 1), (21, 1), (24, 7),
                               (25, 4), (26, 4), (27, 6), (28, 2), (29, 2), (4000, 2)],
                              [(8, 1), (9, 1), (10, 1), (11, 1), (12, 1), (13, 1),
                               (14, 1), (16, 1), (17, 1), (20, 1), (22, 1), (23, 1),
                               (24, 1), (25, 1), (28, 1), (29, 1), (30, 1), (31, 1)]],
                      'pending': []}),
                    (2, True,
                     {'max_level': 3,
                      'next_emit': [0, 44, 48, 64],
                      'acc': [[], [(16, 4), (18, 12), (29, 6), (31, 8)],
                              [(8, 3), (9, 1), (11, 2), (12, 3), (13, 2), (14, 1),
                               (15, 1), (16, 2), (20, 2), (21, 2), (22, 2), (24, 3),
                               (25, 3), (26, 3), (28, 3), (29, 3), (30, 3), (31, 3)],
                              [(8, 3), (9, 1), (11, 3), (12, 3), (13, 3), (14, 3),
                               (15, 3), (16, 3), (17, 1), (19, 3), (20, 3), (21, 1),
                               (22, 3), (23, 3), (24, 3), (25, 3), (26, 2), (27, 3),
                               (28, 3), (29, 3), (30, 3), (31, 3), (4000, 2)]],
                      'pending': []}),
                    (0, False,
                     {'max_level': 3,
                      'next_emit': [0, 96, 96, 128],
                      'acc': [[],
                              [(20, 6), (21, 6), (24, 4), (25, 4), (26, 4), (28, 3),
                               (29, 1), (30, 3), (31, 3)],
                              [(8, 7), (9, 5), (10, 5), (11, 3), (12, 6), (13, 2),
                               (14, 4), (15, 4), (16, 3), (17, 2), (18, 2), (19, 1),
                               (20, 7), (21, 2), (22, 7), (23, 2), (24, 6), (27, 2),
                               (28, 7), (30, 7), (31, 7), (4000, 2)],
                              [(8, 1), (9, 1), (12, 1), (14, 1), (15, 1), (16, 1),
                               (17, 1), (18, 1), (19, 1), (20, 1), (21, 1), (24, 1),
                               (25, 1), (26, 1), (28, 1), (30, 1)]],
                      'pending': []}),
                    (1, False,
                     {'max_level': 3,
                      'next_emit': [0, 96, 96, 128],
                      'acc': [[],
                              [(12, 1), (14, 1), (16, 3), (19, 3), (24, 6), (28, 1),
                               (29, 1)],
                              [(8, 7), (9, 1), (11, 4), (12, 6), (13, 6), (14, 4),
                               (16, 3), (17, 3), (19, 2), (20, 1), (21, 1), (24, 7),
                               (25, 4), (26, 4), (27, 6), (28, 2), (29, 2), (4000, 2)],
                              [(8, 1), (9, 1), (10, 1), (11, 1), (12, 1), (13, 1),
                               (14, 1), (16, 1), (17, 1), (20, 1), (22, 1), (23, 1),
                               (24, 1), (25, 1), (28, 1), (29, 1), (30, 1), (31, 1)]],
                      'pending': []}),
                    (2, False,
                     {'max_level': 3,
                      'next_emit': [0, 44, 48, 64],
                      'acc': [[],
                              [(16, 12), (17, 12), (18, 12), (28, 14), (29, 6), (30, 8),
                               (31, 8)],
                              [(8, 3), (9, 1), (11, 2), (12, 3), (13, 2), (14, 1),
                               (15, 1), (16, 2), (20, 2), (21, 2), (22, 2), (24, 3),
                               (25, 3), (26, 3), (28, 3), (29, 3), (30, 3), (31, 3)],
                              [(8, 3), (9, 1), (11, 3), (12, 3), (13, 3), (14, 3),
                               (15, 3), (16, 3), (17, 1), (19, 3), (20, 3), (21, 1),
                               (22, 3), (23, 3), (24, 3), (25, 3), (26, 2), (27, 3),
                               (28, 3), (29, 3), (30, 3), (31, 3), (4000, 2)]],
                      'pending': []})],
         'catalog': {'next_id': 32,
                     'files': {0: ('/', 493, 0, {}),
                               8: ('/t0', 420, 0, {}),
                               9: ('/t0/s0', 420, 2414, {'owner': b'ops'}),
                               10: ('/t0/s0/deep', 420, 4828, {}),
                               11: ('/t0/s1', 420, 7278, {}),
                               12: ('/t1', 420, 9692, {}),
                               13: ('/t1/s0', 420, 12106, {}),
                               14: ('/t1/s1', 420, 14520, {}),
                               15: ('/t1/s1/deep', 420, 17004, {}),
                               16: ('/t2', 420, 19454, {}),
                               17: ('/t2/s0', 420, 21868, {}),
                               18: ('/t2/s0/deep', 420, 24282, {}),
                               19: ('/t2/s1', 420, 26732, {}),
                               20: ('/t3', 420, 29146, {}),
                               21: ('/t3/s0', 420, 31560, {}),
                               22: ('/t3/s1', 420, 34044, {}),
                               23: ('/t3/s1/deep', 420, 36458, {}),
                               24: ('/t4', 420, 38908, {}),
                               25: ('/t4/s0', 420, 41322, {}),
                               26: ('/t4/s0/deep', 420, 43736, {}),
                               27: ('/t4/s1', 420, 46186, {}),
                               28: ('/t5', 420, 48600, {}),
                               29: ('/t5/s0', 420, 51084, {}),
                               30: ('/t5/s1', 420, 53498, {}),
                               31: ('/t5/s1/deep', 420, 55912, {})}},
         'known_corrupt': [(2, 17), (2, 32), (2, 40)],
         'ledger': {'now_us': 1837942,
                    'tail_refreshes': 0,
                    'nvram_writes': 0,
                    'read': {'block_accesses': 275,
                             'device_reads': 134,
                             'corrupt_blocks_found': 3,
                             'corrupt_records_found': 0,
                             'torn_entries_skipped': 0,
                             'blocks_parsed': 134,
                             'locate_memo_hits': 0,
                             'search': {'entrymap_entries_examined': 46,
                                        'accumulator_examinations': 6,
                                        'fallback_blocks_scanned': 8}},
                    'space': {'client_data': 0,
                              'entry_headers': 0,
                              'size_index': 0,
                              'entrymap': 0,
                              'catalog': 0,
                              'forced_padding': 0,
                              'blocks_written': 0,
                              'client_entries': 0},
                    'cache': {'hits': 138,
                              'misses': 168,
                              'insertions': 138,
                              'evictions': 119,
                              'parse_avoided': 138,
                              'prefetched': 0,
                              'prefetch_hits': 0},
                    'devices': [{'reads': 30,
                                 'writes': 0,
                                 'invalidations': 0,
                                 'tail_queries': 1,
                                 'written_probes': 0,
                                 'seeks': 30},
                                {'reads': 29,
                                 'writes': 0,
                                 'invalidations': 0,
                                 'tail_queries': 1,
                                 'written_probes': 0,
                                 'seeks': 29},
                                {'reads': 109,
                                 'writes': 0,
                                 'invalidations': 3,
                                 'tail_queries': 1,
                                 'written_probes': 0,
                                 'seeks': 112}]},
         'newest_digest': '41b80c212ae49916004acbdffca325eb9b6abdb78528d133be02152e17e60a4d'},
     20: {'damaged': [('torn-continuation', 201), ('entrymap-home', 40),
                      ('partial-group', 260)],
          'report': {'volumes': [{'volume_index': 0,
                                  'tail_probes': 1,
                                  'last_opened_block': 275,
                                  'level1_blocks_scanned': 56,
                                  'entrymap_records_read': 13}],
                     'catalog_records_replayed': 25,
                     'corrupted_blocks_known': 3,
                     'nvram_tail_recovered': True,
                     'flight_recorder': 0,
                     'total_blocks_examined': 69},
          'passes': [(0, True,
                      {'max_level': 2,
                       'next_emit': [0, 280, 400],
                       'acc': [[],
                               [(9, 8), (10, 6320), (11, 12), (12, 32784), (13, 772),
                                (15, 128), (16, 104), (17, 12292), (18, 128), (19, 384),
                                (20, 49152), (21, 4096), (22, 1696), (24, 3088),
                                (27, 16), (28, 6), (29, 514), (30, 24), (31, 33312)],
                               [(2, 1), (8, 7679), (9, 5624), (10, 5082), (11, 7867),
                                (12, 8191), (13, 4831), (14, 8191), (15, 7935),
                                (16, 8189), (17, 7667), (18, 3411), (19, 1343),
                                (20, 7677), (21, 8061), (22, 7679), (23, 1785),
                                (24, 8191), (25, 8149), (26, 7895), (27, 4079),
                                (28, 8191), (29, 3182), (30, 7166), (31, 7166),
                                (4000, 5578)]],
                       'pending': []}),
                     (0, False,
                      {'max_level': 2,
                       'next_emit': [0, 280, 400],
                       'acc': [[],
                               [(8, 6332), (9, 6328), (10, 6320), (11, 12), (12, 33684),
                                (13, 772), (14, 128), (15, 128), (16, 12780),
                                (17, 12420), (18, 128), (19, 384), (20, 54944),
                                (21, 4096), (22, 1696), (24, 3088), (27, 16),
                                (28, 33342), (29, 514), (30, 33336), (31, 33312)],
                               [(2, 1), (8, 8191), (9, 6138), (10, 5082), (11, 7867),
                                (12, 8191), (13, 4831), (14, 8191), (15, 7935),
                                (16, 8191), (17, 7667), (18, 3411), (19, 1343),
                                (20, 8191), (21, 8061), (22, 8191), (23, 1785),
                                (24, 8191), (25, 8151), (26, 7895), (27, 4079),
                                (28, 8191), (29, 3182), (30, 7166), (31, 7166),
                                (4000, 5578)]],
                       'pending': []})],
          'catalog': {'next_id': 32,
                      'files': {0: ('/', 493, 0, {}),
                                8: ('/t0', 420, 0, {}),
                                9: ('/t0/s0', 420, 2414, {'owner': b'ops'}),
                                10: ('/t0/s0/deep', 420, 4828, {}),
                                11: ('/t0/s1', 420, 7278, {}),
                                12: ('/t1', 420, 9692, {}),
                                13: ('/t1/s0', 420, 12106, {}),
                                14: ('/t1/s1', 420, 14520, {}),
                                15: ('/t1/s1/deep', 420, 17004, {}),
                                16: ('/t2', 420, 19454, {}),
                                17: ('/t2/s0', 420, 21868, {}),
                                18: ('/t2/s0/deep', 420, 24282, {}),
                                19: ('/t2/s1', 420, 26732, {}),
                                20: ('/t3', 420, 29146, {}),
                                21: ('/t3/s0', 420, 31560, {}),
                                22: ('/t3/s1', 420, 34044, {}),
                                23: ('/t3/s1/deep', 420, 36458, {}),
                                24: ('/t4', 420, 38908, {}),
                                25: ('/t4/s0', 420, 41322, {}),
                                26: ('/t4/s0/deep', 420, 43736, {}),
                                27: ('/t4/s1', 420, 46186, {}),
                                28: ('/t5', 420, 48600, {}),
                                29: ('/t5/s0', 420, 51084, {}),
                                30: ('/t5/s1', 420, 53498, {}),
                                31: ('/t5/s1/deep', 420, 55912, {})}},
          'known_corrupt': [(0, 40), (0, 201), (0, 260)],
          'ledger': {'now_us': 2083908,
                     'tail_refreshes': 0,
                     'nvram_writes': 0,
                     'read': {'block_accesses': 318,
                              'device_reads': 154,
                              'corrupt_blocks_found': 3,
                              'corrupt_records_found': 0,
                              'torn_entries_skipped': 0,
                              'blocks_parsed': 154,
                              'locate_memo_hits': 0,
                              'search': {'entrymap_entries_examined': 6,
                                         'accumulator_examinations': 2,
                                         'fallback_blocks_scanned': 0}},
                     'space': {'client_data': 0,
                               'entry_headers': 0,
                               'size_index': 0,
                               'entrymap': 0,
                               'catalog': 0,
                               'forced_padding': 0,
                               'blocks_written': 0,
                               'client_entries': 0},
                     'cache': {'hits': 162,
                               'misses': 165,
                               'insertions': 157,
                               'evictions': 138,
                               'parse_avoided': 161,
                               'prefetched': 0,
                               'prefetch_hits': 0},
                     'devices': [{'reads': 164,
                                  'writes': 0,
                                  'invalidations': 3,
                                  'tail_queries': 1,
                                  'written_probes': 0,
                                  'seeks': 167}]},
          'newest_digest': 'a0e15ab32688aa73d7dce7c3ac992cba0f8cacdd3822ec4d9cf7c3ecf8d69217'}}


@pytest.mark.parametrize("degree", sorted(SHAPES))
def test_mount_counts_and_rebuilt_state_match_the_recorded_ones(
    tmp_path, monkeypatch, degree
):
    assert _scenario(str(tmp_path), degree, monkeypatch) == _GOLDEN[degree]
