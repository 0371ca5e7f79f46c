"""Every process crash leaves a store that mounts (§2.3.1, §3.4).

A killed process loses its memory but not the page cache, so what it
leaves on disk is exactly the host calls it completed.  The recorder wraps
the file-backed device's host seam (``HostFile.create``/``pwrite``/
``rename``) and the NVRAM sidecar's atomic persist, logging each call
with the bytes it wrote, plus a marker whenever a force is acknowledged.
The workload runs on a file-backed store like the CLI's: three log files
(one a sublog), forced and unforced appends and ``append_many``, and at
least three volume roll-overs.

Every prefix of that log is then materialised as a store directory and
mounted the way ``clio`` mounts one (``cli._mount``).  Each must mount
and pass ``fsck``, and each log file must read back a prefix of what was
appended, at least as long as the last acknowledged force, with no entry
lost that is older than a surviving one in any file.
"""

import os
import random
import shutil

import pytest

from repro.cli import _make_factory, _mount
from repro.core import LogService
from repro.core.catalog import CatalogError
from repro.core.fsck import check_service
from repro.worm import filebacked
from repro.worm.filebacked import FileBackedNvram
from repro.worm.hostfile import HostFile

BLOCK = 256
DEGREE = 4
VOLUME_BLOCKS = 14
FILES = ("/a", "/b", "/b/sub")
SEEDS = (1, 2, 3)


class Recorder:
    """The host calls of one run, in order, with the bytes each wrote."""

    def __init__(self):
        self.ops = []

    def install(self, monkeypatch):
        ops = self.ops

        class RecordingHostFile(HostFile):
            @classmethod
            def create(cls, path):
                host = super().create(path)
                host.path = path
                ops.append(("create", path))
                return host

            def pwrite(self, data, offset):
                super().pwrite(data, offset)
                ops.append(("pwrite", self.path, offset, bytes(data)))

            def rename(self, src, dst):
                super().rename(src, dst)
                self.path = dst
                ops.append(("rename", src, dst))

        persist = FileBackedNvram._persist

        def recording_persist(nvram):
            persist(nvram)
            with open(nvram.path, "rb") as handle:
                ops.append(("nvram", nvram.path, handle.read()))

        monkeypatch.setattr(filebacked, "HostFile", RecordingHostFile)
        monkeypatch.setattr(FileBackedNvram, "_persist", recording_persist)


def run_workload(directory, recorder, seed):
    """Append a seeded mix to a fresh store; return what was appended to
    each file, in order, as (global sequence, payload) pairs."""
    os.makedirs(directory)
    service = LogService.create(
        block_size=BLOCK,
        degree_n=DEGREE,
        volume_capacity_blocks=VOLUME_BLOCKS,
        device_factory=_make_factory(directory, BLOCK, VOLUME_BLOCKS),
        nvram=FileBackedNvram(
            os.path.join(directory, "nvram.img"), capacity_bytes=BLOCK
        ),
    )
    recorder.ops.append(("ack", {}))  # `clio init` done: the store exists
    logs = {path: service.create_log_file(path) for path in FILES[:2]}
    logs["/b/sub"] = logs["/b"].create_sublog("sub")
    appended = {path: [] for path in FILES}
    rng = random.Random(seed)
    seq = 0
    for step in range(150):
        path = rng.choice(FILES)
        force = rng.random() < 0.3
        count = rng.randint(2, 6) if rng.random() < 0.2 else 1
        batch = [
            f"{seed}:{step}:{i}:".encode() + b"x" * rng.randint(10, 90)
            for i in range(count)
        ]
        if count == 1:
            logs[path].append(batch[0], force=force)
        else:
            logs[path].append_many(batch, force=force)
        for payload in batch:
            # A sublog's entries are also its parent's (§2.1).
            for owner in (path, "/b") if path == "/b/sub" else (path,):
                appended[owner].append((seq, payload))
            seq += 1
        if force:  # everything appended so far is durable
            recorder.ops.append(
                ("ack", {name: len(entries) for name, entries in appended.items()})
            )
    return appended


def crash_states(ops):
    """(files, durable) after every host call from init on: the bytes of
    each file a kill at that point leaves, and the acknowledged prefix
    length of each log file."""
    files = {}
    durable = None
    for op in ops:
        kind = op[0]
        if kind == "ack":
            durable = op[1]
            continue
        if kind == "create":
            files[op[1]] = bytearray()
        elif kind == "pwrite":
            _, path, offset, data = op
            image = files[path]
            if len(image) < offset:
                image.extend(bytes(offset - len(image)))
            image[offset : offset + len(data)] = data
        elif kind == "rename":
            files[op[2]] = files.pop(op[1])
        else:
            files[op[1]] = bytearray(op[2])
        if durable is not None:
            yield files, durable


def check_state(directory, files, durable, appended):
    os.makedirs(directory)
    for path, image in files.items():
        with open(os.path.join(directory, os.path.basename(path)), "wb") as out:
            out.write(image)
    service = _mount(directory, read_only=True)
    try:
        assert check_service(service).clean
        survivors = {}
        for path in FILES:
            try:
                got = [entry.data for entry in service.read_entries(path)]
            except CatalogError:
                got = []
            expected = [payload for _, payload in appended[path]]
            assert got == expected[: len(got)], f"{path}: not a prefix"
            assert len(got) >= durable.get(path, 0), f"{path}: lost a force"
            survivors[path] = len(got)
        newest_kept = max(
            (appended[p][n - 1][0] for p, n in survivors.items() if n), default=-1
        )
        oldest_lost = min(
            (appended[p][n][0] for p, n in survivors.items() if n < len(appended[p])),
            default=float("inf"),
        )
        assert newest_kept < oldest_lost, "a hole: lost an entry older than a survivor"
    finally:
        for device in service.devices:
            device.close()
    shutil.rmtree(directory)


@pytest.mark.parametrize("seed", SEEDS)
def test_every_crash_state_mounts_with_a_hole_free_durable_prefix(
    tmp_path, monkeypatch, seed
):
    recorder = Recorder()
    recorder.install(monkeypatch)
    source = str(tmp_path / "store")
    appended = run_workload(source, recorder, seed)
    monkeypatch.undo()
    volumes = sum(1 for op in recorder.ops if op[0] == "create")
    assert volumes >= 4, "the workload must cross at least three roll-overs"
    assert sum(len(entries) for entries in appended.values()) > 150
    for index, (files, durable) in enumerate(crash_states(recorder.ops)):
        check_state(str(tmp_path / f"crash{index}"), files, durable, appended)
