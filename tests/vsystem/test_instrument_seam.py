"""The instrumentation seam (``repro.vsystem.instrument``): the engine owns
the contract, ``repro.obs`` is a plug-in, and nothing is loaded until it
is asked for."""

import os
import subprocess
import sys
from pathlib import Path

import repro.obs
from repro.core import LogService
from repro.obs import events, tracing
from repro.vsystem import instrument

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Runs ``clio`` in-process, then prints which tooling packages (and which
#: of the cold-path imports only some verbs, or no verb, need) got loaded.
LOADED_AFTER = """\
import sys
import repro.cli
code = repro.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
loaded = sorted(
    m
    for m in sys.modules
    if m.startswith(("repro.obs", "repro.lint"))
    or m in (
        "uuid",
        "repro.core.fsck",
        "repro.core.asyncclient",
        "repro.vsystem.ipc",
        "repro.worm.corruption",
        "repro.worm.mirror",
    )
)
print("LOADED", code, loaded)
"""


def clio(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_AFTER, *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


class TestPlugInIsLoadedOnDemand:
    def test_import_and_plain_verbs_load_no_tooling(self, tmp_path):
        assert clio().strip() == "LOADED 0 []"
        store = str(tmp_path / "store")
        # Only creating a volume needs an id generator.
        out = clio("init", store, "--block-size", "512", "--degree", "8")
        assert out.strip().endswith("LOADED 0 ['uuid']")
        for argv in (("create", store, "/app"), ("append", store, "/app", "hello")):
            assert clio(*argv).strip().endswith("LOADED 0 []")
        out = clio("cat", store, "/app")
        assert out.startswith("hello\n")
        assert out.strip().endswith("LOADED 0 []")
        assert clio("fsck", store).strip().endswith("LOADED 0 ['repro.core.fsck']")

    def test_stats_loads_the_plug_in_and_prints_the_registry(self, tmp_path):
        store = str(tmp_path / "store")
        clio("init", store, "--block-size", "512", "--degree", "8")
        clio("create", store, "/app")
        clio("append", store, "/app", "hello")
        out = clio("stats", store)
        assert "clio_recovery_runs_total" in out
        assert "clio_device_reads_total" in out
        loaded = out.strip().splitlines()[-1]
        assert "'repro.obs.wiring'" in loaded and "'repro.obs.registry'" in loaded
        assert "repro.lint" not in loaded


class TestOldImportPathsAreTheSameObjects:
    def test_obs_reexports_the_seams_objects(self):
        for name in ("NULL_TRACER", "NullTracer", "TraceContext"):
            assert getattr(repro.obs, name) is getattr(instrument, name)
            assert getattr(tracing, name) is getattr(instrument, name)
        for name in ("NULL_JOURNAL", "NullJournal"):
            assert getattr(repro.obs, name) is getattr(instrument, name)
            assert getattr(events, name) is getattr(instrument, name)
        assert tracing.TracerLike is instrument.TracerLike
        assert tracing.ClockLike is instrument.ClockLike

    def test_a_fresh_service_holds_the_shared_null_objects(self):
        service = LogService.create()
        assert service.tracer is instrument.NULL_TRACER
        assert service.journal is instrument.NULL_JOURNAL
        assert service.store.instruments is None
        assert service.store.metrics is None


class TestJournalFollowsTheVolumeSequence:
    def test_a_successor_volume_is_watched_when_the_writer_adds_it(self):
        service = LogService.create(
            block_size=256, volume_capacity_blocks=16, observability=True
        )
        log = service.create_log_file("/app")
        while len(service.devices) < 2:
            log.append(b"x" * 100, force=True)
        for _ in range(6):  # enough to burn a block on the new volume
            log.append(b"y" * 100, force=True)
        writes = service.journal.by_kind("device.write")
        assert {event.attr("volume") for event in writes} == {0, 1}
        assert service.journal.by_kind("volume.extend")

    def test_disabled_journal_leaves_devices_unwatched(self):
        service = LogService.create(block_size=256, volume_capacity_blocks=16)
        log = service.create_log_file("/app")
        while len(service.devices) < 2:
            log.append(b"x" * 100, force=True)
        assert all(device.event_sink is None for device in service.devices)
