"""Tests for file-backed devices/NVRAM and the clio CLI."""

import pytest

from repro.cli import main
from repro.core import LogService
from repro.worm import StorageError, WriteOnceViolation
from repro.worm.filebacked import FileBackedNvram, FileBackedWormDevice

BS = 256


class TestFileBackedDevice:
    def test_create_write_reopen_read(self, tmp_path):
        path = str(tmp_path / "dev.img")
        device = FileBackedWormDevice.create(path, block_size=BS, capacity_blocks=16)
        device.append_block(b"\x01" * BS)
        device.append_block(b"\x02" * BS)
        device.close()
        reopened = FileBackedWormDevice.open_path(path)
        assert reopened.blocks_written == 2
        assert reopened.read_block(0) == b"\x01" * BS
        assert reopened.read_block(1) == b"\x02" * BS

    def test_write_once_enforced_after_reopen(self, tmp_path):
        path = str(tmp_path / "dev.img")
        device = FileBackedWormDevice.create(path, block_size=BS, capacity_blocks=16)
        device.append_block(bytes(BS))
        device.close()
        reopened = FileBackedWormDevice.open_path(path)
        with pytest.raises(WriteOnceViolation):
            reopened.write_block(0, bytes(BS))

    def test_invalidation_persists(self, tmp_path):
        path = str(tmp_path / "dev.img")
        device = FileBackedWormDevice.create(path, block_size=BS, capacity_blocks=16)
        device.append_block(bytes(BS))
        device.invalidate(0)
        device.close()
        reopened = FileBackedWormDevice.open_path(path)
        assert reopened.is_invalidated(0)
        assert reopened.next_writable == 1

    def test_create_over_existing_rejected(self, tmp_path):
        path = str(tmp_path / "dev.img")
        FileBackedWormDevice.create(path, block_size=BS, capacity_blocks=4).close()
        with pytest.raises(StorageError):
            FileBackedWormDevice.create(path, block_size=BS, capacity_blocks=4)

    def test_open_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.img"
        path.write_bytes(b"not a clio image at all")
        with pytest.raises(StorageError):
            FileBackedWormDevice.open_path(str(path))

    def test_context_manager(self, tmp_path):
        path = str(tmp_path / "dev.img")
        with FileBackedWormDevice.create(path, block_size=BS, capacity_blocks=4) as dev:
            dev.append_block(bytes(BS))
        with pytest.raises(StorageError):
            dev.append_block(bytes(BS))


class TestFileBackedNvram:
    def test_image_survives_reopen(self, tmp_path):
        path = str(tmp_path / "nvram.img")
        nvram = FileBackedNvram(path, capacity_bytes=BS)
        nvram.store(7, b"tail image bytes")
        reloaded = FileBackedNvram(path, capacity_bytes=BS)
        image = reloaded.load()
        assert image.block_index == 7
        assert image.data == b"tail image bytes"

    def test_clear_persists(self, tmp_path):
        path = str(tmp_path / "nvram.img")
        nvram = FileBackedNvram(path, capacity_bytes=BS)
        nvram.store(7, b"x")
        nvram.clear()
        assert FileBackedNvram(path, capacity_bytes=BS).load() is None

    def test_missing_file_is_empty(self, tmp_path):
        nvram = FileBackedNvram(str(tmp_path / "none.img"), capacity_bytes=BS)
        assert nvram.load() is None


class TestServicePersistence:
    def test_service_survives_process_exit(self, tmp_path):
        """Full persistence loop without the CLI: create, write, 'exit'
        (drop all objects), mount from files, read."""
        directory = tmp_path

        def factory():
            index = len(list(directory.glob("vol-*.img")))
            return FileBackedWormDevice.create(
                str(directory / f"vol-{index:03d}.img"),
                block_size=BS,
                capacity_blocks=64,
            )

        nvram = FileBackedNvram(str(directory / "nvram.img"), capacity_bytes=BS)
        service = LogService.create(
            block_size=BS,
            degree_n=4,
            volume_capacity_blocks=64,
            device_factory=factory,
            nvram=nvram,
        )
        log = service.create_log_file("/persist")
        for i in range(30):
            log.append(f"entry-{i}".encode() * 3, force=True)
        del service, log  # "process exit"

        devices = [
            FileBackedWormDevice.open_path(str(p))
            for p in sorted(directory.glob("vol-*.img"))
        ]
        nvram2 = FileBackedNvram(str(directory / "nvram.img"), capacity_bytes=BS)
        mounted, report = LogService.mount(devices, nvram2)
        got = [e.data for e in mounted.open_log_file("/persist").entries()]
        assert got == [f"entry-{i}".encode() * 3 for i in range(30)]
        assert report.nvram_tail_recovered


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_init_create_append_cat(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert self.run("init", store, "--block-size", "256", "--capacity", "64") == 0
        assert self.run("create", store, "/mail") == 0
        assert self.run("create", store, "/mail/smith") == 0
        assert self.run("append", store, "/mail/smith", "hello smith") == 0
        assert self.run("append", store, "/mail/smith", "second message") == 0
        capsys.readouterr()
        assert self.run("cat", store, "/mail/smith") == 0
        out = capsys.readouterr().out
        assert "hello smith" in out
        assert "second message" in out

    def test_parent_log_sees_sublogs(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run("init", store, "--block-size", "256", "--capacity", "64")
        self.run("create", store, "/mail")
        self.run("create", store, "/mail/a")
        self.run("create", store, "/mail/b")
        self.run("append", store, "/mail/a", "to-a")
        self.run("append", store, "/mail/b", "to-b")
        capsys.readouterr()
        self.run("cat", store, "/mail")
        out = capsys.readouterr().out
        assert "to-a" in out and "to-b" in out

    def test_ls(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run("init", store, "--block-size", "256", "--capacity", "64")
        self.run("create", store, "/audit")
        self.run("create", store, "/mail")
        capsys.readouterr()
        self.run("ls", store)
        out = capsys.readouterr().out
        assert "audit" in out and "mail" in out

    def test_cat_reverse_and_limit(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run("init", store, "--block-size", "256", "--capacity", "64")
        self.run("create", store, "/app")
        for i in range(5):
            self.run("append", store, "/app", f"e{i}")
        capsys.readouterr()
        self.run("cat", store, "/app", "--reverse", "--limit", "2")
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["e4", "e3"]

    def test_info_and_fsck(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run("init", store, "--block-size", "256", "--capacity", "64")
        self.run("create", store, "/app")
        self.run("append", store, "/app", "data")
        capsys.readouterr()
        assert self.run("info", store) == 0
        out = capsys.readouterr().out
        assert "client entries: 1" in out
        assert "/app" in out
        assert self.run("fsck", store) == 0
        assert "clean" in capsys.readouterr().out

    def test_append_stdin_lines_batches(self, tmp_path, capsys, monkeypatch):
        import io

        store = str(tmp_path / "store")
        self.run("init", store, "--block-size", "256", "--capacity", "64")
        self.run("create", store, "/batch")
        fake_stdin = type(
            "S", (), {"buffer": io.BytesIO(b"line-one\nline-two\nline-three")}
        )()
        monkeypatch.setattr("sys.stdin", fake_stdin)
        assert self.run("append", store, "/batch", "--stdin", "--lines") == 0
        capsys.readouterr()
        self.run("cat", store, "/batch")
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["line-one", "line-two", "line-three"]

    def test_append_durable_across_invocations(self, tmp_path, capsys):
        """Each CLI invocation is a separate process; the final sync makes
        every append durable without per-entry forcing."""
        store = str(tmp_path / "store")
        self.run("init", store, "--block-size", "256", "--capacity", "64")
        self.run("create", store, "/d")
        self.run("append", store, "/d", "survives")
        capsys.readouterr()
        self.run("cat", store, "/d")
        assert "survives" in capsys.readouterr().out

    def test_volumes_listing(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run("init", store, "--block-size", "256", "--capacity", "8", "--degree", "4")
        self.run("create", store, "/app")
        for i in range(30):
            self.run("append", store, "/app", "x" * 120)
        capsys.readouterr()
        assert self.run("volumes", store) == 0
        out = capsys.readouterr().out
        assert "vol 0:" in out
        assert "sealed" in out and "active" in out

    def test_double_init_rejected(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run("init", store)
        assert self.run("init", store) == 1

    def test_create_mode_out_of_range_is_an_error(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run("init", store, "--block-size", "256", "--capacity", "64")
        capsys.readouterr()
        assert self.run("create", store, "/app", "--mode", "17777") == 2
        assert capsys.readouterr().err.startswith("error: permissions must be")
        assert self.run("create", store, "/app", "--mode", "7777") == 0

    def test_mount_missing_store_errors(self, tmp_path):
        with pytest.raises(SystemExit):
            self.run("cat", str(tmp_path / "nowhere"), "/x")

    def test_durability_across_invocations_spanning_volumes(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        self.run("init", store, "--block-size", "256", "--capacity", "8", "--degree", "4")
        self.run("create", store, "/app")
        for i in range(40):
            self.run("append", store, "/app", f"entry-{i:03d}-" + "x" * 100)
        capsys.readouterr()
        self.run("cat", store, "/app", "--limit", "40")
        out = capsys.readouterr().out
        for i in range(40):
            assert f"entry-{i:03d}-" in out
        # Multiple volume images were created.
        assert len(list((tmp_path / "store").glob("vol-*.img"))) > 1
