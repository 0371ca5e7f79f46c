"""CLI error paths and option handling."""

import pytest

from repro.cli import build_parser, main


class TestCliErrors:
    def test_append_without_data_errors(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["init", store, "--block-size", "256", "--capacity", "16"])
        main(["create", store, "/x"])
        assert main(["append", store, "/x"]) == 1
        assert "provide DATA or --stdin" in capsys.readouterr().err

    def test_create_duplicate_raises(self, tmp_path):
        store = str(tmp_path / "store")
        main(["init", store, "--block-size", "256", "--capacity", "16"])
        main(["create", store, "/x"])
        with pytest.raises(Exception):
            main(["create", store, "/x"])

    def test_cat_missing_log_raises(self, tmp_path):
        store = str(tmp_path / "store")
        main(["init", store, "--block-size", "256", "--capacity", "16"])
        with pytest.raises(Exception):
            main(["cat", store, "/nope"])

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate", "/tmp/x"])

    def test_cat_timestamps_flag(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["init", store, "--block-size", "256", "--capacity", "16"])
        main(["create", store, "/t"])
        main(["append", store, "/t", "stamped"])
        capsys.readouterr()
        main(["cat", store, "/t", "--timestamps"])
        out = capsys.readouterr().out
        assert out.startswith("[") and "stamped" in out

    def test_cat_since_us(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["init", store, "--block-size", "256", "--capacity", "64"])
        main(["create", store, "/t"])
        main(["append", store, "/t", "early"])
        # Learn the first entry's timestamp from --timestamps output.
        capsys.readouterr()
        main(["cat", store, "/t", "--timestamps"])
        first_ts = int(capsys.readouterr().out.split("]")[0][1:])
        main(["append", store, "/t", "late"])
        capsys.readouterr()
        main(["cat", store, "/t", "--since-us", str(first_ts + 1)])
        out = capsys.readouterr().out
        assert "late" in out and "early" not in out

    def test_parser_help_lists_all_commands(self, capsys):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--help"])
        out = capsys.readouterr().out
        for command in ("init", "create", "ls", "append", "cat", "info", "fsck", "volumes"):
            assert command in out


class TestArtifactVerbsRejectBadInput:
    """``campaign|workload report|diff`` read a file named on the command
    line: a missing file or another document's shape is an ``error:`` line
    and exit 1, never a traceback."""

    VERBS = (
        ("campaign", "report", 1),
        ("campaign", "diff", 2),
        ("workload", "report", 1),
        ("workload", "diff", 2),
    )

    def expect_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        # SystemExit(str): the interpreter prints it to stderr and exits 1.
        assert str(exit_info.value.code).startswith("error: ")
        return str(exit_info.value.code)

    @pytest.mark.parametrize("group,verb,files", VERBS)
    def test_missing_file(self, group, verb, files, tmp_path, capsys):
        argv = [group, verb] + [str(tmp_path / "nope.json")] * files
        assert "cannot read artifact" in self.expect_error(argv, capsys)

    @pytest.mark.parametrize("group,verb,files", VERBS)
    def test_wrong_shape_and_bad_json(self, group, verb, files, tmp_path, capsys):
        other = tmp_path / "other.json"
        # Each group is handed the *other* group's kind of document.
        other.write_text('{"run": {}}' if group == "campaign" else '{"matrix": []}')
        message = self.expect_error([group, verb] + [str(other)] * files, capsys)
        assert "not the expected artifact" in message
        for text in ("[1, 2]", "{not json"):
            other.write_text(text)
            self.expect_error([group, verb] + [str(other)] * files, capsys)


class TestAbsentLogIsNotAFailedService:
    """Only the catalog's "no such name" means "this store has no such
    log"; a service that cannot answer must not be read as absence."""

    def test_missing_log_is_none_but_a_dead_service_raises(self):
        from repro.cli import _log_payloads
        from repro.core import LogService
        from repro.core.service import ServiceCrashed

        service = LogService.create(block_size=256, volume_capacity_blocks=64)
        service.create_log_file("/alerts").append(b"one", force=True)
        assert _log_payloads(service, "/alerts") == [b"one"]
        assert _log_payloads(service, "/events") is None
        service.crash()
        with pytest.raises(ServiceCrashed):
            _log_payloads(service, "/events")

    def test_offline_volume_is_not_an_empty_history(self):
        from repro.cli import _log_payloads
        from repro.core import LogService
        from repro.worm import VolumeOfflineError

        service = LogService.create(
            block_size=512, volume_capacity_blocks=32, cache_capacity_blocks=8
        )
        log = service.create_log_file("/alerts")
        while len(service.devices) < 3:
            log.append(b"alert " * 40, force=True)
        service.take_volume_offline(0)
        service.store.cache.clear()
        with pytest.raises(VolumeOfflineError):
            _log_payloads(service, "/alerts")

    def test_events_and_traces_verbs_report_absence(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        main(["init", store, "--block-size", "256", "--capacity", "16"])
        assert main(["events", store, "--persisted"]) == 1
        assert "no persisted /events log" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exit_info:
            main(["why", store])
        assert "no /traces log" in str(exit_info.value.code)
        assert main(["health", store, "--show-log"]) == 0
