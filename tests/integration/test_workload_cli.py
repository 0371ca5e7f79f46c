"""Integration tests for ``clio workload run`` and ``clio workload index``."""

import json

import pytest

from repro.cli import main


@pytest.fixture(scope="module")
def smoke_artifact(tmp_path_factory):
    """One registered smoke run: (artifact path, runs dir)."""
    root = tmp_path_factory.mktemp("workload-cli")
    out = root / "smoke.json"
    runs = root / "runs"
    code = main(
        [
            "workload",
            "run",
            "--profile",
            "smoke",
            "--out",
            str(out),
            "--register",
            str(runs),
        ]
    )
    assert code == 0
    return out, runs


class TestWorkloadRun:
    def test_run_prints_one_summary_line(self, capsys):
        assert main(["workload", "run", "--profile", "smoke"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == [
            "workload run: smoke-s1987 profile=smoke seed=1987 ops=368 "
            "sim_days=0.0044 passed=True"
        ]

    def test_check_determinism_passes(self, capsys):
        code = main(
            ["workload", "run", "--profile", "smoke", "--check-determinism"]
        )
        assert code == 0
        assert "byte-identical" in capsys.readouterr().out

    def test_unknown_profile_is_a_usage_error(self, capsys):
        assert main(["workload", "run", "--profile", "decade"]) == 1
        assert "unknown profile" in capsys.readouterr().err

    def test_under_load_campaign_reports_coverage(self, tmp_path, capsys):
        out_path = tmp_path / "smoke.json"
        code = main(
            [
                "workload",
                "run",
                "--profile",
                "smoke",
                "--campaign",
                "small",
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        assert "smoke-s1987-small" in capsys.readouterr().out
        campaign = json.loads(out_path.read_text())["campaign"]
        assert campaign["menu"] == "small"
        assert campaign["coverage"] == 1.0


class TestWorkloadIndex:
    def test_index_lists_registered_runs(self, smoke_artifact, capsys):
        _out, runs = smoke_artifact
        assert main(["workload", "index", str(runs)]) == 0
        assert "1 run(s)" in capsys.readouterr().out

    def test_index_verify_passes_on_sound_catalog(
        self, smoke_artifact, capsys
    ):
        _out, runs = smoke_artifact
        assert main(["workload", "index", str(runs)]) == 0
        assert "all digests match" in capsys.readouterr().out

    def test_index_verify_fails_on_tampered_artifact(
        self, smoke_artifact, capsys
    ):
        _out, runs = smoke_artifact
        artifact = next(runs.glob("smoke-*.json"))
        artifact.write_text(artifact.read_text() + " ")
        code = main(["workload", "index", str(runs)])
        assert code == 2
        assert "sha256 mismatch" in capsys.readouterr().err
        # Restore for other tests sharing the module-scoped fixture.
        artifact.write_text(artifact.read_text()[:-1])

    def test_index_on_empty_directory(self, tmp_path, capsys):
        # Nothing to check is a failure, not a pass.
        assert main(["workload", "index", str(tmp_path)]) == 2
        assert "INDEX.csv missing" in capsys.readouterr().err

    def test_index_on_missing_directory(self, tmp_path, capsys):
        assert main(["workload", "index", str(tmp_path / "nowhere")]) == 2
        assert "catalog directory missing" in capsys.readouterr().err

    def test_index_flags_orphan_artifact(self, smoke_artifact, capsys):
        _out, runs = smoke_artifact
        orphan = runs / "stray-run.json"
        orphan.write_text("{}")
        try:
            assert main(["workload", "index", str(runs)]) == 2
            assert "stray-run.json: artifact has no INDEX.csv row" in (
                capsys.readouterr().err
            )
        finally:
            orphan.unlink()
