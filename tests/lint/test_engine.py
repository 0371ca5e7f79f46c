"""Engine behavior: discovery and parse errors."""

import textwrap

from repro.lint.engine import PARSE_ERROR_RULE, discover_files, run_lint


def write(tmp_path, relpath, source):
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestDiscovery:
    def test_skips_pycache_and_accepts_explicit_files(self, tmp_path):
        keep = write(tmp_path, "pkg/mod.py", "X = 1\n")
        write(tmp_path, "pkg/__pycache__/mod.cpython-311.py", "X = 1\n")
        assert discover_files([tmp_path]) == [keep.resolve()]
        assert discover_files([keep]) == [keep.resolve()]


class TestParseError:
    def test_unparseable_file_yields_a_parse_error_finding(self, tmp_path):
        write(tmp_path, "broken.py", "def oops(:\n")
        result = run_lint(tmp_path, [tmp_path])
        assert [f.rule for f in result.findings] == [PARSE_ERROR_RULE]
        assert "does not parse" in result.findings[0].message

    def test_undecodable_and_nul_byte_files_become_findings(self, tmp_path):
        good = write(
            tmp_path,
            "good.py",
            """\
            import time

            T = time.time()
            """,
        )
        (tmp_path / "latin.py").write_bytes(b"name = '\xe9'\n")
        (tmp_path / "nul.py").write_bytes(b"x = 1\x00\n")
        result = run_lint(tmp_path, [tmp_path])
        assert result.files_checked == 3
        parse_errors = {
            f.path: f.message
            for f in result.findings
            if f.rule == PARSE_ERROR_RULE
        }
        assert set(parse_errors) == {"latin.py", "nul.py"}
        assert "cannot be read as Python source" in parse_errors["latin.py"]
        # NUL bytes surface as SyntaxError on current CPython, ValueError
        # on older ones; either way the run reports, not crashes.
        assert "null bytes" in parse_errors["nul.py"]
        # The run kept going: the decodable file was still linted.
        assert any(
            f.rule == "sim-time" and f.path == "good.py"
            for f in result.findings
        ), good
