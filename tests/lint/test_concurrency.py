"""Fixture tests for the deterministic-iteration rule
(``repro.lint.rules.iteration``).  They arrived with an earlier
concurrency analyzer and outlived it; the file keeps its name so the test
ids stay stable."""

import textwrap

from repro.lint.engine import run_lint


def write_tree(tmp_path, files):
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))


def lint(tmp_path, files, rule):
    write_tree(tmp_path, files)
    result = run_lint(tmp_path, [tmp_path])
    return [f for f in result.findings if f.rule == rule]


class TestDeterministicIterationRule:
    def test_for_over_set_parameter_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                __all__ = ["emit"]


                def emit(ids: set[int]) -> list[int]:
                    out = []
                    for logfile_id in ids:
                        out.append(logfile_id)
                    return out
                """},
            "deterministic-iteration",
        )
        assert len(findings) == 1
        assert "sorted" in findings[0].message

    def test_sorted_wrapping_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                __all__ = ["emit"]


                def emit(ids: set[int]) -> list[int]:
                    return [logfile_id for logfile_id in sorted(ids)]
                """},
            "deterministic-iteration",
        )
        assert findings == []

    def test_set_literal_comprehension_and_list_call_are_flagged(
        self, tmp_path
    ):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                __all__ = ["NAMES", "pairs"]

                NAMES = list({"a", "b"})


                def pairs() -> list[tuple[str, str]]:
                    return [(x, x) for x in {"c", "d"}]
                """},
            "deterministic-iteration",
        )
        assert len(findings) == 2

    def test_self_attribute_set_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                __all__ = ["Registry"]


                class Registry:
                    def __init__(self) -> None:
                        self.members = set()

                    def names(self) -> str:
                        return ",".join(self.members)
                """},
            "deterministic-iteration",
        )
        assert len(findings) == 1

    def test_dict_iteration_and_membership_are_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                __all__ = ["keys", "has"]


                def keys(mapping: dict[str, int]) -> list[str]:
                    return [key for key in mapping]


                def has(ids: set[int], probe: int) -> bool:
                    return probe in ids and len(ids) > 0
                """},
            "deterministic-iteration",
        )
        assert findings == []
