"""Fixture-based tests: every lint rule fires on a known-bad snippet and
stays silent on a known-good one."""

import textwrap

from repro.lint.engine import run_lint
from tests.integration.test_obs_docs import metric_drift, span_drift


def lint(tmp_path, files, rule):
    """Write ``files`` (relpath -> source) under ``tmp_path``, lint the
    tree, and return only the findings for ``rule``."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    result = run_lint(tmp_path, [tmp_path])
    return [f for f in result.findings if f.rule == rule]


class TestSimTimePurity:
    def test_wall_clock_read_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                import time

                STARTED = time.time()
                """},
            "sim-time",
        )
        assert len(findings) == 1
        assert findings[0].line == 3
        assert "time.time" in findings[0].message

    def test_unseeded_random_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                import random

                RNG = random.Random()
                """},
            "sim-time",
        )
        assert len(findings) == 1

    def test_sim_clock_usage_is_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"mod.py": """\
                import random

                RNG = random.Random(0)


                def latency(clock):
                    clock.advance_ms(1.5)
                    return clock.now_ms
                """},
            "sim-time",
        )
        assert findings == []

    def test_clock_module_itself_is_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {"vsystem/clock.py": """\
                import time

                WALL = time.time()
                """},
            "sim-time",
        )
        assert findings == []

    def test_wallclock_module_is_no_longer_exempt(self, tmp_path):
        """obs/wallclock.py was the sanctioned wall-clock boundary until
        bench/ took over wall measurement from outside the package; a
        module of that name reading real time is flagged like any other."""
        findings = lint(
            tmp_path,
            {"obs/wallclock.py": """\
                import time


                class PerfWallClock:
                    def now_ns(self) -> int:
                        return time.perf_counter_ns()
                """},
            "sim-time",
        )
        assert len(findings) == 1
        assert "perf_counter_ns" in findings[0].message

    def test_perf_counter_outside_the_boundary_is_flagged(self, tmp_path):
        """The exemption is exact: vsystem/clock.py and nowhere else."""
        source = """\
            import time

            T0 = time.perf_counter_ns()
            """
        findings = lint(
            tmp_path,
            {
                "obs/tracing.py": source,
                "core/writer.py": source,
                "clock.py": source,  # bare name: not vsystem/clock.py
            },
            "sim-time",
        )
        assert len(findings) == 3
        assert all("perf_counter_ns" in f.message for f in findings)

    def test_perf_counter_import_outside_boundary_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"obs/profile.py": """\
                from time import perf_counter
                """},
            "sim-time",
        )
        assert len(findings) == 1
        assert "perf_counter" in findings[0].message


class TestWormEncapsulation:
    def test_foreign_private_access_is_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"app.py": """\
                def smash(device):
                    device._raw_overwrite(0, b"garbage")
                    return device._blocks
                """},
            "worm-encapsulation",
        )
        assert len(findings) == 2
        assert "_raw_overwrite" in findings[0].message

    def test_storage_hooks_and_image_state_are_private_too(self, tmp_path):
        findings = lint(
            tmp_path,
            {"app.py": """\
                def peek(device):
                    device._store(0, b"x")
                    device._states[0] = 1
                    device._host.pwrite(b"x", 0)
                    return device._has_block(0) and device._fetch(0)
                """},
            "worm-encapsulation",
        )
        assert sorted(f.message.split("'")[1] for f in findings) == [
            "device._fetch",
            "device._has_block",
            "device._host",
            "device._states",
            "device._store",
        ]

    def test_worm_package_and_own_attributes_are_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                # Fault injection inside repro/worm is legitimate.
                "worm/inject.py": """\
                    def corrupt(device):
                        device._raw_overwrite(0, b"x")
                    """,
                # A class's own private state is its own business.
                "app.py": """\
                    class Index:
                        def __init__(self):
                            self._blocks = {}

                        def get(self, k):
                            return self._blocks[k]
                    """,
            },
            "worm-encapsulation",
        )
        assert findings == []


class TestChargeDiscipline:
    def test_uncharged_primitive_and_caller_are_flagged(self, tmp_path):
        findings = lint(
            tmp_path,
            {"core/dev.py": """\
                class FlatDevice:
                    def __init__(self):
                        self._data = {}

                    def read_block(self, block):
                        return self._data[block]


                def scan(device):
                    return [device.read_block(i) for i in range(4)]
                """},
            "charge-discipline",
        )
        assert len(findings) == 2
        assert any("FlatDevice.read_block" in f.message for f in findings)
        assert any("'scan'" in f.message for f in findings)

    def test_charging_and_delegating_primitives_are_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {"core/dev.py": """\
                class Device:
                    def read_block(self, block):
                        self._charge(1)
                        return block


                class Mirror:
                    def __init__(self, inner):
                        self._inner = inner

                    def read_block(self, block):
                        return self._inner.read_block(block)
                """},
            "charge-discipline",
        )
        assert findings == []

    def test_abstract_declarations_are_exempt(self, tmp_path):
        findings = lint(
            tmp_path,
            {"worm/iface.py": """\
                import abc


                class BlockDevice(abc.ABC):
                    @abc.abstractmethod
                    def read_block(self, block):
                        "Read one block."

                    def write_block(self, block, data):
                        raise NotImplementedError
                """},
            "charge-discipline",
        )
        assert findings == []

    def test_outside_worm_and_core_is_out_of_scope(self, tmp_path):
        findings = lint(
            tmp_path,
            {"apps/reader.py": """\
                class Skimmer:
                    def read_block(self, block):
                        return block
                """},
            "charge-discipline",
        )
        assert findings == []


class TestEngineImports:
    def test_module_function_and_type_checking_imports_are_flagged(
        self, tmp_path
    ):
        findings = lint(
            tmp_path,
            {"repro/core/store.py": """\
                from typing import TYPE_CHECKING

                from repro.obs.events import NULL_JOURNAL
                from repro.vsystem.instrument import NULL_TRACER

                if TYPE_CHECKING:
                    from repro.obs.events import Event


                def attach(service):
                    from repro.obs import wiring

                    return wiring.attach_observability(service)
                """},
            "engine-imports",
        )
        assert [f.line for f in findings] == [3, 7, 11]
        assert all("repro.obs" in f.message for f in findings)

    def test_every_engine_package_and_tooling_target_is_covered(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                "repro/worm/a.py": "import repro.lint.engine\n",
                "repro/cache/b.py": "from repro import cli\n",
                "repro/vsystem/c.py": "from bench import trace\n",
                "repro/core/d.py": "from ..obs import tracing\n",
            },
            "engine-imports",
        )
        assert sorted(f.path for f in findings) == [
            "repro/cache/b.py",
            "repro/core/d.py",
            "repro/vsystem/c.py",
            "repro/worm/a.py",
        ]

    def test_load_point_and_tooling_side_are_clean(self, tmp_path):
        findings = lint(
            tmp_path,
            {
                # The one allowed reference: this file, this function, this
                # module.
                "repro/core/service.py": """\
                    class LogService:
                        def enable_observability(self):
                            from repro.obs.wiring import attach_observability

                            return attach_observability(self)
                    """,
                # Tooling may import the engine and itself freely.
                "repro/obs/wiring.py": """\
                    from repro.core.service import LogService
                    from repro.obs.events import EventJournal
                    """,
                "repro/apps/monitor.py": "from repro.obs import MetricsRegistry\n",
            },
            "engine-imports",
        )
        assert findings == []

    def test_load_point_allows_nothing_else(self, tmp_path):
        findings = lint(
            tmp_path,
            {"repro/core/service.py": """\
                class LogService:
                    def enable_observability(self):
                        from repro.obs.registry import MetricsRegistry

                        return MetricsRegistry()

                    def metrics(self):
                        from repro.obs.wiring import attach_observability

                        return attach_observability(self)
                """},
            "engine-imports",
        )
        assert [f.line for f in findings] == [3, 8]


# The metric and span drift checks run as the doc-sync test in
# tests/integration/test_obs_docs.py rather than as lint rules; these
# fixtures plant drift on each side of both catalogs.

_METRIC_DOC_OK = textwrap.dedent("""\
    ## Metric catalog

    | `clio_dev_reads_total` | device reads |
    | `clio_good_total` | a counter |

    ## Next section
    """)

_LIVE_OK = {"clio_dev_reads_total", "clio_good_total"}


class TestMetricsDrift:
    def test_synchronized_namespace_is_clean(self):
        assert metric_drift(_METRIC_DOC_OK, _LIVE_OK) == set()

    def test_registered_but_undocumented_is_flagged(self):
        live = _LIVE_OK - {"clio_good_total"} | {"clio_sneaky_total"}
        # The doc's now-stale clio_good_total row is the mirror error.
        assert metric_drift(_METRIC_DOC_OK, live) == {
            "clio_sneaky_total", "clio_good_total"
        }

    def test_documented_but_unregistered_is_flagged(self):
        doc = _METRIC_DOC_OK.replace(
            "## Next", "| `clio_ghost_total` | gone |\n\n## Next"
        )
        assert metric_drift(doc, _LIVE_OK) == {"clio_ghost_total"}


_SPAN_SRC_OK = """\
    def append(self, data):
        with self.tracer.span("append", size=len(data)):
            pass

    def force(self):
        with self.tracer.span("writer.force"):
            pass
    """

_SPAN_DOC_OK = textwrap.dedent("""\
    # Observability

    ### Span-name catalog

    | Span | Opened by |
    |---|---|
    | `append` | the service |
    | `writer.force` | the writer |

    ### Next section

    | `unrelated.table` | rows outside the catalog are ignored |
    """)


class TestSpanDrift:
    def test_synchronized_catalog_is_clean(self):
        assert span_drift(_SPAN_DOC_OK, [_SPAN_SRC_OK]) == set()

    def test_opened_but_undeclared_is_flagged(self):
        source = _SPAN_SRC_OK.replace('"append"', '"append.sneaky"')
        # The catalog's now-stale `append` row is the mirror error.
        assert span_drift(_SPAN_DOC_OK, [source]) == {
            '"append.sneaky"', '"append"'
        }

    def test_declared_but_never_opened_is_flagged(self):
        doc = _SPAN_DOC_OK.replace(
            "| `append` | the service |",
            "| `append` | the service |\n| `ghost.span` | nobody |",
        )
        assert span_drift(doc, [_SPAN_SRC_OK]) == {'"ghost.span"'}

    def test_rows_outside_catalog_section_are_ignored(self):
        # `unrelated.table` sits under "Next section", not the catalog, so
        # it is neither declared nor required to be opened.
        assert '"unrelated.table"' not in span_drift(
            _SPAN_DOC_OK, [_SPAN_SRC_OK]
        )
        moved = _SPAN_DOC_OK.replace("### Next section\n", "")
        assert span_drift(moved, [_SPAN_SRC_OK]) == {'"unrelated.table"'}

    def test_non_literal_span_name_is_flagged(self):
        dynamic = """\
    def dynamic(self, name):
        with self.tracer.span(name):
            pass
    """
        assert span_drift(_SPAN_DOC_OK, [_SPAN_SRC_OK, dynamic]) == {"n"}
