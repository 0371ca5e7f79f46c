"""The calibration kernel stands apart from the program, and scaling by it
cancels a machine that is uniformly slower."""

import ast
import os
import subprocess
import sys

import pytest

import bench.kernel
from bench.harness import Sizes, run

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_kernel_imports_nothing_from_the_program():
    with open(bench.kernel.__file__) as handle:
        tree = ast.parse(handle.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not [name for name in imported if name.split(".")[0] == "repro"]
    # And importing it does not pull the program in by another road.
    probe = (
        "import sys, bench.kernel; "
        "sys.exit(any(m.split('.')[0] == 'repro' for m in sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        cwd=_ROOT,
        env=dict(os.environ, PYTHONPATH=os.path.join(_ROOT, "src")),
    )
    assert done.returncode == 0


class FakeClock:
    """Every reading is ``step`` ns after the last: a machine on which
    the kernel and every operation alike take ``step`` times as long."""

    def __init__(self, step: int) -> None:
        self.step = step
        self.now = 0

    def __call__(self) -> int:
        self.now += self.step
        return self.now


#: What a uniformly slower machine may move: the unscaled values, the
#: speed itself, and the process's real memory (not a timing at all).
def _may_move(name: str) -> bool:
    return name.startswith("raw.") or name in {
        "cal.speed_p50", "cal.speed_iqr", "peak_rss_mb",
    }


@pytest.mark.parametrize("trace", [False, True])
def test_uniform_slowdown_moves_only_raw_and_speed(trace):
    slow_by = 3
    sizes = Sizes.smoke(trace)
    base = run("tail-follow", 5, 1, trace, sizes=sizes, clock=FakeClock(1000))
    slow = run("tail-follow", 5, 1, trace, sizes=sizes, clock=FakeClock(1000 * slow_by))
    assert base.correct and slow.correct
    assert base.counts == slow.counts

    for name, (value, _unit) in base.metrics.items():
        slowed = slow.metrics[name][0]
        if not _may_move(name):
            assert slowed == pytest.approx(value), name
        elif name.endswith("_per_s"):
            assert slowed == pytest.approx(value / slow_by), name
        elif name.startswith("raw.") or name == "cal.speed_p50":
            assert slowed == pytest.approx(value * slow_by), name
