"""Figure 4 — average cost of reconstructing entrymap information.

Paper: rebuilding the in-memory entrymap accumulators after a crash
examines, on average, n = (N·log_N b)/2 blocks, where b is the number of
blocks written so far — and unlike the locate cost, this *increases* with
N ("although a larger value of N increases the scope of entrymap log
entries, it also increases the separation between them").

The bench runs the real recovery path: fill a volume to b blocks, crash,
mount, and read the per-volume ``blocks_examined`` from the recovery
report.  (A single measurement is N·(fractional parts)/… — the paper's
curve is an average over tail positions, so we average over several b
values around each target.)
"""

import math

import pytest

from repro.analysis import expected_blocks_examined
from repro.core import LogService

from _support import advance_to_block, bench_record, make_service, print_table

DEGREES = [4, 8, 16]
SIZES = [100, 400, 1600, 4000]


def measure_recovery(degree: int, blocks: int, jitter: int) -> int:
    service = make_service(
        block_size=512,
        degree_n=degree,
        volume_capacity_blocks=2 * blocks + 64,
        cache_capacity_blocks=2 * blocks + 64,
    )
    log = service.create_log_file("/app")
    filler = service.create_log_file("/filler")
    log.append(b"seed", force=True)
    advance_to_block(service, filler, blocks + jitter)
    remains = service.crash()
    _mounted, report = LogService.mount(remains.devices, remains.nvram)
    return report.volumes[0].blocks_examined


@pytest.fixture(scope="module")
def curves():
    results: dict[int, list[tuple[int, float]]] = {}
    for degree in DEGREES:
        points = []
        for blocks in SIZES:
            samples = []
            for jitter in (0, degree // 2, degree - 1):
                samples.append(measure_recovery(degree, blocks, jitter))
            points.append((blocks, sum(samples) / len(samples)))
        results[degree] = points
    bench_record(
        "fig4",
        {
            str(degree): [[b, avg] for b, avg in results[degree]]
            for degree in DEGREES
        },
    )
    return results


class TestFigure4:
    def test_matches_model_shape(self, curves):
        rows = []
        for degree in DEGREES:
            for blocks, measured in curves[degree]:
                theory = expected_blocks_examined(blocks, degree)
                rows.append([degree, blocks, f"{measured:.1f}", f"{theory:.1f}"])
                # Between roughly half and twice the average-case model
                # (a single volume's tail position adds variance).
                assert measured <= 2.5 * theory + degree, (degree, blocks)
                assert measured >= 0.25 * theory, (degree, blocks)
        print_table(
            "Figure 4: blocks examined to reconstruct entrymap information",
            ["N", "b (blocks written)", "measured", "theory N*log_N(b)/2"],
            rows,
        )

    def test_cost_increases_with_degree(self, curves):
        """Figure 4's headline: reconstruction cost grows with N."""
        b = SIZES[-1]
        cost = {
            degree: dict(curves[degree])[b] for degree in DEGREES
        }
        assert cost[16] > cost[4]

    def test_cost_grows_slowly_with_volume_size(self, curves):
        """Logarithmic in b: 40x more blocks adds only ~N more examinations
        per level crossed."""
        for degree in DEGREES:
            points = dict(curves[degree])
            growth = points[SIZES[-1]] - points[SIZES[0]]
            levels_crossed = math.log(SIZES[-1] / SIZES[0], degree)
            assert growth <= degree * (levels_crossed + 2)

    def test_recovery_wallclock(self, benchmark):
        service = make_service(block_size=512, degree_n=16)
        log = service.create_log_file("/app")
        filler = service.create_log_file("/filler")
        log.append(b"seed", force=True)
        advance_to_block(service, filler, 1000)
        remains = service.crash()

        def mount():
            mounted, report = LogService.mount(remains.devices, remains.nvram)
            return report

        benchmark.pedantic(mount, iterations=1, rounds=5)
