"""Device timing models.

The paper reasons about read performance in terms of a small number of
constants: an average seek of ~150 ms for write-once optical disk (Section
3.3.2, citing Bell [2]), ~30 ms for a magnetic-disk cache tier and ~1 ms for
a RAM cache tier per kilobyte retrieved (Section 4), and ~0.6 ms to access
and interpret a single cached disk block on a Sun-3.

:class:`DeviceGeometry` captures those constants so the simulator can charge
simulated time for every block operation.  The *shape* results in the paper
(who wins, where crossovers fall) are all ratios of these constants, so a
parametric model reproduces them faithfully; absolute values default to the
paper's own numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "DeviceGeometry",
    "OPTICAL_DISK",
    "MAGNETIC_DISK",
    "RAM_DISK",
    "NULL_GEOMETRY",
]


@dataclass(frozen=True, slots=True)
class DeviceGeometry:
    """Timing model for a block device.

    All times are in milliseconds.  A block operation on block ``b`` with the
    head currently at ``h`` is charged::

        seek(|b - h|) + rotational_latency_ms + transfer_ms_per_block

    where ``seek(0) = settle_ms`` (track-to-track / same-position cost) and a
    full-stroke seek costs ``max_seek_ms``.  Seek time scales with the square
    root of distance, the usual first-order model for a mechanical actuator;
    for a uniform random workload the average charged seek then comes out
    near ``avg_seek_ms``, which is the constant the paper quotes.
    """

    name: str
    avg_seek_ms: float
    max_seek_ms: float
    settle_ms: float
    rotational_latency_ms: float
    transfer_ms_per_block: float
    #: Nominal number of blocks across the full seek stroke, used to
    #: normalise seek distance.  Purely a modelling constant.
    stroke_blocks: int = 1_000_000

    def __post_init__(self) -> None:
        if self.max_seek_ms < 0:
            raise ValueError(f"max_seek_ms must be >= 0, got {self.max_seek_ms}")

    def seek_ms(self, from_block: int, to_block: int) -> float:
        """Seek cost between two block addresses.

        Square-root-of-distance model, calibrated so that the mean over
        uniformly random (from, to) pairs approximates ``avg_seek_ms``:
        the mean of sqrt(|u - v|) for u, v uniform on [0, 1] is 8/15, so we
        scale by (15/8)·avg_seek.
        """
        if from_block == to_block or self.avg_seek_ms == 0.0:
            # No seek component (RAM, null geometry): with max_seek_ms >= 0
            # the formula below adds exactly 0.0.
            return self.settle_ms
        distance = abs(to_block - from_block)
        frac = min(1.0, distance / max(1, self.stroke_blocks))
        scaled = (15.0 / 8.0) * self.avg_seek_ms * frac**0.5
        return self.settle_ms + min(self.max_seek_ms, scaled)

    def access_ms(self, from_block: int, to_block: int) -> float:
        """Total cost of one block read/write including seek and transfer."""
        return (
            self.seek_ms(from_block, to_block)
            + self.rotational_latency_ms
            + self.transfer_ms_per_block
        )

    def bulk_access_ms(self, from_block: int, start_block: int, count: int) -> float:
        """Cost of one multi-block transfer: a single seek to ``start_block``
        plus ``count`` sequential block transfers.

        This is the timing model behind read-ahead: consecutive blocks lie
        on the same or adjacent tracks, so the head pays the positioning
        cost once and then streams.
        """
        if count <= 0:
            return 0.0
        return (
            self.seek_ms(from_block, start_block)
            + self.rotational_latency_ms
            + self.transfer_ms_per_block * count
        )


#: Write-once optical disk (Section 3.3.2: "a typical average seek time for
#: an optical disk drive is ~150 ms").  1 GB-class 12" media.
OPTICAL_DISK = DeviceGeometry(
    name="optical-worm",
    avg_seek_ms=150.0,
    max_seek_ms=500.0,
    settle_ms=5.0,
    rotational_latency_ms=8.3,
    transfer_ms_per_block=2.0,
)

#: Conventional magnetic disk of the era (Section 4's 30 ms/KB retrieval).
MAGNETIC_DISK = DeviceGeometry(
    name="magnetic",
    avg_seek_ms=28.0,
    max_seek_ms=60.0,
    settle_ms=2.0,
    rotational_latency_ms=8.3,
    transfer_ms_per_block=1.0,
)

#: RAM-backed tier (Section 4's 1 ms/KB retrieval).
RAM_DISK = DeviceGeometry(
    name="ram",
    avg_seek_ms=0.0,
    max_seek_ms=0.0,
    settle_ms=0.0,
    rotational_latency_ms=0.0,
    transfer_ms_per_block=1.0,
)

#: Free storage — used by unit tests that only care about op counts.
NULL_GEOMETRY = DeviceGeometry(
    name="null",
    avg_seek_ms=0.0,
    max_seek_ms=0.0,
    settle_ms=0.0,
    rotational_latency_ms=0.0,
    transfer_ms_per_block=0.0,
)
