"""The speed-calibration kernel.

A fixed amount of pure-Python work — ``struct.pack_into`` / ``unpack_from``
over a small buffer plus dict updates, the same kind of interpreter work
Clio's hot paths do — timed around every measured segment.  The ratio of
its time to :data:`CAL_REF_NS` is the machine's speed *right now*; the
harness divides each timing by the speed of the segment it was taken in,
so reported times are "at reference machine speed" and a slow spell on a
shared box does not read as a slow program.

This module must import nothing from ``repro``: the kernel has to stay
the same piece of work whatever happens to the program under test.
"""

from __future__ import annotations

import struct
from typing import Callable

__all__ = ["CAL_REF_NS", "KERNEL_ROUNDS", "run_kernel", "time_kernel"]

#: Kernel time on the reference machine (the box the benchmark was defined
#: on, median of 2000 runs).  Committed once: changing it rescales every
#: reported time, so it changes only together with a fresh baseline.
CAL_REF_NS = 5_000_000

#: Loop iterations per kernel run; fixes the amount of work.
KERNEL_ROUNDS = 10_000

_RECORD = struct.Struct(">HQI")
_BUFFER_SIZE = 1024
_SLOTS = _BUFFER_SIZE // _RECORD.size


def run_kernel() -> int:
    """Do the fixed work once; returns a checksum so nothing is elided."""
    buffer = bytearray(_BUFFER_SIZE)
    table: dict[int, int] = {}
    pack_into = _RECORD.pack_into
    unpack_from = _RECORD.unpack_from
    size = _RECORD.size
    total = 0
    for i in range(KERNEL_ROUNDS):
        offset = (i % _SLOTS) * size
        pack_into(buffer, offset, i & 0xFFFF, i * 2654435761, i & 0xFFFFFFFF)
        first, second, third = unpack_from(buffer, offset)
        key = second & 0xFF
        table[key] = table.get(key, 0) + first + third
        total += table[key] & 0xFF
    return total


def time_kernel(clock: Callable[[], int]) -> int:
    """Nanoseconds one kernel run takes on ``clock``."""
    start = clock()
    run_kernel()
    return clock() - start
