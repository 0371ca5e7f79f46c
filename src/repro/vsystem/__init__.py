"""Simulated V-System environment: clock, cost model, IPC."""

from repro.vsystem.clock import SimClock, SkewedClock
from repro.vsystem.costs import SUN3, CostModel

__all__ = [
    "SimClock",
    "SkewedClock",
    "CostModel",
    "SUN3",
]
