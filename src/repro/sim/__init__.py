"""Discrete-event simulation kernel and building blocks.

The kernel (:mod:`repro.sim.engine`) is unit-agnostic; by library
convention all simulations run in nanoseconds.
"""

from .channel import Channel, Resource
from .engine import (
    LOW,
    NORMAL,
    URGENT,
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
)
from .fifo import DualClockFifo, FifoStats
from .stats import Counter, Histogram, RunningStats, TimeWeightedStat

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "AllOf",
    "URGENT",
    "NORMAL",
    "LOW",
    "Channel",
    "Resource",
    "DualClockFifo",
    "FifoStats",
    "RunningStats",
    "TimeWeightedStat",
    "Counter",
    "Histogram",
]
