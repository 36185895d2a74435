"""Shared utilities: seeded RNG streams, interval sets, unit helpers."""

from repro.util.intervals import IntervalSet
from repro.util.rng import RngRegistry
from repro.util.units import GBPS, MBPS, MS, ms

__all__ = [
    "IntervalSet",
    "RngRegistry",
    "GBPS",
    "MBPS",
    "MS",
    "ms",
]
