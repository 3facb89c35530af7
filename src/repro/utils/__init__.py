"""Shared utilities: RNG management, timing, table formatting."""

from repro.utils.rng import RngPool, as_generator, spawn_generators
from repro.utils.timer import Timer
from repro.utils.tables import format_table

__all__ = [
    "RngPool",
    "as_generator",
    "spawn_generators",
    "Timer",
    "format_table",
]
