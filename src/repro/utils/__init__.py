"""Shared utilities: RNG management, table formatting."""

from repro.utils.rng import as_generator, spawn_generators
from repro.utils.tables import format_table

__all__ = [
    "as_generator",
    "spawn_generators",
    "format_table",
]
