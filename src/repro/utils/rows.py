"""Exact grouping of a batch's repeated rows.

Draws from a concentrated ``|ψ|²`` repeat, and every quantity the step
computes per row — ``log ψ``, a local energy, a row of ``O`` or of the Gram
matrix — is a function of that row alone. :func:`distinct_rows` finds the
distinct rows once, so those quantities are evaluated on them and
scattered back through the inverse index (``value[first][inverse]`` has
one entry per row), and a batch sum weighted per row becomes a sum over
the distinct rows weighted by :meth:`DistinctRows.sums`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["DistinctRows", "distinct_rows", "every_row"]


class DistinctRows(NamedTuple):
    """The distinct rows of a batch of ``B``."""

    #: (U,) index of each distinct row's first occurrence
    first: np.ndarray
    #: (B,) position in ``first`` of each row's distinct row
    inverse: np.ndarray

    @property
    def count(self) -> int:
        """``U``, the number of distinct rows."""
        return int(self.first.size)

    @property
    def repeats(self) -> bool:
        """Whether any row occurs more than once (``U < B``)."""
        return self.first.size < self.inverse.size

    @property
    def counts(self) -> np.ndarray:
        """(U,) how many rows each distinct row stands for."""
        return np.bincount(self.inverse, minlength=self.count)

    def sums(self, values: np.ndarray) -> np.ndarray:
        """(U,) the sum of a per-row ``values`` (B,) over each distinct row's
        copies: what a batch sum weighted by ``values`` puts on that row."""
        return np.bincount(self.inverse, weights=values, minlength=self.count)

    def apply(self, fn, *arrays):
        """``fn`` on the distinct rows of ``arrays`` (a ``None`` passes
        through), its result — one row per distinct row — scattered back to
        every row; ``fn(*arrays)`` as given when no row repeats."""
        if not self.repeats:
            return fn(*arrays)
        return fn(*(a if a is None else a[self.first] for a in arrays))[self.inverse]


def every_row(size: int) -> DistinctRows:
    """The grouping of ``size`` rows that are all distinct: each its own row."""
    index = np.arange(size)
    return DistinctRows(index, index)


def _multipliers(width: int) -> np.ndarray:
    """Odd 64-bit weights of a row's words in its hash."""
    return np.arange(1, 2 * width, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)


def distinct_rows(rows: np.ndarray) -> DistinctRows:
    """Group the rows of a 2-D array exactly: two rows are one when their
    bytes are. A boolean array is packed to bits first, so a row of ``n``
    flags is an ``⌈n/8⌉``-byte key.

    Rows are grouped by a hash of their 64-bit words, then every row is
    compared word for word with its group's first row; a hash collision
    falls back to sorting the rows' bytes. Sorting alone is what that
    fallback costs every time — on the Gram matrix's wide factor rows,
    whose repeats compare equal over their whole length, 2–2.5× the hash.
    """
    rows = np.asarray(rows)
    if rows.dtype == bool:
        rows = np.packbits(rows, axis=1)
    rows = np.ascontiguousarray(rows)
    raw = rows.view(np.uint8).reshape(rows.shape[0], rows.shape[1] * rows.itemsize)
    if raw.shape[1] % 8:  # zero-fill to whole words
        padded = np.zeros((raw.shape[0], raw.shape[1] + (-raw.shape[1] % 8)), np.uint8)
        padded[:, : raw.shape[1]] = raw
        raw = padded
    words = raw.view(np.uint64)
    keys = (words * _multipliers(words.shape[1])).sum(axis=1)
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    if first.size < len(words) and not np.array_equal(words[first][inverse], words):
        keys = raw.view(np.dtype((np.void, raw.shape[1]))).ravel()
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return DistinctRows(first, inverse.reshape(-1))
