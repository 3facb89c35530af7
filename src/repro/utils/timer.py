"""Lightweight timing helpers used by the benchmark harnesses."""

from __future__ import annotations

import time

__all__ = ["Timer"]


class Timer:
    """Context manager measuring wall-clock time of a block.

    Examples
    --------
    >>> with Timer() as t:
    ...     _ = sum(range(1000))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.elapsed: float = 0.0
        self._start: float | None = None

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        assert self._start is not None
        self.elapsed = time.perf_counter() - self._start
        self._start = None
