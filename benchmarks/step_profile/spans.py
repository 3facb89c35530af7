"""Benchmark-owned spans: layers are timed from outside the program.

A :class:`SpanLog` records ``{name, start_ns, end_ns, parent, step_id,
rank}`` around each call the benchmark makes into a public entry point of
``repro``. Spans stay in memory and are written out once, when the run
ends. The program's own ``Tracer`` spans and ``WallClock`` are deliberately
not read: open ROADMAP items will move them, and a ledger that moved with
them could not judge those changes.

A layer's *self time* is its span minus the part its child spans cover
(``sr.solve`` minus the ``comm.allreduce`` calls nested inside it).
"""

from __future__ import annotations

import time
from collections import defaultdict

__all__ = ["SpanLog", "TimedComm", "self_times"]

# tuple layout of one recorded span
NAME, START, END, PARENT, STEP = range(5)


class _Span:
    __slots__ = ("log", "name", "index")

    def __init__(self, log: "SpanLog", name: str):
        self.log = log
        self.name = name

    def __enter__(self):
        log = self.log
        self.index = len(log.spans)
        parent = log._stack[-1] if log._stack else -1
        log.spans.append([self.name, 0, 0, parent, log.step_id])
        log._stack.append(self.index)
        log.spans[self.index][START] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        log = self.log
        log.spans[self.index][END] = end
        log._stack.pop()
        return False


class SpanLog:
    """In-memory span recorder for one rank (not thread-safe)."""

    def __init__(self, rank: int = 0):
        self.rank = rank
        self.spans: list[list] = []
        self.step_id = -1
        self._stack: list[int] = []

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s[NAME],
                "start_ns": s[START],
                "end_ns": s[END],
                "parent": s[PARENT],
                "step_id": s[STEP],
                "rank": self.rank,
            }
            for s in self.spans
        ]


def self_times(log: SpanLog) -> tuple[dict[int, dict[str, float]], dict[int, dict[str, int]]]:
    """Per step id: seconds of self time and number of calls, by span name."""
    covered = [0] * len(log.spans)
    for s in log.spans:
        if s[PARENT] >= 0:
            covered[s[PARENT]] += s[END] - s[START]
    seconds: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    calls: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for s, child_ns in zip(log.spans, covered):
        seconds[s[STEP]][s[NAME]] += (s[END] - s[START] - child_ns) * 1e-9
        calls[s[STEP]][s[NAME]] += 1
    return seconds, calls


class TimedComm:
    """Delegating communicator that records a span around each allreduce,
    the one collective a training step issues.

    Everything else (``size``, ``rank``, ``stats``, ``broadcast``,
    point-to-point) passes through to the wrapped backend, so ``CommStats``
    keeps the exact counts. The span covers busy time *and* the wait for
    the peer: from outside they cannot be told apart, and both block the
    step.
    """

    def __init__(self, comm, log: SpanLog):
        self._comm = comm
        self._log = log

    def __getattr__(self, name):
        return getattr(self._comm, name)

    def allreduce(self, array, op: str = "sum"):
        with self._log.span("comm.allreduce"):
            return self._comm.allreduce(array, op=op)
