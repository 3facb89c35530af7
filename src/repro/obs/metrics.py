"""Counters, gauges and fixed-bucket histograms with mergeable snapshots.

The tracer (:mod:`repro.obs.tracer`) answers "where did the time go";
metrics answer "how often / how much" — retries, bytes moved, fast-path
hits, local-energy batch latencies. The design constraints mirror the
tracer's:

- ``inc``/``set``/``observe`` are cheap enough for hot paths (attribute
  bumps, one bisect for histograms — no allocation), and ``inc`` /
  ``observe`` are atomic: the job server bumps one counter from many HTTP
  handler threads, and an unlocked ``+=`` loses counts whenever a thread
  switch lands between its read and its write;
- snapshots are plain dicts, JSON-ready, and **merge associatively**:
  ``merge(merge(a, b), c) == merge(a, merge(b, c))`` for any grouping, so
  per-rank snapshots can be folded in any order (tree reductions included)
  into one cross-rank report. Counters and histograms add; gauges take the
  max (the only associative+commutative choice that keeps "worst rank"
  semantics without carrying rank identity).

Histograms use *fixed* bucket boundaries chosen at registration — two
snapshots merge only if their boundaries agree, which is exactly the
property that makes cross-rank merging exact instead of approximate.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metrics",
    "merge_snapshots",
    "DEFAULT_BUCKETS",
]

#: default histogram boundaries: exponential seconds-scale latency grid
DEFAULT_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0, 10.0,
)


#: serialises every read-modify-write below; one lock for all instruments
#: (a bump holds it for an attribute update), so instruments stay plain
#: picklable slot objects.
_UPDATE = threading.Lock()


class Counter:
    """Monotonically increasing count (events, bytes, retries)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only increase, got {amount}")
        with _UPDATE:
            self.value += amount


class Gauge:
    """Last-written level (queue depth, world size, buffer occupancy)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-boundary histogram: counts per bucket plus sum/count/max.

    ``boundaries`` are upper edges; values above the last edge land in the
    overflow bucket, so there are ``len(boundaries) + 1`` counts. The
    observed maximum is tracked so the overflow bucket has a finite upper
    edge for quantile estimates.
    """

    __slots__ = ("boundaries", "counts", "sum", "count", "max")

    def __init__(self, boundaries=DEFAULT_BUCKETS):
        edges = tuple(float(b) for b in boundaries)
        if not edges or any(hi <= lo for lo, hi in zip(edges, edges[1:])):
            raise ValueError(f"boundaries must be strictly increasing, got {edges}")
        self.boundaries = edges
        self.counts = [0] * (len(edges) + 1)
        self.sum = 0.0
        self.count = 0
        self.max: float | None = None

    def observe(self, value: float) -> None:
        value = float(value)
        bucket = bisect_right(self.boundaries, value)
        with _UPDATE:
            self.counts[bucket] += 1
            self.sum += value
            self.count += 1
            if self.max is None or value > self.max:
                self.max = value

    def quantile(self, q: float) -> float:
        """Upper-edge estimate of the ``q``-quantile (conservative).

        Within the finite buckets this returns the bucket's upper edge.
        A quantile landing in the terminal overflow bucket interpolates
        linearly between the last finite edge and the observed maximum
        (instead of collapsing to the last edge or blowing up to +inf),
        so tail quantiles of long-tailed latencies stay informative.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        if self.count == 0:
            return float("nan")
        target = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= target:
                if i < len(self.boundaries):
                    return self.boundaries[i]
                last = self.boundaries[-1]
                top = self.max if self.max is not None and self.max > last else last
                if c == 0:
                    return top
                within = (target - (seen - c)) / c
                return last + within * (top - last)
        return float("inf")  # unreachable: seen == count >= target at the end


class Metrics:
    """Named registry of counters/gauges/histograms for one rank.

    Instruments are get-or-create by name; re-requesting a name with a
    different kind (or different histogram boundaries) raises, because the
    merge contract depends on structural agreement across ranks.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- registration -------------------------------------------------------------

    def _check_unique(self, name: str, kind: str) -> None:
        owners = {
            "counter": self._counters,
            "gauge": self._gauges,
            "histogram": self._histograms,
        }
        for other, table in owners.items():
            if other != kind and name in table:
                raise ValueError(f"{name!r} is already registered as a {other}")

    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            self._check_unique(name, "counter")
            c = self._counters.setdefault(name, Counter())
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            self._check_unique(name, "gauge")
            g = self._gauges.setdefault(name, Gauge())
        return g

    def histogram(self, name: str, boundaries=DEFAULT_BUCKETS) -> Histogram:
        h = self._histograms.get(name)
        if h is None:
            self._check_unique(name, "histogram")
            h = self._histograms.setdefault(name, Histogram(boundaries))
        elif h.boundaries != tuple(float(b) for b in boundaries):
            raise ValueError(
                f"histogram {name!r} already registered with boundaries "
                f"{h.boundaries}"
            )
        return h

    # -- hot-path conveniences ----------------------------------------------------

    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- snapshots ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (JSON-ready, mergeable)."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: {
                    "boundaries": list(h.boundaries),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                    "max": h.max,
                }
                for n, h in sorted(self._histograms.items())
            },
        }


def merge_snapshots(a: dict, b: dict) -> dict:
    """Merge two :meth:`Metrics.snapshot` dicts (associative, commutative).

    Counters and histogram bins add; gauges take the max. Histograms with
    the same name must share boundaries (raises ``ValueError`` otherwise).
    """
    counters = dict(a.get("counters", {}))
    for name, value in b.get("counters", {}).items():
        counters[name] = counters.get(name, 0.0) + value
    gauges = dict(a.get("gauges", {}))
    for name, value in b.get("gauges", {}).items():
        gauges[name] = max(gauges[name], value) if name in gauges else value
    histograms = {n: dict(h) for n, h in a.get("histograms", {}).items()}
    for name, h in b.get("histograms", {}).items():
        mine = histograms.get(name)
        if mine is None:
            histograms[name] = dict(h)
            continue
        if list(mine["boundaries"]) != list(h["boundaries"]):
            raise ValueError(
                f"cannot merge histogram {name!r}: boundary mismatch "
                f"{mine['boundaries']} vs {h['boundaries']}"
            )
        # .get("max"): snapshots written before the max slot existed merge
        # as if they never observed anything above the last edge.
        maxes = [m for m in (mine.get("max"), h.get("max")) if m is not None]
        histograms[name] = {
            "boundaries": list(mine["boundaries"]),
            "counts": [x + y for x, y in zip(mine["counts"], h["counts"])],
            "sum": mine["sum"] + h["sum"],
            "count": mine["count"] + h["count"],
            "max": max(maxes) if maxes else None,
        }
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": dict(sorted(histograms.items())),
    }
