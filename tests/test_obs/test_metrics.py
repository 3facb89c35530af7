"""Metrics registry + the associative-merge contract behind cross-rank folds.

``merge_snapshots`` must be associative and commutative so per-rank
snapshots can be folded in any order (linear sweeps, tree reductions). The
property tests use integer-valued floats, for which IEEE addition is exact,
so associativity is a strict equality check rather than approximate.
"""

from __future__ import annotations

import math
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import DEFAULT_BUCKETS, Histogram, Metrics, merge_snapshots

pytestmark = pytest.mark.obs

_BOUNDS = (1.0, 2.0, 4.0)
_names = st.sampled_from(["alpha", "beta", "gamma"])
_int_floats = st.integers(min_value=0, max_value=10_000).map(float)

_hist = st.fixed_dictionaries(
    {
        "boundaries": st.just(list(_BOUNDS)),
        "counts": st.lists(
            st.integers(min_value=0, max_value=1000),
            min_size=len(_BOUNDS) + 1,
            max_size=len(_BOUNDS) + 1,
        ),
        "sum": _int_floats,
        "count": st.integers(min_value=0, max_value=4000),
    }
)

snapshots = st.fixed_dictionaries(
    {
        "counters": st.dictionaries(_names, _int_floats, max_size=3),
        "gauges": st.dictionaries(_names, _int_floats, max_size=3),
        "histograms": st.dictionaries(_names, _hist, max_size=2),
    }
)


class TestMergeProperties:
    @given(a=snapshots, b=snapshots, c=snapshots)
    @settings(max_examples=80, deadline=None)
    def test_merge_is_associative(self, a, b, c):
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right

    @given(a=snapshots, b=snapshots)
    @settings(max_examples=80, deadline=None)
    def test_merge_is_commutative(self, a, b):
        assert merge_snapshots(a, b) == merge_snapshots(b, a)

    @given(a=snapshots)
    @settings(max_examples=40, deadline=None)
    def test_empty_snapshot_is_identity(self, a):
        empty = {"counters": {}, "gauges": {}, "histograms": {}}
        merged = merge_snapshots(empty, a)
        # identity up to key ordering (merge sorts names)
        assert merged == merge_snapshots(a, empty)
        assert merged["counters"] == a["counters"]
        assert merged["gauges"] == a["gauges"]

    def test_counters_add_gauges_max_histograms_add(self):
        a = {
            "counters": {"n": 2.0},
            "gauges": {"depth": 3.0},
            "histograms": {
                "lat": {"boundaries": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1}
            },
        }
        b = {
            "counters": {"n": 5.0, "m": 1.0},
            "gauges": {"depth": 1.0},
            "histograms": {
                "lat": {"boundaries": [1.0], "counts": [0, 2], "sum": 4.0, "count": 2}
            },
        }
        merged = merge_snapshots(a, b)
        assert merged["counters"] == {"m": 1.0, "n": 7.0}
        assert merged["gauges"] == {"depth": 3.0}
        assert merged["histograms"]["lat"] == {
            "boundaries": [1.0],
            "counts": [1, 2],
            "sum": 4.5,
            "count": 3,
            "max": None,  # pre-max-slot snapshots: backfilled, not invented
        }

    def test_boundary_mismatch_raises(self):
        a = {"histograms": {"h": {"boundaries": [1.0], "counts": [0, 0], "sum": 0, "count": 0}}}
        b = {"histograms": {"h": {"boundaries": [2.0], "counts": [0, 0], "sum": 0, "count": 0}}}
        with pytest.raises(ValueError, match="boundary mismatch"):
            merge_snapshots(a, b)

    def test_boundary_length_mismatch_raises(self):
        a = {"histograms": {"h": {"boundaries": [1.0, 2.0], "counts": [0, 0, 0], "sum": 0, "count": 0}}}
        b = {"histograms": {"h": {"boundaries": [1.0], "counts": [0, 0], "sum": 0, "count": 0}}}
        with pytest.raises(ValueError, match="boundary mismatch"):
            merge_snapshots(a, b)

    def test_fully_empty_snapshots_merge(self):
        assert merge_snapshots({}, {}) == {
            "counters": {}, "gauges": {}, "histograms": {}
        }
        a = {"counters": {"n": 1.0}}
        merged = merge_snapshots({}, a)  # missing sections tolerated
        assert merged["counters"] == {"n": 1.0}
        assert merged["gauges"] == {} and merged["histograms"] == {}

    def test_gauge_conflict_takes_max_both_orders(self):
        a = {"gauges": {"arena": 100.0, "only_a": 7.0}}
        b = {"gauges": {"arena": 250.0, "only_b": -3.0}}
        for left, right in ((a, b), (b, a)):
            merged = merge_snapshots(left, right)
            assert merged["gauges"] == {
                "arena": 250.0, "only_a": 7.0, "only_b": -3.0
            }

    def test_histogram_max_slot_merges_and_backfills(self):
        with_max = {"histograms": {"h": {
            "boundaries": [1.0], "counts": [0, 1], "sum": 5.0, "count": 1,
            "max": 5.0,
        }}}
        legacy = {"histograms": {"h": {
            "boundaries": [1.0], "counts": [1, 0], "sum": 0.5, "count": 1,
        }}}
        merged = merge_snapshots(with_max, legacy)
        assert merged["histograms"]["h"]["max"] == 5.0
        bigger = {"histograms": {"h": {
            "boundaries": [1.0], "counts": [0, 1], "sum": 9.0, "count": 1,
            "max": 9.0,
        }}}
        assert merge_snapshots(merged, bigger)["histograms"]["h"]["max"] == 9.0


class TestInstruments:
    def test_counter_monotone(self):
        m = Metrics()
        m.inc("events")
        m.inc("events", 2.5)
        assert m.snapshot()["counters"]["events"] == 3.5
        with pytest.raises(ValueError, match="only increase"):
            m.inc("events", -1.0)

    def test_concurrent_increments_are_not_lost(self):
        """``serve.queries.*`` is bumped from many HTTP handler threads: 8
        threads x 20 000 bumps must read exactly 160 000. The amount's
        ``__radd__`` is a Python frame, so with a tiny switch interval a
        thread switch lands inside the ``+=`` on every few bumps; plain
        floats would only race on interpreters that check for switches
        between bytecodes."""

        class One(float):
            def __radd__(self, other):
                return other + 1.0

        m = Metrics()

        def bump():
            one = One(1.0)
            for _ in range(20_000):
                m.inc("serve.queries", one)
                m.observe("serve.query_s", one)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        snap = m.snapshot()
        assert snap["counters"]["serve.queries"] == 160_000
        hist = snap["histograms"]["serve.query_s"]
        assert hist["count"] == sum(hist["counts"]) == hist["sum"] == 160_000

    def test_gauge_last_write_wins(self):
        m = Metrics()
        m.set("world", 4)
        m.set("world", 2)
        assert m.snapshot()["gauges"]["world"] == 2.0

    def test_histogram_buckets_and_overflow(self):
        h = Histogram(boundaries=(1.0, 2.0))
        for v in (0.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.counts == [1, 1, 2]
        assert h.count == 4 and h.sum == pytest.approx(105.0)

    def test_histogram_quantile_conservative(self):
        h = Histogram(boundaries=(1.0, 2.0, 4.0))
        for v in (0.5, 0.5, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.5) == 1.0  # 2 of 4 observations <= 1.0
        assert h.quantile(1.0) == 4.0
        # The overflow bucket interpolates toward the observed max instead
        # of collapsing to +inf: the tail quantile stays finite and real.
        h.observe(999.0)
        assert h.quantile(1.0) == 999.0
        assert h.max == 999.0
        assert math.isnan(Histogram().quantile(0.5))
        with pytest.raises(ValueError, match="q must be"):
            h.quantile(1.5)

    def test_histogram_overflow_interpolation_is_linear(self):
        h = Histogram(boundaries=(1.0,))
        for v in (0.5, 10.0, 10.0):  # 1 finite, 2 overflow, max 10
            h.observe(v)
        # q=2/3 -> target 2.0 = halfway through the overflow bucket:
        # midway between last edge 1.0 and observed max 10.0.
        assert h.quantile(2 / 3) == pytest.approx(5.5)
        assert h.quantile(1.0) == pytest.approx(10.0)

    def test_histogram_boundaries_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(boundaries=(1.0, 1.0))
        with pytest.raises(ValueError, match="strictly increasing"):
            Histogram(boundaries=())

    def test_registry_get_or_create(self):
        m = Metrics()
        assert m.counter("x") is m.counter("x")
        assert m.histogram("h") is m.histogram("h")
        assert m.histogram("h").boundaries == tuple(DEFAULT_BUCKETS)

    def test_cross_kind_name_conflict_raises(self):
        m = Metrics()
        m.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            m.gauge("x")
        with pytest.raises(ValueError, match="already registered"):
            m.histogram("x")

    def test_histogram_boundary_conflict_raises(self):
        m = Metrics()
        m.histogram("h", boundaries=(1.0, 2.0))
        with pytest.raises(ValueError, match="already registered with boundaries"):
            m.histogram("h", boundaries=(1.0, 3.0))

    def test_rank_snapshot_merge_roundtrip(self):
        """The intended cross-rank use: N per-rank registries fold into one."""
        ranks = []
        for rank in range(4):
            m = Metrics()
            m.inc("comm.retries", rank)
            m.set("world", 4)
            for v in (0.01 * (rank + 1), 0.5):
                m.observe("step_latency", v)
            ranks.append(m.snapshot())
        folded = ranks[0]
        for snap in ranks[1:]:
            folded = merge_snapshots(folded, snap)
        assert folded["counters"]["comm.retries"] == 0 + 1 + 2 + 3
        assert folded["gauges"]["world"] == 4.0
        assert folded["histograms"]["step_latency"]["count"] == 8
