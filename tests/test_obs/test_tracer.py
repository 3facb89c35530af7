"""Tracer invariants: spans close on every exit path, buffers stay bounded.

The property tests drive randomly-shaped nesting trees (with a randomly
chosen node that raises) through the tracer and pin the invariants the
exporters rely on: the open-span stack unwinds to empty, every entered
span is recorded exactly once, and durations/depths are consistent.
"""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import NULL_TRACER, Tracer

pytestmark = pytest.mark.obs


class Boom(RuntimeError):
    pass


# Nesting trees: each node is a list of children.
trees = st.recursive(
    st.just([]), lambda children: st.lists(children, max_size=3), max_leaves=12
)


def _count_nodes(tree) -> int:
    return sum(1 + _count_nodes(sub) for sub in tree)


def _run_tree(tracer, tree, counter, raise_at=None):
    """Enter one span per node (pre-order); raise at node ``raise_at``."""
    for sub in tree:
        with tracer.span(f"node{counter[0]}", idx=counter[0]):
            counter[0] += 1
            if raise_at is not None and counter[0] > raise_at:
                raise Boom()
            _run_tree(tracer, sub, counter, raise_at)


class TestSpanClosure:
    @given(tree=trees)
    @settings(max_examples=60, deadline=None)
    def test_nested_spans_all_close_and_record(self, tree):
        tracer = Tracer()
        counter = [0]
        _run_tree(tracer, tree, counter)
        assert len(tracer._stack()) == 0
        assert len(tracer.events) == _count_nodes(tree)
        assert all(ev.dur_ns >= 0 for ev in tracer.events)
        assert all(ev.t0_ns >= 0 for ev in tracer.events)

    @given(tree=trees, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_exception_unwinds_every_open_span(self, tree, data):
        n = _count_nodes(tree)
        if n == 0:
            return
        raise_at = data.draw(st.integers(min_value=0, max_value=n - 1))
        tracer = Tracer()
        counter = [0]
        with pytest.raises(Boom):
            _run_tree(tracer, tree, counter, raise_at=raise_at)
        # However deep the raise, the with-form closes everything on unwind.
        assert len(tracer._stack()) == 0
        # Every span *entered* before the raise is recorded, none invented.
        assert len(tracer.events) == counter[0]
        # The raising span and its ancestors carry the error annotation.
        errored = [ev for ev in tracer.events if (ev.attrs or {}).get("error")]
        assert errored, "the raising span must be annotated"
        assert all(ev.attrs["error"] == "Boom" for ev in errored)

    def test_nested_depths(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {ev.name: ev for ev in tracer.events}
        assert by_name["outer"].depth == 0
        assert by_name["inner"].depth == 1
        # children complete (and are recorded) before their parents
        assert tracer.events[0].name == "inner"

    def test_overlapping_begin_end_out_of_order(self):
        tracer = Tracer()
        a = tracer.begin("a")
        b = tracer.begin("b")
        tracer.end(a)  # out-of-order: a closed while b still open
        tracer.end(b)
        assert len(tracer._stack()) == 0
        assert sorted(ev.name for ev in tracer.events) == ["a", "b"]

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.begin("once")
        tracer.end(span)
        tracer.end(span)
        assert len(tracer.events) == 1

    def test_end_merges_late_attrs(self):
        tracer = Tracer()
        span = tracer.begin("io", path="x")
        tracer.end(span, bytes=42)
        assert tracer.events[0].attrs == {"path": "x", "bytes": 42}


class TestBoundedBuffer:
    @given(
        n=st.integers(min_value=0, max_value=50),
        cap=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=50, deadline=None)
    def test_buffer_never_exceeds_cap(self, n, cap):
        tracer = Tracer(max_events=cap)
        for i in range(n):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.events) == min(n, cap)
        assert tracer.dropped == max(0, n - cap)

    def test_clear_resets_buffer_and_drop_count(self):
        tracer = Tracer(max_events=1)
        for _ in range(3):
            with tracer.span("s"):
                pass
        tracer.clear()
        assert tracer.events == [] and tracer.dropped == 0

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError, match="max_events"):
            Tracer(max_events=0)


class TestDisabled:
    def test_disabled_span_is_shared_noop(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("a") is tracer.span("b", x=1)
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert tracer.events == [] and len(tracer._stack()) == 0

    def test_disabled_begin_end_noop(self):
        tracer = Tracer(enabled=False)
        handle = tracer.begin("a")
        tracer.end(handle)
        assert tracer.events == []

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False


class TestTotals:
    def test_totals_by_depth(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("step"):
                with tracer.span("phase"):
                    pass
        top = tracer.totals(depth=0)
        assert list(top) == ["step"] and top["step"]["count"] == 3
        inner = tracer.totals(depth=1)
        assert list(inner) == ["phase"]
        everything = tracer.totals()
        assert set(everything) == {"step", "phase"}
        assert everything["step"]["total_s"] >= everything["phase"]["total_s"]
        assert everything["step"]["mean_s"] == pytest.approx(
            everything["step"]["total_s"] / 3
        )


class TestThreads:
    def test_per_thread_stacks_do_not_interleave(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(label):
            barrier.wait()
            for _ in range(20):
                with tracer.span(label):
                    with tracer.span(f"{label}.inner"):
                        pass

        threads = [threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(tracer._stack()) == 0
        assert len(tracer.events) == 80
        # each thread's spans sit on its own lane with its own depths
        tids = {ev.tid for ev in tracer.events}
        assert len(tids) == 2
        for tid in tids:
            lane = [ev for ev in tracer.events if ev.tid == tid]
            assert {ev.depth for ev in lane} == {0, 1}
