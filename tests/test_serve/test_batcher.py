"""Request batcher: the documented coalescing contract, counter-asserted."""

from __future__ import annotations

import math
import threading
import time

import pytest

from repro.serve.batcher import BatcherClosed, RequestBatcher
from repro.serve.cache import CacheEntry
from repro.serve.protocol import JobSpec, QuerySpec
from repro.serve.server import build_trainer

N = 6
HIDDEN = 8


@pytest.fixture(scope="module")
def entry() -> CacheEntry:
    spec = JobSpec.from_json(
        {"problem": "tim", "n": N, "arch": "made", "hidden": HIDDEN, "seed": 3}
    )
    return CacheEntry(spec.model_key(), build_trainer("tim", N, 0, "made", HIDDEN, 3))


def query(kind="energy", batch_size=8, seed=3) -> QuerySpec:
    return QuerySpec.from_json(
        {"problem": "tim", "n": N, "arch": "made", "hidden": HIDDEN,
         "seed": seed, "batch_size": batch_size},
        kind=kind,
    )


def wait_until(predicate, timeout: float = 30.0) -> None:
    """Poll a counter-valued condition; the deadline only bounds a hang."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition not reached"
        time.sleep(0.001)


def serve_staged(batcher: RequestBatcher, staged: list) -> list[dict]:
    """Start the (held) executor and wait out every staged future."""
    batcher.start()
    try:
        return [p.wait(timeout=30.0) for p in staged]
    finally:
        batcher.close()


@pytest.mark.parametrize("b,window", [(16, 8), (16, 16), (5, 2), (3, 4), (1, 1)])
def test_forward_count_is_ceil_b_over_window(entry, b, window):
    """THE acceptance criterion, asserted via the counter — never timing."""
    batcher = RequestBatcher(window=window, autostart=False)
    staged = [batcher.submit(query(), entry) for _ in range(b)]
    results = serve_staged(batcher, staged)
    assert batcher.forwards == math.ceil(b / window)
    assert batcher.requests == b
    assert all(r["count"] == 8 for r in results)


def test_each_request_gets_exactly_its_own_slice(entry):
    sizes = [4, 9, 1, 16]
    batcher = RequestBatcher(window=8, autostart=False)
    staged = [batcher.submit(query(batch_size=s), entry) for s in sizes]
    results = serve_staged(batcher, staged)
    assert batcher.forwards == 1
    assert [r["count"] for r in results] == sizes
    assert batcher.samples == sum(sizes)
    assert all(r["coalesced"] == len(sizes) for r in results)


def test_sample_queries_return_configurations(entry):
    batcher = RequestBatcher(window=4, autostart=False)
    staged = [
        batcher.submit(query(kind="sample", batch_size=5), entry)
        for _ in range(2)
    ]
    a, b = serve_staged(batcher, staged)
    for reply in (a, b):
        assert len(reply["samples"]) == 5
        assert all(len(row) == N and set(row) <= {0, 1} for row in reply["samples"])
    assert a["samples"] != b["samples"]  # distinct slices of the union batch


def test_mixed_kinds_share_one_forward(entry):
    batcher = RequestBatcher(window=4, autostart=False)
    staged = [
        batcher.submit(query(kind="sample", batch_size=4), entry),
        batcher.submit(query(kind="energy", batch_size=4), entry),
    ]
    sample_reply, energy_reply = serve_staged(batcher, staged)
    assert batcher.forwards == 1
    assert "samples" in sample_reply and "mean" in energy_reply


def test_different_model_keys_never_share_a_forward(entry):
    other_spec = JobSpec.from_json(
        {"problem": "tim", "n": N, "arch": "made", "hidden": HIDDEN, "seed": 4}
    )
    other = CacheEntry(
        other_spec.model_key(), build_trainer("tim", N, 0, "made", HIDDEN, 4)
    )
    batcher = RequestBatcher(window=8, autostart=False)
    staged = [
        batcher.submit(query(seed=3), entry),
        batcher.submit(query(seed=4), other),
        batcher.submit(query(seed=3), entry),
    ]
    serve_staged(batcher, staged)
    assert batcher.forwards == 2  # one per key despite window room


def test_model_keys_take_turns(entry):
    """A key with requests left after its forward goes to the back: two
    windows' worth on A and one request on B are served A, B, A."""
    other_spec = JobSpec.from_json(
        {"problem": "tim", "n": N, "arch": "made", "hidden": HIDDEN, "seed": 4}
    )
    other = CacheEntry(
        other_spec.model_key(), build_trainer("tim", N, 0, "made", HIDDEN, 4)
    )
    served: list = []

    class Recording(RequestBatcher):
        def _execute(self, group):
            served.append((group[0].entry.key, len(group)))
            super()._execute(group)

    window = 3
    batcher = Recording(window=window, autostart=False)
    staged = [batcher.submit(query(seed=3), entry) for _ in range(2 * window)]
    staged.append(batcher.submit(query(seed=4), other))
    serve_staged(batcher, staged)
    assert served == [(entry.key, window), (other.key, 1), (entry.key, window)]


def test_forward_failure_rejects_the_whole_group(entry):
    batcher = RequestBatcher(window=4, autostart=False)
    bad_spec = JobSpec.from_json({"problem": "tim", "n": N, "arch": "made",
                                  "hidden": HIDDEN, "seed": 99})

    class Broken:
        eval_rng = entry.vqmc.eval_rng
        model = None

        class sampler:  # noqa: N801 — minimal stub
            @staticmethod
            def sample(model, n, rng):
                raise RuntimeError("sampler exploded")

    broken = CacheEntry(bad_spec.model_key(), Broken())
    staged = [batcher.submit(query(seed=99), broken) for _ in range(3)]
    batcher.start()
    for p in staged:
        with pytest.raises(RuntimeError, match="sampler exploded"):
            p.wait(timeout=30.0)
    batcher.close()


def test_closed_batcher_refuses_submissions(entry):
    batcher = RequestBatcher(window=2)
    batcher.close()
    with pytest.raises(BatcherClosed):
        batcher.submit(query(), entry)


def test_lone_request_on_an_idle_batcher_departs_at_once(entry):
    """Nothing to wait for: one request, one forward, no company."""
    batcher = RequestBatcher(window=8)
    try:
        for served in (1, 2, 3):
            reply = batcher.submit(query(), entry).wait(timeout=30.0)
            assert reply["coalesced"] == 1
            assert batcher.forwards == batcher.requests == served
    finally:
        batcher.close()


def test_requests_queued_behind_a_busy_executor_share_forwards(entry):
    """Coalescing comes from the queue: what piles up while the executor
    is busy (here: blocked on the model's lock) leaves together."""
    window, b = 4, 11
    batcher = RequestBatcher(window=window)
    try:
        with entry.lock:
            first = batcher.submit(query(), entry)
            wait_until(lambda: batcher.pending_count() == 0)  # taken: busy now
            rest = [batcher.submit(query(), entry) for _ in range(b - 1)]
            assert batcher.forwards == 0
        replies = [p.wait(timeout=30.0) for p in [first, *rest]]
    finally:
        batcher.close()
    assert batcher.forwards == 1 + math.ceil((b - 1) / window)
    assert [r["coalesced"] for r in replies] == [1, 4, 4, 4, 4, 4, 4, 4, 4, 2, 2]


def test_concurrent_submitters_all_get_correct_slices(entry):
    """Thread-hammered version of the slice contract on a running
    executor, staged by counter: one request makes the executor busy, the
    others queue behind it from their own threads."""
    window = 4
    batcher = RequestBatcher(window=window)
    sizes = [1 + (i % 7) for i in range(20)]
    results: list[dict | None] = [None] * len(sizes)

    def fire(i: int) -> None:
        pending = batcher.submit(query(batch_size=sizes[i]), entry)
        results[i] = pending.wait(timeout=30.0)

    threads = [threading.Thread(target=fire, args=(i,)) for i in range(1, len(sizes))]
    with entry.lock:
        first = batcher.submit(query(batch_size=sizes[0]), entry)
        wait_until(lambda: batcher.pending_count() == 0)
        for t in threads:
            t.start()
        wait_until(lambda: batcher.pending_count() == len(threads))
    results[0] = first.wait(timeout=30.0)
    for t in threads:
        t.join(30.0)
    batcher.close()
    assert [r["count"] for r in results] == sizes
    assert batcher.requests == len(sizes)
    assert batcher.forwards == 1 + math.ceil(len(threads) / window)
