"""Server query throughput — what does request coalescing buy?

The serve-layer acceptance criterion: ``B`` concurrent energy queries
against one warm model must execute in exactly ``ceil(B / window)``
coalesced forward passes — asserted via the ``RequestBatcher.forwards``
counter, never inferred from timing — and coalescing must deliver at
least **3x** the serial throughput at ``B = 16``.

Protocol: one warm :class:`~repro.serve.cache.CacheEntry` (a trained-ish
tiny MADE model), two batcher arms per trial:

- *serial*: ``window=1`` — every query is its own forward, the cost a
  naive per-request server would pay;
- *coalesced*: ``window=w`` with the batcher's executor held until all
  ``B`` requests are staged (``autostart=False`` + :meth:`start`), so the
  forward count is deterministic, then all waited to completion.

Per-query batches are small (tens of samples — the realistic query size
the batcher exists for), so per-call overhead dominates and coalescing
amortises it across the window. The reported ratio is the median of
paired per-trial ratios, robust to scheduler noise.

Emits ``BENCH_server_throughput.json``; the ``headline.throughput_ratio``
metric is tracked by ``tools/bench_track.py``.
"""

from __future__ import annotations

import math
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _harness import emit_json, format_table, parse_args  # noqa: E402

from repro.serve.batcher import RequestBatcher  # noqa: E402
from repro.serve.cache import CacheEntry  # noqa: E402
from repro.serve.protocol import JobSpec, QuerySpec  # noqa: E402
from repro.serve.server import build_trainer  # noqa: E402

N_SITES = 10
HIDDEN = 24
QUERY_BATCH = 16  # samples per query: the small-query regime batching targets
B = 16  # concurrent queries (the acceptance-criterion load)

#: acceptance target: coalesced throughput >= 3x serial at B=16
TARGET_RATIO = 3.0


def _warm_entry() -> CacheEntry:
    spec = JobSpec.from_json(
        {
            "problem": "tim",
            "n": N_SITES,
            "arch": "made",
            "hidden": HIDDEN,
            "seed": 3,
            "iterations": 3,
            "batch_size": 64,
        }
    )
    vqmc = build_trainer("tim", N_SITES, 0, "made", HIDDEN, seed=3)
    vqmc.run(iterations=3, batch_size=64)  # nudge off the init point
    return CacheEntry(spec.model_key(), vqmc)


def _query(entry: CacheEntry) -> QuerySpec:
    return QuerySpec.from_json(
        {
            "problem": "tim",
            "n": N_SITES,
            "arch": "made",
            "hidden": HIDDEN,
            "seed": 3,
            "batch_size": QUERY_BATCH,
        },
        kind="energy",
    )


def _run_arm(entry: CacheEntry, window: int, b: int) -> tuple[float, int]:
    """Serve ``b`` staged queries through one batcher arm.

    Returns (seconds, forwards). The executor starts only after all
    requests are pending, so ``forwards == ceil(b / window)`` exactly.
    """
    batcher = RequestBatcher(window=window, autostart=False)
    pending = [batcher.submit(_query(entry), entry) for _ in range(b)]
    t0 = time.perf_counter()
    batcher.start()
    for p in pending:
        p.wait(timeout=60.0)
    elapsed = time.perf_counter() - t0
    batcher.close()
    return elapsed, batcher.forwards


def measure(windows=(1, 4, 8, 16), b: int = B, trials: int = 9) -> dict:
    entry = _warm_entry()
    for window in windows:  # warm-up: allocators, sampler fast paths
        _run_arm(entry, window, b)
    times: dict[int, list[float]] = {w: [] for w in windows}
    forwards: dict[int, int] = {}
    for trial in range(trials):
        order = list(windows)[trial % len(windows):] + list(windows)[: trial % len(windows)]
        for window in order:
            elapsed, n_forwards = _run_arm(entry, window, b)
            expected = math.ceil(b / window)
            if n_forwards != expected:
                raise AssertionError(
                    f"window={window}, B={b}: {n_forwards} forwards, "
                    f"expected ceil(B/window)={expected}"
                )
            times[window].append(elapsed)
            forwards[window] = n_forwards
    serial = np.array(times[windows[0]])
    results = []
    for window in windows:
        arm = np.array(times[window])
        results.append(
            {
                "window": window,
                "forwards": forwards[window],
                "expected_forwards": math.ceil(b / window),
                "median_seconds": float(np.median(arm)),
                "queries_per_second": b / float(np.median(arm)),
                "throughput_ratio": float(np.median(serial / arm)),
            }
        )
    return {
        "b": b,
        "query_batch": QUERY_BATCH,
        "n_sites": N_SITES,
        "trials": trials,
        "results": results,
    }


# -- pytest-benchmark entry point ------------------------------------------------


def bench_coalesced_window(benchmark):
    entry = _warm_entry()
    benchmark(lambda: _run_arm(entry, 8, 8))


def main() -> None:
    args = parse_args(__doc__.splitlines()[0])
    trials = args.iters if args.iters is not None else 9
    doc = measure(trials=trials)

    rows = [
        [
            r["window"],
            f"{r['forwards']} (= ceil({doc['b']}/{r['window']}))",
            r["median_seconds"] * 1e3,
            r["queries_per_second"],
            r["throughput_ratio"],
        ]
        for r in doc["results"]
    ]
    print(format_table(
        ["window", "forwards", "ms / B queries", "queries / s", "vs serial"],
        rows,
        title=(
            f"request coalescing: B={doc['b']} energy queries x "
            f"{QUERY_BATCH} samples, MADE({N_SITES}, hidden={HIDDEN})"
        ),
    ))

    full = next(r for r in doc["results"] if r["window"] == doc["b"])
    ok = full["throughput_ratio"] >= TARGET_RATIO
    print(
        f"\ncoalesced (window={doc['b']}) vs serial: "
        f"{full['throughput_ratio']:.2f}x "
        f"({'PASS' if ok else 'FAIL'} vs >= {TARGET_RATIO}x); forward counts "
        f"matched ceil(B/window) for every window (counter-asserted)"
    )

    emit_json("server_throughput", {
        **doc,
        "headline": {
            "throughput_ratio": full["throughput_ratio"],
            "queries_per_second": full["queries_per_second"],
        },
        "target_ratio": TARGET_RATIO,
        "pass": bool(ok),
    })


if __name__ == "__main__":
    main()
