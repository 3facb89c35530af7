"""Sanitizer overhead — what does always-on collective checking cost?

The :class:`~repro.analysis.comm_sanitizer.CommSanitizer` exchanges a
fixed-size (~1 KB) fingerprint frame among all ranks before every
collective. That is one extra latency-bound swap per collective — amortised
to nothing on bandwidth-bound paper-scale gradients, visible on tiny
payloads. We measure allreduce latency raw vs sanitized with the same
*paired* protocol as ``bench_fault_recovery.py``: each trial times both
paths back-to-back inside the same worker, and the overhead is the median
of per-trial sum-over-ranks ratios — robust to scheduler noise on
oversubscribed CI boxes. Headline: the process backend at a paper-scale
gradient (2M float64 ≈ 16 MB), target <= 10 %.

The :class:`~repro.analysis.graph_sanitizer.GraphSanitizer` adds per-op
buffer fingerprinting to the tensor engine; we time a forward+backward
training objective bare vs sanitized (same paired protocol, single
process) so the cost of leaving it on during debugging is a number, not a
guess.

Emits ``BENCH_sanitizer_overhead.json`` (via ``_harness.emit_json``) so the
overhead trajectory is tracked commit over commit.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _harness import emit_json, format_table, parse_args  # noqa: E402

from repro.analysis import GraphSanitizer  # noqa: E402
from repro.distributed import build_comm, run_processes, run_threaded  # noqa: E402
from repro.distributed.comm import DEFAULT_TIMEOUT  # noqa: E402
from repro.models import MADE  # noqa: E402

WORLD = 4
#: payload sweep per backend (floats); the last mp entry is the headline
#: (2M float64 = 16 MB, a paper-scale gradient)
THREAD_PAYLOADS = (1_024, 16_384, 131_072)
MP_PAYLOADS = (16_384, 131_072, 2_097_152)


def _paired_worker(comm, rank, payload, repeats, trials):
    """Time raw and sanitized allreduce back-to-back, per trial."""
    sane = build_comm(comm, sanitize=DEFAULT_TIMEOUT)
    arr = np.ones(payload)
    comm.allreduce(arr)
    sane.allreduce(arr)  # warm-up both paths: allocators, first-touch
    out = []
    for _ in range(trials):
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(repeats):
            comm.allreduce(arr)
        raw_t = (time.perf_counter() - t0) / repeats
        comm.barrier()
        t0 = time.perf_counter()
        for _ in range(repeats):
            sane.allreduce(arr)
        san_t = (time.perf_counter() - t0) / repeats
        out.append((raw_t, san_t))
    return out


def _measure_comm_overhead(backend: str, payload: int, repeats: int = 3,
                           trials: int = 11) -> dict:
    runner = run_threaded if backend == "threads" else run_processes
    per_rank = runner(_paired_worker, WORLD, args=(payload, repeats, trials),
                      timeout=300.0)
    pairs = np.array(per_rank)  # (ranks, trials, 2)
    raw = pairs[:, :, 0].max(axis=0)  # slowest rank, per trial
    san = pairs[:, :, 1].max(axis=0)
    # Paired per-trial sum-over-ranks ratio: both arms of a trial run on the
    # same ranks back-to-back, so scheduling noise largely cancels (see
    # bench_fault_recovery.py for why max-over-ranks is too jittery here).
    raw_sum = pairs[:, :, 0].sum(axis=0)
    san_sum = pairs[:, :, 1].sum(axis=0)
    return {
        "backend": backend,
        "payload_floats": payload,
        "raw_ms": float(np.median(raw)) * 1e3,
        "sanitized_ms": float(np.median(san)) * 1e3,
        "overhead_pct": float(np.median(san_sum / raw_sum - 1.0) * 100.0),
    }


# -- GraphSanitizer: per-op engine overhead ------------------------------------


def _objective(model, batch):
    lp = model.log_prob(batch)
    return (lp * lp).sum()


def _measure_graph_overhead(n_sites: int = 12, hidden: int = 32,
                            batch: int = 64, trials: int = 11) -> dict:
    rng = np.random.default_rng(5)
    model = MADE(n_sites, hidden=hidden, rng=np.random.default_rng(3))
    states = (rng.random((batch, n_sites)) < 0.5).astype(np.float64)
    _objective(model, states).backward()  # warm-up
    pairs = []
    for _ in range(trials):
        t0 = time.perf_counter()
        _objective(model, states).backward()
        bare_t = time.perf_counter() - t0
        t0 = time.perf_counter()
        with GraphSanitizer(nonfinite="record"):
            _objective(model, states).backward()
        san_t = time.perf_counter() - t0
        pairs.append((bare_t, san_t))
    arr = np.array(pairs)
    return {
        "n_sites": n_sites,
        "hidden": hidden,
        "batch": batch,
        "bare_ms": float(np.median(arr[:, 0])) * 1e3,
        "sanitized_ms": float(np.median(arr[:, 1])) * 1e3,
        "overhead_pct": float(np.median(arr[:, 1] / arr[:, 0] - 1.0) * 100.0),
    }


# -- pytest-benchmark entry points ---------------------------------------------


def bench_allreduce_raw_vs_sanitized_threads(benchmark):
    benchmark(lambda: _measure_comm_overhead("threads", 16_384,
                                             repeats=1, trials=1))


def main() -> None:
    parse_args(__doc__.splitlines()[0])
    rows = []
    for payload in THREAD_PAYLOADS:
        rows.append(_measure_comm_overhead("threads", payload))
    for payload in MP_PAYLOADS:
        rows.append(_measure_comm_overhead("mp", payload))
    print(format_table(
        ["backend", "payload (floats)", "raw (ms)", "sanitized (ms)",
         "overhead (%)"],
        [[r["backend"], r["payload_floats"], r["raw_ms"], r["sanitized_ms"],
          r["overhead_pct"]] for r in rows],
        title=f"CommSanitizer overhead on allreduce (paired trials, L={WORLD})",
    ))
    headline = rows[-1]["overhead_pct"]
    print(f"\nHeadline sanitizer overhead (mp backend, "
          f"{MP_PAYLOADS[-1]} floats): {headline:.1f}% (target: <= 10%)")

    graph = _measure_graph_overhead()
    print()
    print(format_table(
        ["bare (ms)", "sanitized (ms)", "overhead (%)"],
        [[graph["bare_ms"], graph["sanitized_ms"], graph["overhead_pct"]]],
        title=(
            f"GraphSanitizer overhead on MADE({graph['n_sites']}, "
            f"hidden={graph['hidden']}) forward+backward, "
            f"batch={graph['batch']}"
        ),
    ))

    emit_json("sanitizer_overhead", {
        "comm": rows,
        "overhead_pct": headline,
        "graph": graph,
    })


if __name__ == "__main__":
    main()
