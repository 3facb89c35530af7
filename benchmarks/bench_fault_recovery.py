"""Fault tolerance — resilience overhead and recovery cost.

Two questions decide whether the fault-tolerant stack is usable in anger:

1. **What does resilience cost when nothing fails?** The
   :class:`ResilientCommunicator` checksums and frames every message — two
   extra memory passes per hop, irreducible for full corruption coverage.
   We measure allreduce latency raw vs wrapped with a *paired* protocol:
   each trial times both paths back-to-back inside the same worker (same
   process, same cache/frequency state), and the overhead is the median of
   per-trial ratios — robust to the scheduling noise of oversubscribed CI
   boxes, where an independent min-of-k estimator swings by tens of
   percent. Headline: the process backend (the repo's honest analogue of
   the paper's one-rank-per-GPU setup) at a paper-scale gradient
   (2M float64 ≈ 16 MB), target <= 10 %. Small payloads are latency-bound
   and show a higher ratio on a single-core host, where every per-message
   pass serializes; the table reports the full sweep.
2. **What does a failure cost?** A world-3 supervised training run has one
   rank crash mid-run (deterministic :class:`FaultPlan`); survivors detect
   the death, shrink to world 2, restore the agreed checkpoint and finish.
   We report detection+restore wall time (``recovery_seconds``) and the
   end-to-end slowdown vs a fault-free run of the same length.

Emits ``BENCH_fault_recovery.json`` (via ``_harness.emit_json``) so the
overhead trajectory is tracked commit over commit.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _harness import emit_json, format_table, parse_args  # noqa: E402

from repro.distributed import (  # noqa: E402
    ElasticConfig,
    FaultEvent,
    FaultPlan,
    RetryPolicy,
    build_comm,
    run_data_parallel,
    run_processes,
    run_threaded,
)
from repro.hamiltonians import TransverseFieldIsing  # noqa: E402
from repro.models import MADE  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.samplers import AutoregressiveSampler  # noqa: E402

WORLD = 4
#: payload sweep per backend (floats); the last mp entry is the headline
#: (2M float64 = 16 MB, a paper-scale gradient)
THREAD_PAYLOADS = (1_024, 16_384, 131_072)
MP_PAYLOADS = (16_384, 131_072, 2_097_152)


def _paired_worker(comm, rank, payload, repeats, trials):
    """Time raw and resilient allreduce back-to-back, per trial."""
    res = build_comm(comm, retry=RetryPolicy())
    arr = np.ones(payload)
    comm.allreduce(arr)
    res.allreduce(arr)  # warm-up both paths: allocators, first-touch
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
            res.allreduce(arr)
        res_t = (time.perf_counter() - t0) / repeats
        out.append((raw_t, res_t))
    return out


def _measure_overhead(backend: str, payload: int, repeats: int = 3,
                      trials: int = 11) -> dict:
    runner = run_threaded if backend == "threads" else run_processes
    per_rank = runner(_paired_worker, WORLD, args=(payload, repeats, trials),
                      timeout=300.0)
    pairs = np.array(per_rank)  # (ranks, trials, 2)
    raw = pairs[:, :, 0].max(axis=0)  # slowest rank, per trial
    res = pairs[:, :, 1].max(axis=0)
    # Overhead from the per-trial *sum over ranks*: both arms of a trial run
    # on the same ranks back-to-back, so scheduling noise largely cancels in
    # the paired ratio — the max-over-ranks latency, by contrast, is an
    # extreme statistic that amplifies single-core scheduler noise by tens
    # of percent from run to run.
    raw_sum = pairs[:, :, 0].sum(axis=0)
    res_sum = pairs[:, :, 1].sum(axis=0)
    return {
        "backend": backend,
        "payload_floats": payload,
        "raw_ms": float(np.median(raw)) * 1e3,
        "resilient_ms": float(np.median(res)) * 1e3,
        "overhead_pct": float(np.median(res_sum / raw_sum - 1.0) * 100.0),
    }


# -- recovery cost -------------------------------------------------------------


def _builder(rank):
    model = MADE(6, hidden=8, rng=np.random.default_rng(3))
    ham = TransverseFieldIsing.random(6, seed=1)
    return model, ham, AutoregressiveSampler(), SGD(model.parameters(), lr=0.05)


def _timed_run(ckpt_dir, iterations, crash_step):
    """A supervised world-3 run; the last rank crashes after crash_step."""
    plan = None
    if crash_step is not None:
        plan = FaultPlan([FaultEvent(kind="crash", rank=2, step=crash_step)])
    t0 = time.perf_counter()
    result = run_data_parallel(
        _builder, 3, iterations, 16, seed=100, timeout=120.0,
        checkpoint_dir=ckpt_dir, plan=plan, checkpoint_every=2,
        elastic=ElasticConfig(),
    )
    return time.perf_counter() - t0, result.reports


def _measure_recovery(tmp_root: pathlib.Path, iterations: int = 8) -> dict:
    clean_s, _ = _timed_run(tmp_root / "clean", iterations, None)
    faulty_s, faulty = _timed_run(tmp_root / "faulty", iterations, 4)

    survivors = [r for r in faulty if not r.crashed]
    assert all(r.completed_steps == iterations for r in survivors)
    assert all(r.restores for r in survivors), "no shrink/restore happened"
    return {
        "world_size": 3,
        "iterations": iterations,
        "crash_step": 4,
        "clean_run_s": clean_s,
        "faulty_run_s": faulty_s,
        "recovery_seconds_max": max(r.recovery_seconds for r in survivors),
        "restored_step": survivors[0].restores[0]["restored_step"],
        "final_world": len(survivors[0].final_group),
        "slowdown_pct": (faulty_s - clean_s) / clean_s * 100.0,
    }


# -- pytest-benchmark entry points ---------------------------------------------


def bench_allreduce_raw_vs_resilient_threads(benchmark):
    benchmark(lambda: _measure_overhead("threads", 16_384, repeats=1, trials=1))


def main() -> None:
    parse_args(__doc__.splitlines()[0])
    rows = []
    for payload in THREAD_PAYLOADS:
        rows.append(_measure_overhead("threads", payload))
    for payload in MP_PAYLOADS:
        rows.append(_measure_overhead("mp", payload))
    print(format_table(
        ["backend", "payload (floats)", "raw (ms)", "resilient (ms)",
         "overhead (%)"],
        [[r["backend"], r["payload_floats"], r["raw_ms"], r["resilient_ms"],
          r["overhead_pct"]] for r in rows],
        title=f"Resilience overhead on allreduce (paired trials, L={WORLD})",
    ))
    headline = rows[-1]["overhead_pct"]
    print(f"\nHeadline fault-free overhead (mp backend, "
          f"{MP_PAYLOADS[-1]} floats): {headline:.1f}% (target: <= 10%)")

    with tempfile.TemporaryDirectory() as tmp:
        recovery = _measure_recovery(pathlib.Path(tmp))
    print()
    print(format_table(
        ["clean run (s)", "faulty run (s)", "recovery (s)",
         "restored step", "final world"],
        [[recovery["clean_run_s"], recovery["faulty_run_s"],
          recovery["recovery_seconds_max"], recovery["restored_step"],
          recovery["final_world"]]],
        title="Recovery cost: rank crash at step 4 of 8 (world 3 -> 2)",
    ))

    emit_json("fault_recovery", {
        "overhead": rows,
        "overhead_pct": headline,
        "recovery": recovery,
    })


if __name__ == "__main__":
    main()
