"""Elastic runtime v2: rejoin recovery cost and straggler-aware rebalancing.

Two paired measurements behind the elastic supervisor's headline claims:

1. **Kill-then-rejoin recovery** (world 3, threads): rank 2 is crashed at
   step 4 by a seeded FaultPlan, the survivors shrink and keep training,
   the victim restarts and re-enters via ``TrainingSupervisor.rejoin``.
   Reported: the survivors' shrink/restore time, the grow-handshake time
   (consensus + state broadcast, ``joins[0]["seconds"]``), and the whole
   faulty run's wall-clock against an identical no-fault run.

2. **Straggler rebalancing** (world 4, threads): every rank's sampler
   carries a deterministic ``time.sleep`` proportional to its batch (sleeps
   release the GIL, so four threaded ranks genuinely overlap) and rank 3
   sleeps 2x as long per sample — the injected straggler. Three runs over
   the same global batch: no straggler (even split), straggler with
   rebalancing disabled (hysteresis pushed out of reach), and straggler
   with the live BatchLedger. Acceptance pinned here: the ledger must
   recover >= 50 % of the step time lost to the straggler
   (``recovered = (static - rebalanced) / (static - baseline)``).

Run: ``python benchmarks/bench_elastic_scaling.py`` (or via ``run_all.py``).
Emits ``out/BENCH_elastic_scaling.json``.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from _harness import emit_json, format_table, parse_args  # noqa: E402

from repro.core.vqmc import VQMC  # noqa: E402
from repro.distributed import (  # noqa: E402
    BatchLedger,
    ElasticConfig,
    FaultEvent,
    FaultInjectionCallback,
    FaultPlan,
    RetryPolicy,
    TrainingSupervisor,
    build_comm,
    run_data_parallel,
    run_threaded,
)
from repro.hamiltonians import TransverseFieldIsing  # noqa: E402
from repro.models import MADE  # noqa: E402
from repro.optim import SGD  # noqa: E402
from repro.samplers import AutoregressiveSampler  # noqa: E402

_RETRY = dict(max_attempts=2, backoff_base=0.01, attempt_timeout=0.25)

# -- measurement 1: kill, shrink, rejoin ---------------------------------------

REJOIN_WORLD = 3
REJOIN_ITER = 30
REJOIN_CRASH = 4
REJOIN_BATCH = 48


def _make_vqmc(comm, rank):
    model = MADE(6, hidden=8, rng=np.random.default_rng(3))
    ham = TransverseFieldIsing.random(6, seed=1)
    return VQMC(
        model, ham, AutoregressiveSampler(),
        SGD(model.parameters(), lr=0.05),
        comm=comm, seed=100 + rank,
    )


def _rejoin_worker(comm, rank, ckpt_dir, crash_step):
    plan = (
        FaultPlan([FaultEvent(kind="crash", rank=2, step=crash_step)])
        if crash_step is not None
        else None
    )
    retry = RetryPolicy(**_RETRY)
    cfg = ElasticConfig(heartbeat_timeout=1.0, consensus_timeout=1.0)
    vqmc = _make_vqmc(build_comm(comm, plan=plan, retry=retry), rank)
    callbacks = [FaultInjectionCallback(plan, rank)] if plan is not None else []
    supervisor = TrainingSupervisor(
        vqmc,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=2,
        callbacks=callbacks,
        elastic=cfg,
        accept_joins=True,
        ledger=BatchLedger(REJOIN_BATCH, comm.size),
    )
    report = supervisor.run(REJOIN_ITER)
    if not report.crashed:
        return report

    # restart: fresh resilient stack, fresh trainer (comm=None so the
    # constructor does not broadcast against the shrunken world), rejoin.
    rcomm2 = build_comm(comm, retry=retry)
    vqmc2 = _make_vqmc(None, rank)
    supervisor2 = TrainingSupervisor(
        vqmc2,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=2,
        elastic=cfg,
        accept_joins=True,
        ledger=BatchLedger(REJOIN_BATCH, comm.size),
        root=rcomm2,
    )
    return supervisor2.rejoin(REJOIN_ITER, announce_timeout=0.1,
                              max_announces=200)


def _measure_rejoin(tmp_root: pathlib.Path) -> dict:
    t0 = time.perf_counter()
    run_threaded(
        _rejoin_worker, REJOIN_WORLD,
        args=(str(tmp_root / "clean"), None), timeout=300.0,
    )
    clean_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    reports = run_threaded(
        _rejoin_worker, REJOIN_WORLD,
        args=(str(tmp_root / "chaos"), REJOIN_CRASH), timeout=300.0,
    )
    faulty_s = time.perf_counter() - t0

    joiner = reports[2]
    survivors = reports[:2]
    assert joiner.rejoined, "the crashed rank must re-enter the world"
    assert joiner.completed_steps == REJOIN_ITER
    assert all(r.completed_steps == REJOIN_ITER for r in survivors)
    assert all(r.final_group == [0, 1, 2] for r in reports)
    return {
        "world_size": REJOIN_WORLD,
        "iterations": REJOIN_ITER,
        "crash_step": REJOIN_CRASH,
        "clean_run_s": clean_s,
        "faulty_run_s": faulty_s,
        "shrink_restore_s": max(r.recovery_seconds for r in survivors),
        "grow_handshake_s": joiner.joins[0]["seconds"],
        "rejoin_overhead_pct": (faulty_s - clean_s) / clean_s * 100.0,
    }


# -- measurement 2: straggler rebalancing --------------------------------------

STRAGGLER_WORLD = 4
STRAGGLER_ITER = 16
STRAGGLER_BATCH = 64
# Per-sample sleep on every rank. It must *dominate* the GIL-serialised
# Python compute (~2 ms/sample with four threaded ranks) or the uniform
# compute contention dilutes the injected skew below the ledger's dead-band.
BASE_SLEEP_S = 0.010
STRAGGLER_FACTOR = 2.0  # rank 3 sleeps this much longer per sample


class _SlowSampler(AutoregressiveSampler):
    """Exact sampler with a deterministic per-sample delay.

    The sleep stands in for slow hardware: it scales with the assigned
    batch (so shifting samples away genuinely shortens the rank's step) and
    releases the GIL (so threaded ranks overlap as real ranks would).
    """

    def __init__(self, per_sample_s: float):
        super().__init__()
        self._per_sample_s = per_sample_s

    def sample(self, model, batch_size, rng):
        time.sleep(self._per_sample_s * batch_size)
        return super().sample(model, batch_size, rng)


def _builder_with_straggler(straggler_factor):
    def build(rank):
        model = MADE(6, hidden=8, rng=np.random.default_rng(3))
        ham = TransverseFieldIsing.random(6, seed=1)
        factor = straggler_factor if rank == STRAGGLER_WORLD - 1 else 1.0
        sampler = _SlowSampler(BASE_SLEEP_S * factor)
        return model, ham, sampler, SGD(model.parameters(), lr=0.05)

    return build


def _timed_elastic_run(tmp_root, name, straggler_factor, ledger_opts):
    result = run_data_parallel(
        _builder_with_straggler(straggler_factor),
        STRAGGLER_WORLD,
        STRAGGLER_ITER,
        STRAGGLER_BATCH // STRAGGLER_WORLD,
        checkpoint_dir=tmp_root / name,
        seed=7,
        backend="threads",
        timeout=300.0,
        ledger_opts=ledger_opts,
        retry=RetryPolicy(**_RETRY),
    )
    reports = result.reports
    assert all(rep.completed_steps == STRAGGLER_ITER for rep in reports)
    # rank 0's training wall time: steps are synchronous, and the launcher's
    # closing evaluation (one more slow-sampler batch) stays out of it
    return result.wall_time / STRAGGLER_ITER, reports[0].rebalances


def _measure_straggler(tmp_root: pathlib.Path) -> dict:
    # Rebalancing off = a hysteresis dead-band no finite skew can cross.
    frozen = dict(hysteresis=1e9)
    baseline_s, _ = _timed_elastic_run(tmp_root, "baseline", 1.0, frozen)
    static_s, static_rb = _timed_elastic_run(
        tmp_root, "static", STRAGGLER_FACTOR, frozen
    )
    rebal_s, rebalances = _timed_elastic_run(
        tmp_root, "rebalanced", STRAGGLER_FACTOR, {}
    )

    assert static_rb == 0, "frozen ledger must not rebalance"
    assert rebalances > 0, "live ledger never rebalanced under a 2x straggler"
    lost = static_s - baseline_s
    assert lost > 0, "straggler injection did not slow the static run"
    recovered = (static_s - rebal_s) / lost
    return {
        "world_size": STRAGGLER_WORLD,
        "iterations": STRAGGLER_ITER,
        "global_batch": STRAGGLER_BATCH,
        "straggler_rank": STRAGGLER_WORLD - 1,
        "straggler_factor": STRAGGLER_FACTOR,
        "base_sleep_per_sample_s": BASE_SLEEP_S,
        "baseline_step_s": baseline_s,
        "static_step_s": static_s,
        "rebalanced_step_s": rebal_s,
        "rebalances": rebalances,
        "recovered_fraction": recovered,
    }


# -- pytest-benchmark entry point ----------------------------------------------


def bench_straggler_rebalancing(benchmark):
    with tempfile.TemporaryDirectory() as tmp:
        benchmark(lambda: _measure_straggler(pathlib.Path(tmp)))


def main() -> None:
    parse_args(__doc__.splitlines()[0])

    with tempfile.TemporaryDirectory() as tmp:
        rejoin = _measure_rejoin(pathlib.Path(tmp))
    print(format_table(
        ["clean run (s)", "faulty run (s)", "shrink+restore (s)",
         "grow handshake (s)", "overhead (%)"],
        [[rejoin["clean_run_s"], rejoin["faulty_run_s"],
          rejoin["shrink_restore_s"], rejoin["grow_handshake_s"],
          rejoin["rejoin_overhead_pct"]]],
        title=(f"Kill-then-rejoin: rank 2 dies at step {REJOIN_CRASH} of "
               f"{REJOIN_ITER}, restarts, rejoins (world {REJOIN_WORLD})"),
    ))

    with tempfile.TemporaryDirectory() as tmp:
        straggler = _measure_straggler(pathlib.Path(tmp))
    print()
    print(format_table(
        ["run", "step time (ms)", "rebalances"],
        [["no straggler (even split)", straggler["baseline_step_s"] * 1e3, 0],
         ["2x straggler, static split", straggler["static_step_s"] * 1e3, 0],
         ["2x straggler, BatchLedger", straggler["rebalanced_step_s"] * 1e3,
          straggler["rebalances"]]],
        title=(f"Straggler rebalancing: rank {straggler['straggler_rank']} "
               f"2x slow, world {STRAGGLER_WORLD}, "
               f"global batch {STRAGGLER_BATCH}"),
    ))
    recovered = straggler["recovered_fraction"]
    print(f"\nStep time recovered by rebalancing: {recovered:.1%} "
          f"(target: >= 50%)")
    assert recovered >= 0.5, (
        f"rebalancing recovered only {recovered:.1%} of straggler-lost step "
        f"time (acceptance floor is 50%)"
    )

    emit_json("elastic_scaling", {
        "rejoin": rejoin,
        "straggler": straggler,
        "recovered_fraction": recovered,
        "meets_target": recovered >= 0.5,
    })


if __name__ == "__main__":
    main()
