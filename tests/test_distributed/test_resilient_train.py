"""End-to-end fault-tolerant training: crash, shrink, resume bit-exactly.

The acceptance contract pinned here (on all three backends):

- A :class:`FaultPlan` kills one rank and transiently corrupts one message
  mid-run. Training still completes every requested step.
- The survivors' final parameters are *bit-identical* to a fault-free
  world-2 run that takes the same resume path (restores the same agreed
  checkpoint and finishes the remaining steps) — recovery is a replay,
  not an approximation.
- Serial runs have no peers to shrink with; their story is crash/restart:
  a fresh ``train_resilient(resume="auto")`` after an injected crash must
  reproduce the uninterrupted run bit-exactly.
- Worker failures in ``run_threaded``/``run_processes`` surface with rank
  attribution and the original traceback, never as an anonymous hang.
"""

from __future__ import annotations

import pathlib
import re
import shutil

import numpy as np
import pytest

from repro.core.vqmc import VQMC
from repro.distributed import (
    CommTimeoutError,
    ElasticConfig,
    FaultEvent,
    FaultInjectionCallback,
    FaultPlan,
    FaultyCommunicator,
    ResilientCommunicator,
    RetryPolicy,
    WorkerFailure,
    run_threaded,
    train_resilient,
)
from repro.distributed.mp import run_processes
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.optim import SGD
from repro.samplers import AutoregressiveSampler

pytestmark = pytest.mark.faults

ITERATIONS = 6
CRASH_STEP = 4
CHECKPOINT_EVERY = 2


def _make_vqmc(comm, rank):
    model = MADE(6, hidden=8, rng=np.random.default_rng(3))
    ham = TransverseFieldIsing.random(6, seed=1)
    return VQMC(
        model, ham, AutoregressiveSampler(),
        SGD(model.parameters(), lr=0.05),
        comm=comm, seed=100 + rank,
    )


def _e2e_worker(comm, rank, ckpt_dir, iterations, plan):
    """One rank of a resilient run; returns (report, final flat params)."""
    policy = RetryPolicy(max_attempts=2, backoff_base=0.01, attempt_timeout=0.25)
    inner = FaultyCommunicator(comm, plan) if plan is not None else comm
    rcomm = ResilientCommunicator(inner, policy)
    vqmc = _make_vqmc(rcomm, rank)
    callbacks = [FaultInjectionCallback(plan, rank)] if plan is not None else []
    report = train_resilient(
        vqmc, iterations,
        batch_size=16,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=CHECKPOINT_EVERY,
        callbacks=callbacks,
        elastic=ElasticConfig(),
    )
    return report, vqmc.model.flat_parameters()


def _faulty_plan(world_size):
    """Kill the last rank at CRASH_STEP; corrupt one rank-0 message early."""
    return FaultPlan([
        FaultEvent(kind="crash", rank=world_size - 1, step=CRASH_STEP),
        FaultEvent(kind="corrupt", rank=0, index=3, transient=True),
    ])


def _seed_reference_dir(src, dst, max_step):
    """Copy checkpoints with step <= max_step into a fresh directory, so a
    reference run can take exactly the faulty run's resume path."""
    dst = pathlib.Path(dst)
    dst.mkdir(parents=True, exist_ok=True)
    for f in pathlib.Path(src).glob("checkpoint_*.npz"):
        step = int(re.match(r"checkpoint_(\d{8})", f.name).group(1))
        if step <= max_step:
            shutil.copy2(f, dst / f.name)


def _check_recovery_run(runner, tmp_path):
    faulty_dir = tmp_path / "faulty"
    results = runner(
        _e2e_worker, 3,
        args=(str(faulty_dir), ITERATIONS, _faulty_plan(3)),
        timeout=120.0,
    )
    reports = [r[0] for r in results]

    # the scheduled victim crashed; the survivors finished every step
    assert reports[2].crashed and reports[2].completed_steps == CRASH_STEP
    for rep in reports[:2]:
        assert rep.completed_steps == ITERATIONS
        assert rep.final_group == [0, 1]
        assert rep.restores == [
            {"epoch": 1, "restored_step": CRASH_STEP, "group": [0, 1]}
        ]
    # the injected corruption was caught by a survivor's checksum and retried
    total = {k: reports[0].comm_stats[k] + reports[1].comm_stats[k]
             for k in reports[0].comm_stats}
    assert total["checksum_errors"] >= 1
    assert total["rank_failures"] >= 1  # the escalation that triggered the shrink

    # reference: a fault-free world-2 run taking the same resume path —
    # restore the same agreed checkpoint, finish the remaining steps
    ref_dir = tmp_path / "reference"
    _seed_reference_dir(faulty_dir, ref_dir, max_step=CRASH_STEP)
    reference = runner(
        _e2e_worker, 2, args=(str(ref_dir), ITERATIONS, None), timeout=120.0,
    )
    for rank in (0, 1):
        assert reference[rank][0].completed_steps == ITERATIONS
        assert np.array_equal(results[rank][1], reference[rank][1]), (
            f"rank {rank}: post-recovery parameters diverge from the "
            "fault-free resume path"
        )


class TestEndToEndRecovery:
    def test_threads_crash_and_corruption_bit_exact(self, tmp_path):
        _check_recovery_run(run_threaded, tmp_path)

    def test_processes_crash_and_corruption_bit_exact(self, tmp_path):
        _check_recovery_run(run_processes, tmp_path)

    def test_serial_crash_restart_bit_exact(self, tmp_path):
        # run 1: injected crash at step 3 (last checkpoint is step 2)
        plan = FaultPlan([FaultEvent(kind="crash", rank=0, step=3)])
        vqmc = _make_vqmc(None, 0)
        report = train_resilient(
            vqmc, ITERATIONS,
            batch_size=16,
            checkpoint_dir=tmp_path / "run",
            checkpoint_every=CHECKPOINT_EVERY,
            callbacks=[FaultInjectionCallback(plan, 0)],
        )
        assert report.crashed and report.completed_steps == 3

        # run 2: restart in the same directory; resume="auto" restores the
        # newest verifying checkpoint and replays steps 3..6
        vqmc2 = _make_vqmc(None, 0)
        report2 = train_resilient(
            vqmc2, ITERATIONS,
            batch_size=16,
            checkpoint_dir=tmp_path / "run",
            checkpoint_every=CHECKPOINT_EVERY,
        )
        assert report2.completed_steps == ITERATIONS

        # reference: the same training uninterrupted
        vqmc3 = _make_vqmc(None, 0)
        train_resilient(
            vqmc3, ITERATIONS,
            batch_size=16,
            checkpoint_dir=tmp_path / "clean",
            checkpoint_every=CHECKPOINT_EVERY,
        )
        assert np.array_equal(
            vqmc2.model.flat_parameters(), vqmc3.model.flat_parameters()
        )


# -- worker failure attribution ------------------------------------------------


def _raise_on_rank_1(comm, rank):
    if rank == 1:
        raise ValueError("boom-42")
    return "ok"


def _wedge_ranks_0_and_2(comm, rank):
    if rank == 1:
        raise ValueError("boom-42")
    # Ranks 0 and 2 wait on each other, far past the runner's deadline. (A
    # wait on rank 1 would not wedge: its exit fails that recv at once.)
    comm.recv(2 - rank, timeout=30.0)
    return None


class TestWorkerFailureAttribution:
    def test_threads_reraise_original_exception(self):
        with pytest.raises(ValueError, match="boom-42"):
            run_threaded(_raise_on_rank_1, 2)

    def test_threads_wedged_rank_reported_alongside_failure(self):
        with pytest.raises(WorkerFailure) as info:
            run_threaded(_wedge_ranks_0_and_2, 3, timeout=2.0)
        assert list(info.value.failures) == [1]
        assert "boom-42" in info.value.failures[1]
        assert info.value.wedged == [0, 2]
        assert "rank 1" in str(info.value)

    def test_processes_attribute_rank_and_traceback(self):
        with pytest.raises(WorkerFailure) as info:
            run_processes(_raise_on_rank_1, 2, timeout=60.0)
        assert list(info.value.failures) == [1]
        assert "boom-42" in info.value.failures[1]
        assert "ValueError" in info.value.failures[1]  # original traceback

    def test_threads_pure_wedge_times_out(self):
        def worker(comm, rank):
            # each waits on the other: nobody fails, nobody exits
            comm.recv(1 - rank, timeout=30.0)

        with pytest.raises(CommTimeoutError, match=r"ranks \[0, 1\]"):
            run_threaded(worker, 2, timeout=1.0)


# -- soak ----------------------------------------------------------------------


def _soak_plan():
    return FaultPlan([
        FaultEvent(kind="delay", rank=0, index=2, delay=0.02),
        FaultEvent(kind="corrupt", rank=0, index=6, transient=True),
        FaultEvent(kind="duplicate", rank=1, index=4),
        FaultEvent(kind="corrupt", rank=1, index=9, transient=True),
        FaultEvent(kind="crash", rank=2, step=6),
    ], seed=7)


def _soak_worker(comm, rank, ckpt_dir):
    return _e2e_worker(comm, rank, ckpt_dir, 10, _soak_plan())


@pytest.mark.slow
class TestSoak:
    def test_processes_multi_fault_schedule(self, tmp_path):
        """A process-backed world rides out stragglers, duplicates, repeated
        transient corruption and a crash, and the surviving replicas stay in
        lock-step (identical parameters — the data-parallel invariant)."""
        results = run_processes(
            _soak_worker, 3, args=(str(tmp_path / "soak"),), timeout=300.0
        )
        reports = [r[0] for r in results]
        assert reports[2].crashed
        for rep in reports[:2]:
            assert rep.completed_steps == 10
            assert rep.final_group == [0, 1]
            assert rep.restores
        assert np.array_equal(results[0][1], results[1][1])
