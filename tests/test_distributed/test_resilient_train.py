"""End-to-end fault-tolerant training: crash, shrink, resume bit-exactly.

The acceptance contract pinned here (on all three backends):

- A :class:`FaultPlan` kills one rank and transiently corrupts one message
  mid-run. Training still completes every requested step.
- The survivors' final parameters are *bit-identical* to a fault-free
  world-2 run that takes the same resume path (restores the same agreed
  checkpoint and finishes the remaining steps) — recovery is a replay,
  not an approximation.
- Serial runs have no peers to shrink with; their story is crash/restart:
  a fresh ``resume="auto"`` run after an injected crash must reproduce the
  uninterrupted run bit-exactly.
- Worker failures in ``run_threaded``/``run_processes`` surface with rank
  attribution and the original traceback, never as an anonymous hang.
"""

from __future__ import annotations

import pathlib
import re
import shutil

import numpy as np
import pytest

from repro.distributed import (
    CommTimeoutError,
    ElasticConfig,
    FaultEvent,
    FaultPlan,
    WorkerFailure,
    run_data_parallel,
    run_threaded,
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


def _builder(rank):
    model = MADE(6, hidden=8, rng=np.random.default_rng(3))
    ham = TransverseFieldIsing.random(6, seed=1)
    return model, ham, AutoregressiveSampler(), SGD(model.parameters(), lr=0.05)


def _run(backend, world, ckpt_dir, plan=None, iterations=ITERATIONS):
    """A supervised run through the one launcher (its default retry policy
    escalates in well under a second)."""
    return run_data_parallel(
        _builder, world, iterations, 16, seed=100, backend=backend, timeout=120.0,
        checkpoint_dir=ckpt_dir, plan=plan,
        checkpoint_every=CHECKPOINT_EVERY, elastic=ElasticConfig(),
    )


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


def _check_recovery_run(backend, tmp_path):
    faulty_dir = tmp_path / "faulty"
    faulty = _run(backend, 3, faulty_dir, _faulty_plan(3))
    reports = faulty.reports

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
    reference = _run(backend, 2, ref_dir)
    for rank in (0, 1):
        assert reference.reports[rank].completed_steps == ITERATIONS
        assert np.array_equal(
            faulty.final_params[rank], reference.final_params[rank]
        ), f"rank {rank}: post-recovery parameters diverge from the fault-free resume path"
    assert np.isfinite(faulty.final_energy)  # survivors evaluated on the shrunken world


class TestEndToEndRecovery:
    def test_threads_crash_and_corruption_bit_exact(self, tmp_path):
        _check_recovery_run("threads", tmp_path)

    def test_processes_crash_and_corruption_bit_exact(self, tmp_path):
        _check_recovery_run("processes", tmp_path)

    def test_serial_crash_restart_bit_exact(self, tmp_path):
        # run 1: injected crash at step 3 (last checkpoint is step 2)
        plan = FaultPlan([FaultEvent(kind="crash", rank=0, step=3)])
        report = _run("threads", 1, tmp_path / "run", plan).reports[0]
        assert report.crashed and report.completed_steps == 3

        # run 2: restart in the same directory; resume="auto" restores the
        # newest verifying checkpoint and replays steps 3..6
        restarted = _run("threads", 1, tmp_path / "run")
        assert restarted.reports[0].completed_steps == ITERATIONS

        # reference: the same training uninterrupted
        clean = _run("threads", 1, tmp_path / "clean")
        assert np.array_equal(restarted.final_params[0], clean.final_params[0])


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


@pytest.mark.slow
class TestSoak:
    def test_processes_multi_fault_schedule(self, tmp_path):
        """A process-backed world rides out stragglers, duplicates, repeated
        transient corruption and a crash, and the surviving replicas stay in
        lock-step (identical parameters — the data-parallel invariant)."""
        result = _run("processes", 3, tmp_path / "soak", _soak_plan(), iterations=10)
        reports = result.reports
        assert reports[2].crashed
        for rep in reports[:2]:
            assert rep.completed_steps == 10
            assert rep.final_group == [0, 1]
            assert rep.restores
        assert np.array_equal(result.final_params[0], result.final_params[1])
