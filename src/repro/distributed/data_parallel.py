"""Turn-key data-parallel VQMC runs (the paper's §4 scheme, end to end).

Each rank builds its own model replica (same seed ⇒ same initialisation,
and the driver broadcasts parameters from rank 0 anyway), draws ``mbs``
samples per step from its *own* random stream, and the
:class:`repro.core.VQMC` driver allreduces gradients/statistics so all
replicas stay in lock-step. The effective batch size is
``bs = world_size × mbs`` — Figure 4's x-axis.

:func:`run_data_parallel` is the one launcher: every rank runs a
:class:`~repro.distributed.supervisor.TrainingSupervisor`, which without a
``checkpoint_dir`` has nothing to supervise — the static scheme above, on
the bare backend communicator.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.callbacks import History
from repro.core.vqmc import VQMC
from repro.distributed.comm import build_comm
from repro.distributed.faults import FaultInjectionCallback
from repro.distributed.ledger import BatchLedger
from repro.distributed.resilient import RetryPolicy
from repro.distributed.supervisor import TrainingSupervisor
from repro.utils.rng import spawn_generators

__all__ = ["DataParallelResult", "run_data_parallel"]

Builder = Callable[[int], tuple]


@dataclass
class DataParallelResult:
    """A data-parallel training run: rank 0's curve, every rank's account."""

    energy: np.ndarray  # per-step global mean energy (replayed steps repeat)
    std: np.ndarray  # per-step global std of local energies
    final_energy: float  # NaN if rank 0 did not finish the run
    final_std: float
    world_size: int
    effective_batch_size: int
    wall_time: float
    #: every rank's :class:`~repro.distributed.supervisor.ResilientRunReport`
    reports: list = field(default_factory=list)
    #: every rank's final flat parameter vector
    final_params: list = field(default_factory=list)


def _worker(comm, rank, builder, iterations, mini_batch_size, seed, opts):
    """One rank: ``(rank's view of the run, its report, final parameters)``."""
    opts = dict(opts)
    plan, retry = opts.pop("plan"), opts.pop("retry")
    ledger_opts, ledger_log = opts.pop("ledger_opts"), opts.pop("ledger_log")
    if opts["checkpoint_dir"] is not None and retry is None:
        retry = RetryPolicy(max_attempts=2, backoff_base=0.01, attempt_timeout=0.25)
    world = comm.size
    model, hamiltonian, sampler, optimizer, *sr = builder(rank)
    vqmc = VQMC(
        model,
        hamiltonian,
        sampler,
        optimizer,
        sr=sr[0] if sr else None,
        comm=build_comm(comm, plan=plan, retry=retry),
        seed=spawn_generators(seed, world)[rank],
    )
    history = History()
    callbacks = [history, *opts.pop("callbacks", ())]
    if plan is not None:
        callbacks.append(FaultInjectionCallback(plan, rank))
    ledger = None
    if ledger_opts is not None:
        ledger = BatchLedger(world * mini_batch_size, world, **ledger_opts)
    supervisor = TrainingSupervisor(vqmc, callbacks=callbacks, ledger=ledger, **opts)
    t0 = time.perf_counter()
    report = supervisor.run(iterations, batch_size=mini_batch_size)
    wall = time.perf_counter() - t0
    if ledger_log is not None and rank == 0:
        ledger.dump(ledger_log)
    final_energy = final_std = float("nan")
    if not (report.crashed or report.evicted):
        final = vqmc.evaluate(batch_size=mini_batch_size)
        final_energy, final_std = final.mean, final.std
    view = DataParallelResult(
        energy=np.asarray(history.energy),
        std=np.asarray(history.std),
        final_energy=final_energy,
        final_std=final_std,
        world_size=world,
        effective_batch_size=world * mini_batch_size,
        wall_time=wall,
    )
    return view, report, model.flat_parameters()


def run_data_parallel(
    builder: Builder,
    world_size: int,
    iterations: int,
    mini_batch_size: int,
    seed: int = 0,
    backend: str = "threads",
    timeout: float = 600.0,
    *,
    checkpoint_dir=None,
    plan=None,
    retry: RetryPolicy | None = None,
    ledger_opts: dict | None = None,
    ledger_log=None,
    **supervisor_opts: Any,
) -> DataParallelResult:
    """Train VQMC data-parallel over ``world_size`` ranks; returns rank 0's
    view of the run plus every rank's report and final parameters.

    Parameters
    ----------
    builder:
        ``rank -> (model, hamiltonian, sampler, optimizer[, sr])``. Called
        once inside each rank. Models may be initialised arbitrarily — the
        driver broadcasts rank 0's parameters before the first step.
    backend:
        ``'threads'`` (default, cheap) or ``'processes'`` (fork; honest
        address-space separation).
    checkpoint_dir:
        ``None``: static data parallelism — no checkpoint, a rank failure
        fails the run. A directory: elastic supervision — per-rank
        crash-safe checkpoints there, checksummed retrying channels
        (``retry``, default a fast-escalating
        :class:`~repro.distributed.resilient.RetryPolicy`), dead ranks
        shrunk away.
    plan:
        A :class:`~repro.distributed.faults.FaultPlan` to inject (chaos
        testing): op-scoped events through :func:`~repro.distributed.comm
        .build_comm`, step-scoped ones through a callback.
    ledger_opts:
        When given (``{}`` for defaults), a
        :class:`~repro.distributed.ledger.BatchLedger` over the global batch
        ``world_size × mini_batch_size`` owns the per-rank split; rank 0
        dumps its history to ``ledger_log`` (for ``tools/trace.py summary``).
    **supervisor_opts:
        Forwarded to :class:`~repro.distributed.supervisor
        .TrainingSupervisor` (``callbacks``, ``checkpoint_every``,
        ``elastic``, ``accept_joins``, ``sync_every``, ``policy`` …).
    """
    if backend not in ("threads", "processes"):
        # Validate before the world_size == 1 shortcut: a typo'd backend
        # must fail loudly at any world size, not only when it is reached.
        raise ValueError(
            f"unknown backend {backend!r}; expected 'threads' or 'processes'"
        )
    opts = dict(
        supervisor_opts,
        checkpoint_dir=checkpoint_dir,
        plan=plan,
        retry=retry,
        ledger_opts=ledger_opts,
        ledger_log=ledger_log,
    )
    args = (builder, iterations, mini_batch_size, seed, opts)
    if world_size == 1:
        from repro.distributed.serial import SerialCommunicator

        per_rank = [_worker(SerialCommunicator(), 0, *args)]
    elif backend == "threads":
        from repro.distributed.threads import run_threaded

        per_rank = run_threaded(_worker, world_size, args=args, timeout=timeout)
    else:
        from repro.distributed.mp import run_processes

        per_rank = run_processes(_worker, world_size, args=args, timeout=timeout)
    result = per_rank[0][0]
    result.reports = [report for _, report, _ in per_rank]
    result.final_params = [params for _, _, params in per_rank]
    return result
