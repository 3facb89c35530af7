"""The VQMC driver: alternating sampling and (natural-)gradient descent.

Single-process use::

    model = MADE(n=20, rng=rng)
    ham = TransverseFieldIsing.random(20, seed=0)
    vqmc = VQMC(model, ham, AutoregressiveSampler(), Adam(model.parameters()))
    history = History()
    vqmc.run(300, batch_size=1024, callbacks=[history])

Data-parallel use (the paper's §4 scheme): pass a
:class:`repro.distributed.Communicator`. Each rank draws its own mini-batch
``mbs`` (effective batch ``bs = L × mbs``), computes local statistics and
gradients, and the driver allreduces them so every rank applies the *same*
update — keeping the replicas in lock-step without ever exchanging samples.
"""

from __future__ import annotations

import hashlib
import json
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.callbacks import Callback, StopTraining
from repro.core.energy import (
    EnergyStats,
    energy_statistics,
    local_energies,
    local_energy_path,
    per_sample_grads,
)
from repro.hamiltonians.base import Hamiltonian
from repro.models.base import WaveFunction
from repro.obs.metrics import Metrics
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.optim.base import Optimizer
from repro.optim.sr import StochasticReconfiguration
from repro.samplers.base import Sampler
from repro.utils.rng import as_generator

__all__ = ["VQMC", "VQMCConfig", "StepResult", "StepDriver"]


def derive_eval_rng(rng: np.random.Generator) -> np.random.Generator:
    """Seeded evaluation fork of a sampling stream, without consuming it.

    Evaluation draws (``VQMC.evaluate``, server-side energy/sample queries)
    must never share the training stream: an interleaved evaluation would
    shift every subsequent training draw and break bit-exact
    checkpoint/recovery replays. The fork is derived by hashing the
    generator's *state* — no draws are taken, so constructing a trainer
    leaves the training stream untouched, the fork is deterministic for a
    given seed, and distinct ranks (distinct streams) get distinct
    evaluation streams.
    """
    blob = json.dumps(rng.bit_generator.state, sort_keys=True, default=repr)
    digest = hashlib.sha256(blob.encode("utf-8")).digest()
    entropy = [int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence(entropy))


@dataclass
class VQMCConfig:
    """Driver configuration.

    Attributes
    ----------
    batch_size:
        Samples per step *per rank* (the paper's ``mbs``; with L ranks the
        effective batch is ``L × batch_size``).
    max_grad_norm:
        Optional global-norm gradient clipping (applied after SR). The
        paper clips nothing; this is the standard guard for the unstable
        RBM+MCMC regimes Table 2 exposes.
    """

    batch_size: int = 1024
    max_grad_norm: float | None = None

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.max_grad_norm is not None and self.max_grad_norm <= 0:
            raise ValueError(f"max_grad_norm must be > 0, got {self.max_grad_norm}")


@dataclass
class StepResult:
    """Outcome of one optimisation step (global statistics in parallel runs)."""

    step: int
    stats: EnergyStats
    grad_norm: float
    step_time: float
    acceptance: float
    vqmc: "VQMC" = field(repr=False, default=None)
    #: this step's wall seconds per phase, keyed by the phase's span name
    #: (``sample`` / ``gradient`` / ``local_energy`` / ``sr_solve`` /
    #: ``optimizer``; only the phases that ran) — *local* to this rank,
    #: unlike ``stats``. The elastic supervisor's straggler rebalancing
    #: feeds on it.
    phase_seconds: dict = field(repr=False, default_factory=dict)
    #: which kernel measured this step's local energies: ``'fused'``
    #: (:mod:`repro.perf.flips`) or ``'dense'`` (one forward pass over all
    #: neighbours). Dense steps also bump the ``energy.dense_fallback`` counter.
    energy_path: str = ""
    #: distinct configurations among this rank's samples — the rows its
    #: local energies were evaluated on (also the ``energy.distinct_rows`` gauge)
    distinct_rows: int = 0


class VQMC:
    """Variational quantum Monte Carlo trainer.

    Parameters
    ----------
    model, hamiltonian, sampler, optimizer:
        The four interchangeable components; any model/sampler pairing that
        type-checks is allowed (MADE+AUTO, RBM+MCMC, and also MADE+MCMC for
        ablations).
        ``model.has_per_sample_grads`` is required: every step's gradient
        is the model's closed form ``log_psi_and_grads`` on the batch's
        distinct rows (:func:`repro.core.energy.per_sample_grads`).
    sr:
        Optional :class:`StochasticReconfiguration` preconditioner.
    comm:
        Optional communicator for data parallelism. When given, parameters
        are broadcast from rank 0 at construction and gradients/statistics
        are allreduced each step.
    seed:
        Seed or generator for the sampling stream. In parallel runs each
        rank must pass a *distinct* stream (see
        :func:`repro.utils.rng.spawn_generators`); the driver checks ranks
        do not accidentally share a seed by comparing first draws.
    tracer:
        Optional :class:`repro.obs.Tracer`. When given, every step emits
        nested phase spans (``step`` > ``sample`` / ``local_energy`` /
        ``gradient`` / ``sr_solve`` / ``optimizer``; ``sample`` and
        ``local_energy`` carry the kernel that ran as ``path``, ``sample``
        the rows the sampler retraced from its memory as ``retraced``,
        ``local_energy`` the distinct configurations it evaluated as
        ``distinct``, ``gradient`` the distinct rows it ran on as ``rows``,
        ``sr_solve`` how the Gram matrix was built as ``gram``) and the
        tracer is attached to
        ``comm`` (collective spans), to the sampler (fast-path spans) and
        to ``sr`` (solve sub-spans) so one per-rank timeline covers the
        whole step.
        Default: the shared disabled tracer — near-zero overhead.
    metrics:
        Optional :class:`repro.obs.Metrics` registry. Takes the driver's
        path-taken counter ``energy.dense_fallback``, the
        ``energy.distinct_rows`` gauge,
        and is forwarded to ``sr`` (per-solve ``sr.*`` counters: solves by
        path, dense Jacobians, collective bytes); snapshot it after
        a run and merge across ranks with :func:`repro.obs.merge_snapshots`.
    """

    def __init__(
        self,
        model: WaveFunction,
        hamiltonian: Hamiltonian,
        sampler: Sampler,
        optimizer: Optimizer,
        sr: StochasticReconfiguration | None = None,
        comm=None,
        seed: int | None | np.random.Generator = None,
        config: VQMCConfig | None = None,
        tracer: Tracer | None = None,
        metrics: Metrics | None = None,
    ):
        if model.n != hamiltonian.n:
            raise ValueError(
                f"model n={model.n} does not match Hamiltonian n={hamiltonian.n}"
            )
        if not model.has_per_sample_grads:
            raise TypeError(
                f"{type(model).__name__} has no per-sample gradient path "
                "(log_psi_and_grads), which every step runs"
            )
        self.model = model
        self.hamiltonian = hamiltonian
        self.sampler = sampler
        self.optimizer = optimizer
        self.sr = sr
        self.comm = comm
        self.rng = as_generator(seed)
        #: evaluation stream — a seeded fork of ``rng`` (see
        #: :func:`derive_eval_rng`); saved and restored by checkpoints so
        #: resumed runs replay evaluation draws too.
        self.eval_rng = derive_eval_rng(self.rng)
        self.config = config or VQMCConfig()
        self.global_step = 0
        self.diverged_steps = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        if tracer is not None:
            # One timeline per rank: collectives, sampler fast paths and
            # SR solve sub-spans nest inside the step's phase spans.
            if comm is not None and hasattr(comm, "attach_tracer"):
                comm.attach_tracer(tracer)
            if hasattr(sampler, "tracer"):
                sampler.tracer = tracer
            if sr is not None:
                sr.attach_tracer(tracer)
        if sr is not None and metrics is not None:
            sr.metrics = metrics

        if comm is not None and comm.size > 1:
            # All replicas must start from identical parameters.
            flat = self.model.flat_parameters()
            flat = comm.broadcast(flat, root=0)
            self.model.set_flat_parameters(flat)

    # -- one optimisation step -------------------------------------------------------

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    @contextmanager
    def _phase(self, seconds: dict, name: str, **attrs):
        """One phase of a step: a tracer span, and its wall seconds added to
        ``seconds[name]`` — one timer and one name for the trace and for
        ``StepResult.phase_seconds``."""
        t0 = time.perf_counter()
        try:
            with self.tracer.span(name, **attrs) as span:
                yield span
        finally:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0

    def step(
        self, batch_size: int | None = None, compile: str | None = None
    ) -> StepResult:
        """Sample, estimate energy and gradient, update parameters.

        The phase spans under ``step`` and the keys of ``phase_seconds``
        share their names: ``sample`` / ``local_energy`` / ``gradient`` /
        ``sr_solve`` / ``optimizer``.

        ``compile`` (``'auto'`` / ``'on'`` / ``'off'``) is checked and has no
        effect: the step-profile benchmark's frozen mirror still passes it.
        It goes when ROADMAP "Measure the program" deletes ``layer_step``.
        """
        t0 = time.perf_counter()
        bsz = self.config.batch_size if batch_size is None else batch_size
        if compile not in (None, "auto", "on", "off"):
            raise ValueError(f"unknown compile mode {compile!r}")
        phases: dict[str, float] = {}
        with self.tracer.span("step", step=self.global_step, batch=bsz):
            # The sampler groups its batch as it draws it: every per-row
            # quantity below is evaluated once per distinct row.
            with self._phase(phases, "sample", batch=bsz) as span:
                x, rows = self.sampler.draw(self.model, bsz, self.rng)
                sampled = self.sampler.last_stats.extras
                self.tracer.end(
                    span,
                    path=sampled.get("fast_path", ""),
                    pass_equiv=self.sampler.last_stats.pass_equivalents,
                    sweeps=sampled.get("sweeps"),
                    retraced=sampled.get("retraced"),
                )
            energy_path = local_energy_path(self.model, self.hamiltonian)
            if energy_path == "dense":
                self._count("energy.dense_fallback")
            # Drop the last step's gradients before this step's temporaries
            # are allocated: the heap then reuses their blocks.
            self.model.zero_grad()
            # The gradient path computes log ψ(x) alongside the O matrix and
            # hands it to the local energies. Only the dense path uses it; the
            # fused path (the default for every TIM/ZZX run) needs the
            # activations, so it runs its own cached forward pass.
            with self._phase(phases, "gradient") as span:
                lp, o = per_sample_grads(self.model, x, rows)
                self.tracer.end(span, rows=rows.count)
            with self._phase(phases, "local_energy", path=energy_path) as span:
                local = local_energies(
                    self.model, self.hamiltonian, x, log_psi_x=lp, rows=rows
                )
                stats = self._combine_stats(local)
                self.tracer.end(span, distinct=rows.count)
            if self.metrics is not None:
                self.metrics.set("energy.distinct_rows", rows.count)
            # ∇L = 2⟨(l − L̄) O⟩, centred with the *global* mean and normalised
            # by the *global* count so distributed gradients average to the
            # exact big-batch estimator even with unequal per-rank batches.
            with self._phase(phases, "gradient", rows=rows.count):
                grad = (local - stats.mean) @ o
                grad *= 2.0
                grad = self._allreduce(grad) / stats.count
            if self.sr is not None:
                # Communicator-aware: every rank solves the identical global
                # system, from one allgather of O's rows (or layer factors).
                with self._phase(phases, "sr_solve") as span:
                    grad = self.sr.natural_gradient(o, grad, comm=self.comm)
                    self.tracer.end(span, gram=self.sr.last_solve.gram)
            with self._phase(phases, "optimizer"):
                if self.config.max_grad_norm is not None:
                    norm = float(np.linalg.norm(grad))
                    if norm > self.config.max_grad_norm:
                        grad = grad * (self.config.max_grad_norm / norm)
                if np.all(np.isfinite(grad)):
                    self.model.set_flat_grad(grad)
                    self.optimizer.step()
                else:
                    # Divergence guard: a non-finite gradient (overflowing
                    # ratios, singular SR solve) would poison the parameters.
                    # Skip the update; callbacks see it in grad_norm.
                    self.diverged_steps += 1
        self.global_step += 1
        return StepResult(
            step=self.global_step,
            stats=stats,
            grad_norm=float(np.linalg.norm(grad)),
            step_time=time.perf_counter() - t0,
            acceptance=self.sampler.last_stats.acceptance_rate,
            vqmc=self,
            energy_path=energy_path,
            distinct_rows=rows.count,
            phase_seconds=phases,
        )

    # -- distributed reductions ------------------------------------------------------

    def _world_size(self) -> int:
        return self.comm.size if self.comm is not None else 1

    def _allreduce(self, arr: np.ndarray) -> np.ndarray:
        if self.comm is None or self.comm.size == 1:
            return arr
        return self.comm.allreduce(arr, op="sum")

    def _combine_stats(self, local: np.ndarray) -> EnergyStats:
        if self._world_size() == 1:
            return energy_statistics(local)
        moments = np.array([local.size, local.sum(), (local**2).sum()])
        total, s1, s2 = self.comm.allreduce(moments, op="sum")
        if total <= 0:
            # A server's cancelled/empty batched query can legitimately ask
            # for statistics over zero samples; dividing through would make
            # NaNs here and a ZeroDivisionError downstream.
            return EnergyStats.empty()
        mean = s1 / total
        var = max(s2 / total - mean**2, 0.0)
        std = float(np.sqrt(var))
        return EnergyStats(
            mean=float(mean),
            std=std,
            sem=std / np.sqrt(total),
            count=int(total),
        )

    # -- training loop -----------------------------------------------------------------

    def run(
        self,
        iterations: int,
        batch_size: int | None = None,
        callbacks: Sequence[Callback] = (),
    ) -> list[StepResult]:
        """Run ``iterations`` optimisation steps; returns all step results.

        ``on_run_end`` is delivered from the driver's teardown, so sinks
        like :class:`~repro.utils.runlog.RunLogger` and
        :class:`~repro.obs.ObsCallback` write their footer (and flush to
        disk) even when a step or callback raises mid-run. When the run is
        dying on an exception, callbacks that define ``on_crash(vqmc, exc)``
        (e.g. :class:`~repro.obs.flight.FlightRecorder`) are notified first,
        so black-box dumps happen before footers are written. Each teardown
        delivery is *isolated*: one raising callback can neither starve the
        remaining callbacks of their hooks nor mask the original training
        exception (see :class:`StepDriver`).

        ``run`` is a convenience façade over :class:`StepDriver`; callers
        that need to pause, checkpoint, cancel, or interleave work between
        steps (the ``repro.serve`` worker pool, the elastic
        :class:`~repro.distributed.supervisor.TrainingSupervisor`) drive a
        :class:`StepDriver` directly.
        """
        driver = StepDriver(
            self, iterations, batch_size=batch_size, callbacks=callbacks
        )
        return driver.run()

    # -- evaluation ---------------------------------------------------------------------

    def evaluate(
        self, batch_size: int = 1024, rng: np.random.Generator | None = None
    ) -> EnergyStats:
        """Draw a fresh evaluation batch and report its energy statistics
        (the paper's test-time protocol, §5.1).

        Draws come from ``eval_rng`` — a seeded fork of the training
        stream, never the training stream itself — so interleaving
        evaluations (or server-side energy queries) with training leaves
        the training trajectory bit-exact. Pass an explicit ``rng`` to
        evaluate from a caller-owned stream instead.
        """
        gen = rng if rng is not None else self.eval_rng
        x, rows = self.sampler.draw(self.model, batch_size, gen)
        local = local_energies(self.model, self.hamiltonian, x, rows=rows)
        return self._combine_stats(local)


def _deliver_teardown(
    callbacks: Sequence[Callback], vqmc: VQMC, exc: BaseException | None
) -> None:
    """Deliver ``on_crash`` (when dying on ``exc``) then ``on_run_end`` to
    every callback, isolating each delivery.

    A raising callback used to skip delivery to all remaining callbacks —
    the flight recorder never dumped, the RunLogger footer was lost — and
    could mask the original training exception. Now every callback gets its
    hooks; errors raised *by* callbacks are logged as warnings. When there
    is no original exception to propagate, the first callback error is
    re-raised after all deliveries (so a broken sink still fails loudly).
    """
    errors: list[tuple[object, str, Exception]] = []
    if exc is not None and not isinstance(exc, StopTraining):
        for cb in callbacks:
            on_crash = getattr(cb, "on_crash", None)
            if on_crash is None:
                continue
            try:
                on_crash(vqmc, exc)
            except Exception as cb_exc:  # noqa: BLE001 — isolation is the point
                errors.append((cb, "on_crash", cb_exc))
    for cb in callbacks:
        try:
            cb.on_run_end(vqmc)
        except Exception as cb_exc:  # noqa: BLE001
            errors.append((cb, "on_run_end", cb_exc))
    for cb, hook, cb_exc in errors:
        warnings.warn(
            f"callback {type(cb).__name__}.{hook} raised "
            f"{type(cb_exc).__name__}: {cb_exc} (delivery was isolated; "
            "remaining callbacks still ran)",
            RuntimeWarning,
            stacklevel=3,
        )
    if exc is None and errors:
        raise errors[0][2]


class StepDriver:
    """Re-entrant stepwise training loop: the engine under :meth:`VQMC.run`.

    A driver owns one run's worth of callback lifecycle but hands control
    back to the caller between steps, which is what long-lived consumers
    need: the ``repro.serve`` worker pool pauses, checkpoints, cancels and
    resumes jobs at step boundaries; the elastic supervisor syncs, recovers
    and rebalances between steps; tests single-step through training.

    Usage::

        driver = StepDriver(vqmc, iterations=100, callbacks=[history])
        with driver:                       # on_run_begin / teardown
            while not driver.done:
                if should_cancel():
                    driver.cancel()        # leaves state restorable
                    break
                driver.step_once()

    Contract:

    - :meth:`step_once` runs exactly one optimisation step and delivers
      ``on_step``; it returns ``None`` once the loop is exhausted,
      stopped by :class:`StopTraining`, or cancelled.
    - :meth:`finish` delivers ``on_crash`` (if dying on an exception) and
      ``on_run_end`` exactly once, each isolated per callback so one
      raising sink cannot starve the others or mask the original error.
    - The context manager and :meth:`run` wire the two together; driving
      manually, call ``finish(exc_or_None)`` from your own ``finally``.
    """

    def __init__(
        self,
        vqmc: VQMC,
        iterations: int,
        batch_size: int | None = None,
        callbacks: Sequence[Callback] = (),
    ):
        if iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {iterations}")
        self.vqmc = vqmc
        #: the loop ends when ``vqmc.global_step`` reaches this — counted on
        #: the trainer's own step counter, so a checkpoint restore that
        #: rewinds it (elastic recovery) makes the driver replay the lost steps
        self.stop_step = vqmc.global_step + iterations
        self.batch_size = batch_size  #: of the next step; settable between steps
        self.callbacks = tuple(callbacks)
        #: steps this driver ran. Their results go to the caller and the
        #: callbacks and are not kept: a served job or a supervised run may
        #: be arbitrarily long.
        self.steps_done = 0
        self.stopped = False  #: a callback raised StopTraining
        self.cancelled = False  #: cancel() was called
        self._begun = False
        self._finished = False

    @property
    def done(self) -> bool:
        """True when no further :meth:`step_once` call will run a step."""
        return (
            self._finished
            or self.stopped
            or self.cancelled
            or self.vqmc.global_step >= self.stop_step
        )

    def begin(self) -> None:
        """Deliver ``on_run_begin`` (idempotent; auto-called by step_once)."""
        if self._begun:
            return
        self._begun = True
        for cb in self.callbacks:
            cb.on_run_begin(self.vqmc)

    def _step(self) -> StepResult | None:
        """One step plus ``on_step`` delivery — the step's result even when
        a callback answers it with :class:`StopTraining`."""
        if self._finished:
            raise RuntimeError("StepDriver.finish() already ran")
        self.begin()
        if self.done:
            return None
        result = self.vqmc.step(self.batch_size)
        self.steps_done += 1
        try:
            for cb in self.callbacks:
                cb.on_step(result.step, result)
        except StopTraining:
            self.stopped = True
        return result

    def step_once(self) -> StepResult | None:
        """Run one step and deliver ``on_step``; ``None`` when done.

        :class:`StopTraining` raised by a callback marks the driver
        ``stopped`` (matching :meth:`VQMC.run`'s early-exit semantics);
        any other exception propagates — the caller's ``finally`` (or the
        context manager) routes it into :meth:`finish`.
        """
        result = self._step()
        return None if self.stopped else result

    def cancel(self) -> None:
        """Mark the loop done; the trainer stays restorable (checkpoint it
        before or after — no step is in flight between step_once calls)."""
        self.cancelled = True

    def finish(self, exc: BaseException | None = None) -> None:
        """Deliver teardown hooks exactly once (see :func:`_deliver_teardown`)."""
        if self._finished:
            return
        self._finished = True
        self.begin()  # a zero-step run still brackets its callbacks
        _deliver_teardown(self.callbacks, self.vqmc, exc)

    def run(self) -> list[StepResult]:
        """Drive to completion with :meth:`VQMC.run` semantics."""
        results: list[StepResult] = []
        self.begin()
        try:
            while not self.done:
                results.append(self._step())
        except BaseException as exc:
            self.finish(exc)
            raise
        self.finish(None)
        return results

    def __enter__(self) -> "StepDriver":
        self.begin()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish(exc if not isinstance(exc, StopTraining) else None)
        return isinstance(exc, StopTraining)
