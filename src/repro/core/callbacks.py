"""Training callbacks: history, hitting-time early stop, progress printing."""

from __future__ import annotations

import sys
import time
from typing import Callable, TextIO

import numpy as np

__all__ = [
    "Callback",
    "History",
    "HittingTime",
    "ProgressPrinter",
    "StopTraining",
]


class StopTraining(Exception):
    """Raised by a callback to end :meth:`repro.core.VQMC.run` early."""


class Callback:
    """Base class; all hooks are optional no-ops."""

    def on_run_begin(self, vqmc) -> None:  # noqa: D102
        pass

    def on_step(self, step: int, result) -> None:
        """Called after every optimisation step with its :class:`StepResult`."""

    def on_run_end(self, vqmc) -> None:  # noqa: D102
        pass


class History(Callback):
    """Records per-step scalars (the data behind the paper's Figure 2 curves)."""

    def __init__(self) -> None:
        self.energy: list[float] = []
        self.std: list[float] = []
        self.grad_norm: list[float] = []
        self.step_time: list[float] = []
        self.acceptance: list[float] = []

    def on_step(self, step: int, result) -> None:
        self.energy.append(result.stats.mean)
        self.std.append(result.stats.std)
        self.grad_norm.append(result.grad_norm)
        self.step_time.append(result.step_time)
        self.acceptance.append(result.acceptance)

    def as_arrays(self) -> dict[str, np.ndarray]:
        return {
            "energy": np.asarray(self.energy),
            "std": np.asarray(self.std),
            "grad_norm": np.asarray(self.grad_norm),
            "step_time": np.asarray(self.step_time),
            "acceptance": np.asarray(self.acceptance),
        }

    def __len__(self) -> int:
        return len(self.energy)


class HittingTime(Callback):
    """Stop when an evaluation score first surpasses a target (paper §6.3).

    After each training step the callback draws a fresh evaluation batch,
    computes ``score_fn`` on it, and raises :class:`StopTraining` when the
    target is reached. Matching §6.3, evaluation time is excluded from the
    reported hitting time: we accumulate only the training ``step_time``.

    Parameters
    ----------
    target:
        Score threshold (e.g. a cut number).
    score_fn:
        Maps an ``(B, n)`` evaluation batch to a scalar score. Default —
        set by the driver — is the mean negated energy of the batch.
    eval_batch_size:
        Size of the per-step evaluation batch (paper uses the training bs).
    """

    def __init__(
        self,
        target: float,
        score_fn: Callable[[np.ndarray], float] | None = None,
        eval_batch_size: int = 1024,
    ):
        self.target = target
        self.score_fn = score_fn
        self.eval_batch_size = eval_batch_size
        self.hit_step: int | None = None
        self.hit_time: float | None = None
        self.best_score: float = -np.inf
        self._train_time = 0.0

    def on_step(self, step: int, result) -> None:
        self._train_time += result.step_time
        vqmc = result.vqmc
        x = vqmc.sampler.sample(vqmc.model, self.eval_batch_size, vqmc.rng)
        if self.score_fn is not None:
            score = float(self.score_fn(x))
        else:
            from repro.core.energy import local_energies

            score = float(-local_energies(vqmc.model, vqmc.hamiltonian, x).mean())
        self.best_score = max(self.best_score, score)
        if score >= self.target:
            self.hit_step = step
            self.hit_time = self._train_time
            raise StopTraining(
                f"target {self.target} reached at step {step} "
                f"(training time {self._train_time:.2f}s)"
            )


class ProgressPrinter(Callback):
    """Prints a one-line summary every ``every`` steps."""

    def __init__(self, every: int = 10, stream: TextIO | None = None):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.every = every
        self.stream = stream if stream is not None else sys.stderr
        self._start = 0.0

    def on_run_begin(self, vqmc) -> None:
        self._start = time.perf_counter()

    def on_step(self, step: int, result) -> None:
        if step % self.every:
            return
        elapsed = time.perf_counter() - self._start
        print(
            f"[step {step:5d}] E = {result.stats.mean:12.4f} "
            f"± {result.stats.sem:8.4f}  std = {result.stats.std:10.4f}  "
            f"|g| = {result.grad_norm:9.3e}  t = {elapsed:8.2f}s",
            file=self.stream,
        )
