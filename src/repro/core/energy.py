"""Local energies (Eq. 3) and Monte-Carlo gradient estimators (Eq. 5).

Local energy::

    l(x) = (Hψ)(x) / ψ(x) = H_xx + Σ_{y ≠ x, H_xy ≠ 0} H_xy ψ(y)/ψ(x)

The sum runs over the ``connected`` configurations of the Hamiltonian row —
``O(s)`` terms per sample (Definition 2.1). For Hamiltonians exposing a
structured single-flip row description (Eq. 11 family) the log-ratios are
delta-evaluated by the fused kernel in :mod:`repro.perf.flips` from ONE
cached forward pass; otherwise they fall back to one batched forward pass
over all ``B × K`` dense neighbours — either way the measurement pattern
the paper's complexity analysis in §4 counts as "a fixed number of forward
passes".

Gradient (Eq. 5)::

    ∇L(θ) = 2 E[(l(x) − L) ∇θ log ψθ(x)] .

Two equivalent estimators are provided:

- ``grad_via_autograd`` — builds the surrogate scalar
  ``2 · mean(stop_grad(l − l̄) · log ψ(x))`` and backpropagates; exercises
  the tape engine exactly like the PyTorch original.
- ``grad_from_per_sample`` — contracts the hand-vectorised per-sample
  log-derivative matrix ``O`` (an array, or the layers' factors of one)
  with the centred local energies; this path is shared with stochastic
  reconfiguration which needs ``O`` anyway.

Both are the serial reference forms. ``VQMC.step`` computes the same two
estimators centred on the *global* mean (so they distribute) and is pinned
to these bit-for-bit in ``tests/test_core/test_step_contract.py``.

The centring by ``l̄`` is the standard control variate: it leaves the
expectation unchanged (``E[∇ log ψ] = ∇ Σπ/2 = 0`` for normalised models)
but removes the dominant variance term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hamiltonians.base import Hamiltonian
from repro.models.base import WaveFunction, group_configurations
from repro.models.made import MADE
from repro.tensor.tensor import no_grad
from repro.utils.rows import DistinctRows

__all__ = [
    "EnergyStats",
    "local_energies",
    "local_energy_path",
    "energy_statistics",
    "grad_via_autograd",
    "grad_from_per_sample",
    "MAX_LOG_RATIO",
]

#: cap on |log ψ(y) − log ψ(x)| when evaluating amplitude ratios (see below)
MAX_LOG_RATIO = 80.0


@dataclass(frozen=True)
class EnergyStats:
    """Summary of a batch of local energies."""

    mean: float
    std: float
    sem: float
    count: int

    @property
    def variance(self) -> float:
        return self.std**2

    @property
    def is_empty(self) -> bool:
        """True for the zero-sample sentinel (see :meth:`empty`)."""
        return self.count == 0

    @classmethod
    def empty(cls) -> "EnergyStats":
        """The zero-sample sentinel: all-finite, ``count == 0``.

        A cancelled or empty batched query (the ``repro.serve`` batcher can
        produce one) has no samples to summarise; returning finite zeros
        instead of NaN / raising keeps downstream consumers (JSON
        serialisation, health rules, dashboards) well-defined. Check
        :attr:`is_empty` before interpreting the moments.
        """
        return cls(mean=0.0, std=0.0, sem=0.0, count=0)

    def __str__(self) -> str:
        if self.is_empty:
            return "E = <empty batch> (B=0)"
        return f"E = {self.mean:.6f} ± {self.sem:.6f} (std {self.std:.4f}, B={self.count})"


def _fused_flips(model: WaveFunction, hamiltonian: Hamiltonian):
    """The Hamiltonian's structured flip list if the fused kernel serves this
    (hamiltonian, model) pair — a MADE — else ``None``."""
    if not isinstance(model, MADE):
        return None
    return hamiltonian.single_flips()


def local_energy_path(model: WaveFunction, hamiltonian: Hamiltonian) -> str:
    """``'fused'`` or ``'dense'`` — the path :func:`local_energies` picks for
    this pair when ``fast`` is left to it. ``VQMC.step`` reports it (span
    attribute, ``StepResult.energy_path``, ``energy.dense_fallback`` counter)
    so a run's artifacts say which kernel measured its energies."""
    return "dense" if _fused_flips(model, hamiltonian) is None else "fused"


def local_energies(
    model: WaveFunction,
    hamiltonian: Hamiltonian,
    x: np.ndarray,
    log_psi_x: np.ndarray | None = None,
    fast: bool | None = None,
    rows: DistinctRows | None = None,
) -> np.ndarray:
    """Evaluate ``l(x)`` for a batch — shape (B,). No autograd graph is built.

    ``l`` is a function of the configuration alone, so each distinct row of
    ``x`` is evaluated once and the results are scattered back through the
    inverse index (:func:`~repro.utils.rows.distinct_rows`). A batch without
    repeats groups as every row its own, so the result is that of the batch
    as given, bit for bit.

    Two execution paths:

    - **fused** (default whenever ``hamiltonian.single_flips()`` is
      structured and the model is a MADE): the
      :mod:`repro.perf.flips` kernel computes every log-ratio from one
      cached forward pass plus per-flip column deltas — no ``(B, K, n)``
      neighbour array, no ``B·K`` from-scratch forward passes;
    - **dense**: the generic ``connected()`` path, one batched forward pass
      over all neighbours. Used for MCMC-only models (RBM) and
      unstructured Hamiltonians.

    Parameters
    ----------
    log_psi_x:
        Optional precomputed ``log ψ(x)`` (shape ``(B,)``), e.g. the value the
        gradient path already computed. Only the **dense** path reads it (so it
        does not evaluate ``x`` a second time). The fused path ignores it: the
        kernel needs every activation of ``x``, not just ``log ψ(x)``, so it
        runs its own cached forward pass.
    fast:
        Force (True) or forbid (False) the fused kernel; ``None`` picks
        automatically. Forcing it on an unsupported model/Hamiltonian pair
        raises ``ValueError``.
    rows:
        ``distinct_rows(x == 1)`` when the caller has already grouped the
        batch (``VQMC.step`` reports the count); computed here otherwise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != hamiltonian.n:
        raise ValueError(f"expected (B, {hamiltonian.n}) batch, got {x.shape}")
    if model.n != hamiltonian.n:
        raise ValueError(f"model has n={model.n} but Hamiltonian has n={hamiltonian.n}")
    if log_psi_x is not None:
        log_psi_x = np.asarray(log_psi_x, dtype=np.float64)
        if log_psi_x.shape != (x.shape[0],):
            raise ValueError(
                f"log_psi_x must have shape ({x.shape[0]},), got {log_psi_x.shape}"
            )
    x, rows = group_configurations(x, hamiltonian.n, rows)

    def run(batch, log_psi):
        return _local_energies(model, hamiltonian, batch, log_psi, fast)

    return rows.apply(run, x, log_psi_x)


def _local_energies(model, hamiltonian, x, log_psi_x, fast):
    """:func:`local_energies` of a batch as given, repeats and all."""
    from repro.perf.flips import flip_log_ratios

    flips = _fused_flips(model, hamiltonian)
    fused_ok = flips is not None
    if fast is None:
        use_fused = fused_ok
    elif fast and not fused_ok:
        raise ValueError(
            "fast=True requires a single-flip Hamiltonian and a MADE; "
            f"got {type(hamiltonian).__name__} / {type(model).__name__}"
        )
    else:
        use_fused = fast

    energies = hamiltonian.diagonal(x).copy()
    # Clip the log-ratio so a collapsing wavefunction produces a huge but
    # finite local energy instead of inf: inf would turn the batch mean
    # into NaN and poison the gradient. e^MAX_LOG_RATIO ≈ 5·10³⁴ is far
    # beyond any physical ratio yet small enough that batch sums and
    # variances stay finite. (An fp32 implementation — like the paper's —
    # would have saturated at e^88 anyway.)
    if use_fused:
        if flips.k:
            deltas = flip_log_ratios(model, flips.sites, x)
            np.clip(deltas, -MAX_LOG_RATIO, MAX_LOG_RATIO, out=deltas)
            ratios = np.exp(deltas, out=deltas)
            energies += ratios @ flips.amplitudes
    else:
        nbrs, amps = hamiltonian.connected(x)
        bsz, k, _ = nbrs.shape
        if k:
            with no_grad():
                if log_psi_x is None:
                    log_psi_x = model.log_psi(x).data
                lp_n = model.log_psi(nbrs.reshape(bsz * k, -1)).data.reshape(bsz, k)
            ratios = np.exp(
                np.clip(lp_n - log_psi_x[:, None], -MAX_LOG_RATIO, MAX_LOG_RATIO)
            )
            energies += (amps * ratios).sum(axis=1)
    return energies


def energy_statistics(local: np.ndarray) -> EnergyStats:
    """Mean/std/SEM of a local-energy batch.

    The std is the paper's Figure 2 blue curve — it vanishes exactly when ψ
    is an eigenvector (zero-variance principle, Eq. 4).
    """
    local = np.asarray(local, dtype=np.float64)
    count = local.size
    if count == 0:
        return EnergyStats.empty()
    mean = float(local.mean())
    std = float(local.std())
    sem = std / np.sqrt(count) if count > 1 else float("nan")
    return EnergyStats(mean=mean, std=std, sem=sem, count=count)


def grad_via_autograd(  # repro-lint: disable=api-unreachable-export -- test oracle: the tape's REINFORCE gradient every plan's gradient is checked against
    model: WaveFunction, x: np.ndarray, local: np.ndarray
) -> float:
    """Backpropagate the REINFORCE surrogate; leaves ∇L in ``p.grad``.

    Returns the surrogate value (useful only for debugging — the estimator
    of interest is the gradient).
    """
    local = np.asarray(local, dtype=np.float64)
    weights = 2.0 * (local - local.mean()) / local.size  # stop-gradient constant
    log_psi = model.log_psi(x)
    surrogate = (log_psi * weights).sum()
    surrogate.backward()
    return float(surrogate.data)


def grad_from_per_sample(per_sample_o, local: np.ndarray) -> np.ndarray:
    """Flat ∇L from per-sample log-derivatives: ``2 ⟨(l − l̄) O⟩`` — shape (d,).

    ``per_sample_o`` is the (B, d) matrix as an array or in factored form
    (:class:`~repro.nn.factored.FactoredO`): only ``weights @ O`` is taken."""
    local = np.asarray(local, dtype=np.float64)
    centred = local - local.mean()
    return 2.0 * (centred @ per_sample_o) / per_sample_o.shape[0]
