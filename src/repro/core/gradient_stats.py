"""Gradient-noise diagnostics: why bigger batches converge better (Fig. 4).

The paper observes that the converged energy improves with the effective
batch size, saturating earlier for smaller problems. The mechanism is the
signal-to-noise ratio of the stochastic gradient: per-sample gradient
contributions ``g_b = 2 (l_b − l̄) O_b`` have covariance ``Σ``; a batch of
size B estimates the true gradient with noise ``Σ/B``. These utilities
measure that directly:

- :func:`gradient_noise` — per-parameter mean and variance of the
  contributions, total SNR, and the "critical batch size" heuristic
  ``B_crit = tr(Σ) / ‖g‖²`` (McCandlish et al. 2018) — batches beyond
  B_crit give diminishing returns, which is exactly the saturation shape
  of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.energy import local_energies
from repro.hamiltonians.base import Hamiltonian
from repro.models.base import WaveFunction

__all__ = ["GradientNoise", "gradient_noise"]


@dataclass(frozen=True)
class GradientNoise:
    """Statistics of the per-sample gradient contributions."""

    mean: np.ndarray  # (d,) — the gradient estimate itself
    variance: np.ndarray  # (d,) — per-parameter variance of contributions
    snr: float  # ‖mean‖² / (tr Σ / B): signal vs remaining batch noise
    critical_batch: float  # tr Σ / ‖mean‖²
    batch_size: int


def gradient_noise(
    model: WaveFunction,
    hamiltonian: Hamiltonian,
    x: np.ndarray,
) -> GradientNoise:
    """Measure gradient SNR on a sample batch.

    Uses the per-sample path (``model.has_per_sample_grads`` required):
    contributions ``g_b = 2 (l_b − l̄) O_b`` whose batch mean is the
    estimator of Eq. 5.
    """
    if not model.has_per_sample_grads:
        raise TypeError(
            f"{type(model).__name__} has no per-sample gradients; "
            "gradient_noise needs them"
        )
    x = np.asarray(x, dtype=np.float64)
    local = local_energies(model, hamiltonian, x)
    o = np.asarray(model.log_psi_and_grads(x)[1])  # dense: per-coordinate variances
    bsz = x.shape[0]
    if bsz < 2:
        raise ValueError("need at least two samples to estimate variance")

    contributions = 2.0 * (local - local.mean())[:, None] * o  # (B, d)
    mean = contributions.mean(axis=0)
    variance = contributions.var(axis=0, ddof=1)

    trace_sigma = float(variance.sum())
    signal = float(mean @ mean)
    snr = signal / (trace_sigma / bsz) if trace_sigma > 0 else float("inf")
    critical = trace_sigma / signal if signal > 0 else float("inf")
    return GradientNoise(
        mean=mean,
        variance=variance,
        snr=snr,
        critical_batch=critical,
        batch_size=bsz,
    )
