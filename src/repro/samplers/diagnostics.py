"""MCMC quality diagnostics.

The paper's central argument is that MCMC sample quality degrades with
dimension (burn-in and correlations grow). These diagnostics quantify that:

- :func:`autocorrelation` / :func:`integrated_autocorr_time` — how correlated
  successive chain states are (Sokal's windowing estimator).
- :func:`gelman_rubin` — the multi-chain R̂ convergence statistic.
- :func:`total_variation_distance` — exact distance between an empirical
  histogram and a target distribution (used in tests on enumerable spaces).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "autocorrelation",
    "integrated_autocorr_time",
    "gelman_rubin",
    "total_variation_distance",
]


def autocorrelation(series: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Normalised autocorrelation function of a scalar time series (FFT-based)."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1:
        raise ValueError("autocorrelation expects a 1-D series")
    t = series.size
    if t < 2:
        raise ValueError("series too short")
    centred = series - series.mean()
    # Zero-pad to the next power of two for a linear (not circular) correlation.
    size = 1 << (2 * t - 1).bit_length()
    fft = np.fft.rfft(centred, size)
    acf = np.fft.irfft(fft * np.conjugate(fft), size)[:t].real
    if acf[0] <= 0:
        return np.zeros(1 if max_lag is None else max_lag + 1)
    acf = acf / acf[0]
    if max_lag is not None:
        acf = acf[: max_lag + 1]
    return acf


def integrated_autocorr_time(series: np.ndarray, window_c: float = 5.0) -> float:
    """Sokal's adaptive-window estimate of τ_int = 1 + 2 Σ ρ(t).

    The sum is truncated at the smallest ``M`` with ``M >= c·τ(M)``; for an
    i.i.d. series this returns ≈ 1.
    """
    rho = autocorrelation(series)
    tau = 1.0
    for m in range(1, rho.size):
        tau = 1.0 + 2.0 * rho[1 : m + 1].sum()
        if m >= window_c * tau:
            break
    return max(tau, 1.0)


def gelman_rubin(chains: np.ndarray) -> float:
    """Potential-scale-reduction factor R̂ over ``(n_chains, T)`` scalar chains.

    Values near 1 indicate the chains agree (mixed); values well above 1
    mean the burn-in was insufficient.
    """
    chains = np.asarray(chains, dtype=np.float64)
    if chains.ndim != 2 or chains.shape[0] < 2:
        raise ValueError("gelman_rubin expects (n_chains >= 2, T) array")
    m, t = chains.shape
    chain_means = chains.mean(axis=1)
    chain_vars = chains.var(axis=1, ddof=1)
    w = chain_vars.mean()
    b = t * chain_means.var(ddof=1)
    if w == 0.0:
        # Frozen chains: mixed only if they froze at the same value;
        # otherwise they will never agree — R̂ is infinite, not 1.
        return 1.0 if b == 0.0 else float("inf")
    var_hat = (t - 1) / t * w + b / t
    return float(np.sqrt(var_hat / w))


def total_variation_distance(
    samples: np.ndarray, target_probs: np.ndarray, n_states: int | None = None
) -> float:
    """TV distance between the empirical distribution of integer-coded
    samples and an explicit probability vector."""
    target_probs = np.asarray(target_probs, dtype=np.float64)
    n_states = target_probs.size if n_states is None else n_states
    counts = np.bincount(np.asarray(samples, dtype=np.int64), minlength=n_states)
    empirical = counts / counts.sum()
    return 0.5 * float(np.abs(empirical - target_probs).sum())
