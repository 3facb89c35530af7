"""Per-site single-flip log-ratio loop — the test oracle for ``repro.perf.flips``.

This is the kernel ``flip_log_ratios`` ran before it was blocked and made
mask-aware, moved here verbatim: one Python iteration per flip site, the
whole first hidden layer re-activated, the logit tail recomputed from the
new activations (``h' @ W + b``, not cached logit + ``Δh @ W``). The blocked
kernel reorders those sums, so the two agree to roundoff, not bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.perf.flips import forward_cache
from repro.tensor.functional import bernoulli_log_terms
from repro.tensor.tensor import no_grad


def log_bernoulli(targets: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Elementwise ``log Bern(t; σ(z))``, stable."""
    return bernoulli_log_terms(np.asarray(logits, dtype=np.float64), targets)[0]


def per_site_flip_log_ratios(model, sites: np.ndarray, x: np.ndarray | None = None, cache=None):
    """``(log-ratios (B, K), the forward_cache they were computed from)``."""
    if cache is None:
        if x is None:
            raise ValueError("need x or a forward cache")
        cache = forward_cache(model, x)
    x = cache.x
    sites = np.asarray(sites, dtype=np.int64)
    if sites.ndim != 1:
        raise ValueError(f"sites must be 1-D, got shape {sites.shape}")
    n = model.n
    if sites.size and (sites.min() < 0 or sites.max() >= n):
        raise ValueError(f"flip sites must lie in [0, {n})")

    bsz = x.shape[0]
    deltas = np.empty((bsz, sites.size))
    if sites.size == 0:
        return deltas, cache

    with no_grad():
        layers = model.fc_layers
        effs = [layer.effective_weight() for layer in layers]
        biases = [layer.bias.data for layer in layers]
    hidden_effs, out_eff = effs[:-1], effs[-1]
    out_bias = biases[-1]

    # Suffix sums of the cached per-site terms: tail_terms[:, s] = Σ_{i>s} t_i.
    tail = np.concatenate(
        [np.cumsum(cache.site_terms[:, ::-1], axis=1)[:, ::-1][:, 1:],
         np.zeros((bsz, 1))],
        axis=1,
    )

    for k, s in enumerate(sites):
        s = int(s)
        # Rank-1 column update: bit 0 → +W1[:, s], bit 1 → −W1[:, s].
        sign = 1.0 - 2.0 * x[:, s]
        h = np.maximum(cache.pre_acts[0] + sign[:, None] * effs[0][:, s], 0.0)
        delta_h = h - cache.hiddens[0]
        for l in range(1, len(hidden_effs)):
            h = np.maximum(cache.pre_acts[l] + delta_h @ hidden_effs[l].T, 0.0)
            delta_h = h - cache.hiddens[l]
        # Site s keeps its logit (depends on inputs < s only); sites > s get
        # recomputed logits; sites < s cancel exactly.
        term_s = log_bernoulli(1.0 - x[:, s], cache.logits[:, s])
        if s + 1 < n:
            z_tail = h @ out_eff[s + 1 :].T + out_bias[s + 1 :]
            new_tail = log_bernoulli(x[:, s + 1 :], z_tail).sum(axis=1)
        else:
            new_tail = np.zeros(bsz)
        deltas[:, k] = 0.5 * (
            term_s - cache.site_terms[:, s] + new_tail - tail[:, s]
        )
    return deltas, cache
