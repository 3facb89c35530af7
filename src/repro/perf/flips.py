"""Fused single-flip log-ψ kernel for MADE — delta evaluation of amplitude ratios.

``local_energies`` needs the ``K`` ratios ``ψ(x^{(s)})/ψ(x)`` per sample,
where ``x^{(s)}`` flips one bit ``s``. The dense path materialises a
``(B, K, n)`` neighbour array and runs a from-scratch forward pass over all
``B·K`` rows — O(B·K·n·h) for the paper's architecture. But a single bit
flip barely perturbs a MADE:

- logits ``z_i`` for ``i ≤ s`` are untouched (the autoregressive masks make
  output ``i`` a function of inputs ``< i`` only), so the Bernoulli terms
  of the sites ``i < s`` cancel from the log-ratio, and site ``s`` itself
  only swaps its target bit under an unchanged logit;
- the first hidden layer moves by the masked weight column ``±W1[:, s]``
  (rank-1), and only on the units whose mask degree is ≥ ``s+1``; deeper
  layers likewise, and only output rows ``i > s`` need recomputing.

So the kernel runs ONE cached forward pass on the batch, sorts each hidden
layer's units by mask degree (so "the units a flip can move" is a contiguous
slice), and walks the flip sites in ascending order in blocks of ``S``. A
block starting at site ``s0`` forms the post-ReLU deltas ``Δh`` of its
sites on the slice of degree ≥ ``s0+1`` only, propagates them through any
deeper hidden layers on their slices, and gets all its logit tails
``z_{>s0}`` from ONE GEMM ``Δh @ W_out[s0+1:, slice].T`` added to the cached
logits — no O(n·h) input matmul, no work on units or outputs the masks
prove untouched, and a Python iteration per block, not per site. ``S`` is
whatever keeps a block's largest array at ``BLOCK_ELEMS`` float64 (256 KB).
The result is mathematically identical to the dense path (same log-ratio,
same clipping), to floating-point roundoff: cached logit + ``Δh·W`` sums in
a different order than ``h'·W + b``, so log-ratios agree to ~1e-13.

The cached pass also yields ``log ψ(x)`` for free, which
:func:`repro.core.energy.local_energies` returns to the training loop so
amplitudes are never evaluated twice per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import validate_configurations
from repro.perf.incremental import (
    masked_weights,
    sort_by_reach,
    supports_incremental,
)

__all__ = [
    "MADEForwardCache",
    "supports_flip_kernel",
    "forward_cache",
    "flip_log_ratios",
    "log_bernoulli",
]


#: float64 elements in a block's widest array (256 KB): the kernel's working
#: set whatever the batch and ``n``. Measured, not guessed: 16–32 Ki is the
#: flat optimum from (n=10, B=256) to (n=256, B=256); from 64 Ki up each
#: block's temporaries are big enough that the allocator hands them back to
#: the OS between calls, and small shapes pay more in page faults than the
#: per-site loop ever cost (docs/performance.md has the table).
BLOCK_ELEMS = 32 * 1024


def _log_sigmoid_inplace(u: np.ndarray) -> np.ndarray:
    """``log σ(u) = min(u, 0) − log1p(exp(−|u|))``, overwriting ``u``."""
    e = np.abs(u)
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.minimum(u, 0.0, out=u)
    u -= e
    return u


def log_bernoulli(targets: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Elementwise ``log Bern(t; σ(z)) = t·logσ(z) + (1-t)·logσ(-z)``, stable."""
    log_p = _log_sigmoid_inplace(np.array(logits, dtype=np.float64))
    log_q = log_p - logits  # log σ(-z) = log σ(z) - z, exactly
    return targets * log_p + (1.0 - targets) * log_q


@dataclass(frozen=True)
class MADEForwardCache:
    """Everything one forward pass knows, kept for delta evaluation.

    ``site_terms[b, i]`` is the per-site Bernoulli log-likelihood
    ``log Bern(x_i; σ(z_i))``, so ``log_psi = ½ · site_terms.sum(axis=1)``.
    """

    x: np.ndarray  # (B, n) configurations
    pre_acts: tuple[np.ndarray, ...]  # per hidden layer, (B, h_l)
    hiddens: tuple[np.ndarray, ...]  # post-ReLU activations, (B, h_l)
    logits: np.ndarray  # (B, n)
    site_terms: np.ndarray  # (B, n)
    log_psi: np.ndarray  # (B,)


def supports_flip_kernel(model) -> bool:
    """The flip kernel understands exactly the layer stacks the incremental
    sampler does (masked linear + ReLU, biases present)."""
    return supports_incremental(model)


def _require_support(model) -> None:
    if not supports_flip_kernel(model):
        raise TypeError(
            f"flip kernel requires a MADE-style layer stack; got {type(model).__name__}"
        )


def _forward(x: np.ndarray, effs, biases) -> MADEForwardCache:
    pre_acts: list[np.ndarray] = []
    hiddens: list[np.ndarray] = []
    cur = x
    for eff, bias in zip(effs[:-1], biases[:-1]):
        a = cur @ eff.T + bias
        pre_acts.append(a)
        cur = np.maximum(a, 0.0)
        hiddens.append(cur)
    logits = cur @ effs[-1].T + biases[-1]
    terms = log_bernoulli(x, logits)
    return MADEForwardCache(
        x=x,
        pre_acts=tuple(pre_acts),
        hiddens=tuple(hiddens),
        logits=logits,
        site_terms=terms,
        log_psi=0.5 * terms.sum(axis=1),
    )


def forward_cache(model, x: np.ndarray) -> MADEForwardCache:
    """One batched forward pass of a MADE, retaining every intermediate."""
    _require_support(model)
    x = validate_configurations(x, model.n)
    return _forward(x, *masked_weights(model))


def flip_log_ratios(
    model,
    sites: np.ndarray,
    x: np.ndarray | None = None,
    cache: MADEForwardCache | None = None,
) -> tuple[np.ndarray, MADEForwardCache]:
    """``log ψ(x^{(s)}) − log ψ(x)`` for every flip site — shape (B, K).

    Parameters
    ----------
    sites:
        (K,) integer site indices; ``x^{(s)}`` flips bit ``sites[k]``.
    x, cache:
        Pass either the configurations (a cache is built) or a prebuilt
        :func:`forward_cache`. Passing both uses the cache.

    Returns the ratio matrix and the cache (so callers reuse ``log_psi``).
    """
    if cache is None and x is None:
        raise ValueError("need x or a forward cache")
    _require_support(model)
    effs, biases = masked_weights(model)
    if cache is None:
        cache = _forward(validate_configurations(x, model.n), effs, biases)
    x = cache.x
    sites = np.asarray(sites, dtype=np.int64)
    if sites.ndim != 1:
        raise ValueError(f"sites must be 1-D, got shape {sites.shape}")
    bsz, n = x.shape
    if sites.size and (sites.min() < 0 or sites.max() >= n):
        raise ValueError(f"flip sites must lie in [0, {n})")

    # Site s keeps its logit (it depends on inputs < s only) and swaps its
    # target bit: log Bern(1−x_s; z_s) − log Bern(x_s; z_s) = (1−2x_s)·z_s.
    sign = 1.0 - 2.0 * x  # bit 0 → +W1[:, s], bit 1 → −W1[:, s]
    deltas = sign[:, sites] * cache.logits[:, sites]

    # Every hidden layer's units sorted by reach, so that the units a block of
    # flips can move are one contiguous slice [lo:].
    orders, degrees, weights = sort_by_reach(model, effs)
    pre = [a[:, order] for a, order in zip(cache.pre_acts, orders)]
    hid = [h[:, order] for h, order in zip(cache.hiddens, orders)]
    # log Bern(x_i; z_i) = log σ(u_i) with u = (2x−1)·z. The cached terms are
    # re-evaluated by the formula the blocks use, so that a logit a flip
    # leaves alone (Δz = 0 exactly: the masked weights are exact zeros)
    # cancels to exactly 0.0 — which is what covers a block's corner of
    # outputs s0 < i ≤ s without masking it out.
    spin = -sign
    spin_logits = spin * cache.logits
    terms = _log_sigmoid_inplace(spin_logits.copy())

    # Ascending sites in blocks of S: one block shares its first site's
    # slices and logit tail z_{>s0}, so its S tails come from ONE GEMM.
    # Sites from `horizon` on move no unit of some hidden layer (and the last
    # site has no tail): their own term, already in `deltas`, is all of it.
    by_site = np.argsort(sites, kind="stable")
    ascending = sites[by_site]
    horizon = min(n - 1, *(int(deg[-1]) for deg in degrees))
    live = int(np.searchsorted(ascending, horizon))
    j = 0
    while j < live:
        s0 = int(ascending[j])
        tail = n - s0 - 1
        los = [int(np.searchsorted(deg, s0 + 1)) for deg in degrees]
        # S sites a block, sized so its widest array is BLOCK_ELEMS.
        widest = max(tail, *(deg.size - lo for lo, deg in zip(los, degrees)))
        stop = min(live, j + max(1, BLOCK_ELEMS // (bsz * widest)))
        blk = ascending[j:stop]
        # Rank-1 column updates of the block's sites, on the slice only.
        dh = sign[:, blk, None] * weights[0][los[0] :, blk].T
        dh += pre[0][:, None, los[0] :]
        np.maximum(dh, 0.0, out=dh)
        dh -= hid[0][:, None, los[0] :]
        for l in range(1, len(los)):
            w = weights[l][los[l] :, los[l - 1] :]
            dh = (dh.reshape(-1, dh.shape[2]) @ w.T).reshape(bsz, blk.size, -1)
            dh += pre[l][:, None, los[l] :]
            np.maximum(dh, 0.0, out=dh)
            dh -= hid[l][:, None, los[l] :]
        w = weights[-1][s0 + 1 :, los[-1] :]
        u = (dh.reshape(-1, dh.shape[2]) @ w.T).reshape(bsz, blk.size, tail)
        u *= spin[:, None, s0 + 1 :]
        u += spin_logits[:, None, s0 + 1 :]
        _log_sigmoid_inplace(u)
        u -= terms[:, None, s0 + 1 :]
        deltas[:, by_site[j:stop]] += u.sum(axis=2)
        j = stop
    deltas *= 0.5
    return deltas, cache
