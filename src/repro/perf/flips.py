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

So the kernel reads ONE forward pass of ``x``, every activation and not
just ``log ψ(x)``: the gradient's (``VQMC.step`` hands over the pass
:meth:`~repro.models.made.MADE.grads_and_activations` ran), or else its own
(:meth:`~repro.models.made.MADE.activations`, the same computation). It
takes each hidden layer's units in order of mask degree (so "the units a
flip can move" is a contiguous slice; the order, cuts and panel ends are
the model's :func:`~repro.perf.incremental.reach_of`, computed once per
model), and walks the flip sites in ascending order in blocks of ``S``. A block
starting at ``s0`` forms the post-ReLU deltas ``Δh`` of its sites on the slice
of degree ≥ ``s0+1`` only, pushes them through any deeper layers on their
slices, and gets all its logit moves ``Δz_{>s0}`` from ONE product
``W_out[s0+1:, slice] @ Δh``: no work on units or outputs the masks prove
untouched, a Python iteration per block. Each product runs in panels of
``PANEL`` rows that stop at the last unit their rows can read, so it skips the
triangle of mask zeros the sort leaves above the diagonal — the same sums in
the same order, bit for bit. Arrays are unit-major, ``(units, B)`` per call and
``(S, units, B)`` per block, so every broadcast operand is a contiguous slab;
``S`` keeps a block's widest array at ``BLOCK_ELEMS`` float64, and a block's
arrays — like the sorted and transposed weight tables — are views of buffers
the kernel keeps per thread, grown to its largest call.

A tail is a product of Bernoulli odds, not a difference of log-sigmoids: with
``p = σ(u)``, ``q = σ(−u)`` tabulated once per call (``u = (2x−1)·z``), moving
logit ``i`` by ``Δz`` changes its term by ``−log(p + q·e^{−δ})``, ``δ =
(2x−1)·Δz`` — one ``exp`` per (flip, output), one ``log`` per ``CHUNK``. Equal
to the dense path to roundoff, ~1e-13, until ``e^{−δ}`` overflows (ONE flip
moves ONE logit by > 709): a finite ratio may then read ±inf, never NaN.
"""

from __future__ import annotations

import math
import threading
from types import SimpleNamespace

import numpy as np

from repro.models.base import validate_configurations
from repro.models.made import MADE, MADEForwardCache
from repro.perf.incremental import reach_of
from repro.tensor import functional as F

__all__ = [
    "MADEForwardCache",
    "fallback_blocks",
    "forward_cache",
    "flip_log_ratios",
]


#: float64 elements in a block's widest array (256 KB): the kernel's working
#: set whatever the batch and ``n``. Measured, not guessed (docs/performance.md
#: has the table): within 12 % of the best column from (n=10, B=256) to (n=1000,
#: B=32) — smaller blocks pay Python iterations, larger ones loosen the slices.
BLOCK_ELEMS = 32 * 1024

#: Rows of a GEMM panel. A panel reads the units up to its last row's reach, so
#: the mask zeros it still multiplies are a triangle of < PANEL rows; smaller
#: panels pay more GEMM calls. Measured (docs/performance.md has the table).
PANEL = 24

#: A block's ``Σ log f`` is the log of products of ≤ CHUNK outputs; a block with
#: one outside e^±667 (8× past ``MAX_LOG_RATIO``, NaN included) sums logs instead.
CHUNK = 32
PROD_MIN, PROD_MAX = 1e-290, 1e290


def _bernoulli_odds(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``p = σ(u)``, ``q = σ(−u)``, each accurate and ``p + q == 1.0`` to the bit:
    the smaller directly, the larger as its complement (``q = 1 − p`` loses
    every digit of ``q`` as ``p → 1``); the floor keeps ``0·inf`` out of ``f``."""
    e = np.exp(-np.abs(u))
    small = np.maximum(e / (1.0 + e), np.finfo(np.float64).smallest_subnormal)
    big = 1.0 - small
    return np.where(u >= 0.0, big, small), np.where(u >= 0.0, small, big)


_KEPT = threading.local()


class _Fallbacks(threading.local):
    blocks = 0


_FELL = _Fallbacks()


def _kept(slot, shape: tuple, order: str = "C") -> np.ndarray:
    """An uninitialised float64 array of ``shape`` in this thread's kept
    buffer ``slot``, grown to the largest call so far. Fresh tables every
    call would fault their pages in again, at a cost set by which blocks
    glibc happens to keep. Per thread, because ranks on threads may share a
    model; a call holds its arrays only until it returns."""
    kept = _KEPT.__dict__  # this thread's
    size = math.prod(shape)
    buf = kept.get(slot)
    if buf is None or buf.size < size:
        buf = kept[slot] = np.empty(size)
    return buf[:size].reshape(shape, order=order)


def _view(buf: np.ndarray, a: int, b: int, c: int) -> np.ndarray:
    """The leading ``a·b·c`` elements of a flat buffer, as an ``(a, b, c)`` array."""
    return buf[: a * b * c].reshape(a, b, c)


def _masked_matmul(w, ends, r0, c0, dh, out) -> None:
    """``out = w[r0:, c0:] @ dh`` with row ``i`` summed only to column ``ends[i]``.

    The columns past ``ends[i]`` of row ``i`` are exact zeros of the masks, and
    ``ends`` never decreases, so the rows go in panels of ``PANEL`` that each
    stop at their last row's end: the same sums, in the same order, with the
    trailing zeros left out. A panel that reaches the widest end takes every
    row after it, and so does one that would leave a single row behind. A
    product with one row or one sample is a GEMV, which BLAS sums in an order
    set by its length, so it keeps its whole rectangle.
    """
    stop = w.shape[0]
    if stop - r0 == 1 or dh.shape[-1] == 1:
        np.matmul(w[r0:, c0:], dh, out=out)
        return
    i = r0
    while i < stop:
        k = min(i + PANEL, stop)
        if ends[k - 1] == ends[stop - 1] or stop - k == 1:
            k = stop
        c = ends[k - 1]
        np.matmul(w[i:k, c0:c], dh[:, : c - c0], out=out[:, i - r0 : k - r0])
        i = k


def _forward(model, x: np.ndarray) -> tuple[np.ndarray, MADEForwardCache]:
    """The kernel's own forward pass, for a caller without the gradient's
    (evaluation, serving): ``x`` checked, and its activations."""
    x = validate_configurations(x, model.n)
    return x, model.activations(x)


def forward_cache(model, x: np.ndarray) -> SimpleNamespace:  # repro-lint: disable=api-unreachable-export -- test oracle: tests/test_perf/flip_oracle.py builds its reference ratios from this cache
    """One forward pass of a MADE, with the terms the test oracle reads.

    Besides the activations: ``x``, ``site_terms[b, i] = log Bern(x_i;
    σ(z_i))`` and ``log_psi = ½ · site_terms.sum(axis=1)``."""
    if not isinstance(model, MADE):
        raise TypeError(f"forward_cache requires a MADE; got {type(model).__name__}")
    x, forward = _forward(model, x)
    terms = F.bernoulli_log_terms(forward.logits, x)[0]
    return SimpleNamespace(
        x=x,
        pre_acts=forward.pre_acts,
        hiddens=forward.hiddens,
        logits=forward.logits,
        site_terms=terms,
        log_psi=0.5 * terms.sum(axis=1),
    )


def fallback_blocks() -> int:
    """Blocks whose odds products left ``[PROD_MIN, PROD_MAX]``, so that the
    kernel summed the log of every factor instead, on this thread so far: a
    caller reads it before and after a call for that call's count."""
    return _FELL.blocks


def flip_log_ratios(
    model, sites: np.ndarray, x: np.ndarray, forward: MADEForwardCache | None = None
) -> np.ndarray:
    """``log ψ(x^{(s)}) − log ψ(x)`` for every flip site — shape (B, K).

    ``sites`` holds the (K,) integer site indices: ``x^{(s)}`` flips bit
    ``sites[k]`` of each row of the (B, n) configurations ``x``.
    ``forward`` is the activations of ``x`` from the gradient's forward pass
    (:meth:`~repro.models.made.MADE.grads_and_activations`, whose ``x`` it
    checked): given it, the kernel runs no forward pass of its own.
    """
    if not isinstance(model, MADE):
        raise TypeError(f"flip kernel requires a MADE; got {type(model).__name__}")
    if forward is None:
        x, forward = _forward(model, x)
    x = np.asarray(x, dtype=np.float64)
    if forward.logits.shape != x.shape:
        raise ValueError(f"a forward of shape {forward.logits.shape} against x of {x.shape}")
    sites = np.asarray(sites, dtype=np.int64)
    if sites.ndim != 1:
        raise ValueError(f"sites must be 1-D, got shape {sites.shape}")
    bsz, n = x.shape
    if sites.size and (sites.min() < 0 or sites.max() >= n):
        raise ValueError(f"flip sites must lie in [0, {n})")

    # Site s keeps its logit (it depends on inputs < s only) and swaps its
    # target bit: log Bern(1−x_s; z_s) − log Bern(x_s; z_s) = (1−2x_s)·z_s.
    # Every other site's term is log σ(u), u = (2x−1)·z = −own.
    sign = np.ascontiguousarray((1.0 - 2.0 * x).T)  # bit 0 → +W1[:, s], 1 → −
    own = sign * forward.logits.T
    deltas = own[sites]
    q, p = _bernoulli_odds(own)

    # Every hidden layer's units sorted by reach, so that the units a block of
    # flips can move are one contiguous slice [lo:], lo = cut[l][s0 + 1].
    reach = reach_of(model)
    orders, degrees, cut = reach.orders, reach.reaches, reach.cuts[1:]
    weights = reach.sort(forward.weights)
    # The layers above the first read column-major, as a gather by columns
    # leaves them: BLAS then sums a panel's rows as it sums them in the whole
    # product (row-major does not at every batch width).
    for l in range(1, len(weights)):
        kept = _kept(("w", l), weights[l].shape, "F")
        np.copyto(kept, weights[l])
        weights[l] = kept
    pre = [np.ascontiguousarray(a.T[order]) for a, order in zip(forward.pre_acts, orders)]
    hid = [np.ascontiguousarray(h.T[order]) for h, order in zip(forward.hiddens, orders)]
    w_in = _kept("w_in", weights[0].shape[::-1])  # a site's column is one row
    np.copyto(w_in, weights[0].T)

    # Ascending sites in blocks of S: one block shares its first site's
    # slices and logit tail z_{>s0}, so its S tails come from ONE GEMM a layer.
    # Sites from `horizon` on move no unit of some hidden layer (and the last
    # site has no tail): their own term, already in `deltas`, is all of it.
    by_site = np.argsort(sites, kind="stable")
    ascending = sites[by_site]
    horizon = min(n - 1, *(int(deg[-1]) for deg in degrees))
    live = int(np.searchsorted(ascending, horizon))
    blocks = []
    need_h = need_f = need_g = 0  # largest S·B·width of a block's Δh, f, products
    j = 0
    while j < live:
        s0 = int(ascending[j])
        tail = n - s0 - 1
        los = [c[s0 + 1] for c in cut]
        width = max(deg.size - lo for lo, deg in zip(los, degrees))
        # S sites a block, sized so its widest array is BLOCK_ELEMS.
        stop = min(live, j + max(1, BLOCK_ELEMS // (bsz * max(tail, width))))
        sb = (stop - j) * bsz
        need_h, need_f = max(need_h, sb * width), max(need_f, sb * tail)
        need_g = max(need_g, sb * -(-tail // CHUNK))
        blocks.append((j, stop, s0, los))
        j = stop
    # A block's arrays are views of the kept buffers, each at least this
    # call's largest block: fresh arrays would fault their pages in every block.
    dh_bufs = [_kept(("dh", l), (need_h,)) for l in range(len(degrees))]
    f_buf, prod_buf = _kept("f", (need_f,)), _kept("prod", (need_g,))
    # Row i of a GEMM reads the units of the layer below up to ends[i] (units
    # sorted by reach): a hidden unit those of reach ≤ its own, an output i
    # those of reach ≤ i, which are cut[-1][i + 1].
    ends = reach.ends
    tails = _kept("tails", (live, bsz))
    for j, stop, s0, los in blocks:
        size, tail = stop - j, n - s0 - 1
        blk = ascending[j:stop]
        # Rank-1 column updates of the block's sites, on the slice only.
        dh = _view(dh_bufs[0], size, degrees[0].size - los[0], bsz)
        np.einsum("sk,sb->skb", w_in[blk, los[0] :], sign[blk], out=dh)
        for l, lo in enumerate(los):
            if l:
                below, dh = dh, _view(dh_bufs[l], size, degrees[l].size - lo, bsz)
                _masked_matmul(weights[l], ends[l - 1], lo, los[l - 1], below, dh)
            dh += pre[l][lo:]
            np.maximum(dh, 0.0, out=dh)
            dh -= hid[l][lo:]
        # f = p + q·e^{−δ}. A logit the flip leaves alone (Δz = 0 exactly: the
        # masked weights are exact zeros) gives p + q = 1.0 to the bit, which
        # covers a block's corner of outputs s0 < i ≤ s without masking it out.
        # Σ log f = log of g interleaved (so contiguous) products. exp or a
        # product may overflow, underflow or meet 0·inf: the range check sees all.
        f = _view(f_buf, size, tail, bsz)
        _masked_matmul(weights[-1], ends[-1], s0 + 1, los[-1], dh, f)
        f *= sign[s0 + 1 :]
        g = -(-tail // CHUNK)
        m = tail - tail % g
        prod = _view(prod_buf, size, g, bsz)
        with np.errstate(over="ignore", invalid="ignore"):
            np.exp(f, out=f)
            f *= q[s0 + 1 :]
            f += p[s0 + 1 :]
            f[:, :m].reshape(size, m // g, g, bsz).prod(axis=1, out=prod)
            prod[:, : tail - m] *= f[:, m:]
        if not (prod.min() > PROD_MIN and prod.max() < PROD_MAX):
            _FELL.blocks += 1
            prod = f
        np.log(prod, out=prod).sum(axis=1, out=tails[j:stop])
    deltas[by_site[:live]] -= tails
    return np.multiply(deltas.T, 0.5, order="C")
