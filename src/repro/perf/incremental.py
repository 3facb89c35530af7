"""Blocked ancestral sampling for MADE — runs of sites solved by sweeps.

The naive sampler (``MADE.sample(method='naive')``, paper Algorithm 1) runs
``n`` *full* forward passes per batch: at step ``i`` it computes all ``n``
conditionals but consumes only column ``i`` — O(n²·h) work for O(n·h)
information. Conditional ``i`` needs only ``x_<i``, and the masks say more
than that: a hidden unit whose *reach* (the largest 1-based input index with
a path to it) is ``m`` is a function of ``x[:, :m]`` alone and is read only
by outputs ``≥ m``. Each hidden layer's units are sorted by reach
(:func:`sort_by_reach`, shared with the flip kernel), so "the units final
before site ``i``" is a prefix.

The sites are walked in blocks of ``BLOCK``. Per block, ONE GEMM per hidden
layer gives the base pre-activations of the block's own units from
everything final before the block, ONE GEMM gives the block's base logits,
and ONE call draws the block's uniforms. Inside the block, runs of sites are
solved as fixed points instead of site by site. Under fixed uniforms a
run's bits satisfy ``x = F(x)``, where ``F_i`` reads only ``x_<i`` — the
weights past a unit's reach are exact zeros — so the system is triangular
and Jacobi sweeps solve it exactly:

- **guess** the run's bits from its base logits (the prefix alone);
- **sweep**: recompute the run's units from the current bits (one GEMM per
  layer, ReLU written straight into the unit-major buffers), then the run's
  logits (one GEMM), then the bits (one comparison);
- **stop** when a sweep leaves the bits unchanged, or after ``m`` sweeps
  for a run of ``m`` sites: sweep ``t`` fixes site ``t``, and the run's
  units never read its last site, so the bits and the units are then those
  of Algorithm 1.

A run is ``min(BLOCK, SWEEP_ELEMS // B)`` sites (at least 1). A run of one
site needs no guess and one sweep: it is the per-site step of the blocked
kernel this replaced. Every buffer entry a sweep reads has been written —
the guess writes the bits, and each layer's units come before the next
layer reads them — so the zero weights only ever multiply finite values.

Cost: with runs of one site every unmasked weight is multiplied once per
sample, and a one-hidden-layer MADE costs **exactly half** a dense forward
pass for any degree assignment, batch or ``BLOCK`` (a unit of degree ``m``
has ``m`` input and ``n − m`` output connections), where Algorithm 1 pays
``n`` passes. A longer run pays its in-run GEMMs — from the block's start,
zeros included — once per sweep: more multiply-accumulates, far fewer
numpy calls.

The kernel draws from the RNG in exactly the same order — one uniform per
unclamped site per row, a block's worth per call, which is the same stream
as one call per site — and ``u < σ(z)`` becomes ``z > log(u / (1 − u))``,
with ``u = 0`` drawing a 1 exactly when ``σ(z)`` does not underflow. So the
0/1 samples are bit-identical to ``MADE.sample(method='naive')`` under the
same stream: the logits and thresholds may differ from the naive ones by a
few ULP, because sums and the sigmoid are rounded differently, and a sample
bit could only flip if a uniform draw landed inside that ~1e-15 window.

Cost accounting: the kernel reports the multiply-accumulates its GEMMs
perform in units of naive batched forward passes
(``forward_pass_equivalents``) and the sweeps of each run, which is what
:class:`repro.samplers.base.SamplerStats` surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.made import MADE
from repro.tensor.tensor import no_grad

__all__ = [
    "IncrementalSampleResult",
    "incremental_sample",
]

#: Sites per block. Measured, not guessed: from (n=10, B=256) to (n=2000,
#: B=32), 16 is within 20 % of the best of 8–64 on every row and within noise
#: of it at n=256, B=256; larger blocks lose once their (BLOCK × B) arrays
#: outgrow the cache — so it is a constant, not a knob (docs/performance.md
#: has the table).
BLOCK = 16

#: Sites × rows a run of fixed-point sweeps spans: runs are
#: ``min(BLOCK, SWEEP_ELEMS // B)`` sites, floored at 1 — a whole block up to
#: B = 384, one site from B = 3073 on, where a repeated sweep costs more than
#: the numpy calls it saves. Measured (docs/performance.md has the table).
SWEEP_ELEMS = 6144

#: The threshold u = 0 gets: below it e^z, and so σ(z), rounds to exactly 0
#: (e^z < 2⁻¹⁰⁷⁵), and the naive sampler's ``0 < σ(z)`` draws a 0.
_LOGIT_OF_ZERO = -1075 * np.log(2.0)


@dataclass(frozen=True)
class IncrementalSampleResult:
    """Samples plus the operation count the kernel actually paid.

    ``macs`` counts the multiply-accumulates of the kernel's GEMMs: the
    blocks' prefix GEMMs plus every sweep's in-run GEMMs. ``full_pass_macs``
    is the dense cost of ONE naive batched forward pass, so
    ``forward_pass_equivalents`` is directly comparable to the naive
    sampler's pass count of ``n``. ``sweeps`` holds each run's sweep count,
    in site order.
    """

    samples: np.ndarray
    macs: int
    full_pass_macs: int
    sweeps: tuple[int, ...]

    @property
    def forward_pass_equivalents(self) -> float:
        return self.macs / max(1, self.full_pass_macs)


def masked_weights(model) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per layer, the masked weight matrix and the bias the forward pass applies."""
    with no_grad():
        layers = model.fc_layers
        return (
            [layer.effective_weight() for layer in layers],
            [layer.bias.data for layer in layers],
        )


def sort_by_reach(model, effs):
    """Sort every hidden layer's units by the reach the masks give them.

    A unit's reach is the largest 1-based input index with a path to it (0 if
    none): the unit is a function of ``x[:, :reach]`` alone, and flipping
    input ``s`` can move it only if its reach is ≥ ``s+1``. Read off
    ``layer.mask`` — not the ``'cycle'`` formula — so ``'random'`` masks and
    deep stacks are sliced by the connectivity they really have.

    Returns, per hidden layer, the stable argsort and the sorted reaches, and
    ``effs`` with every hidden layer's units in that order, so that "the units
    of reach below (or from) a site" is a contiguous slice. Rebuilt per call:
    the weights are updated in place between calls.
    """
    orders, reaches, weights = [], [], list(effs)
    reach = np.arange(1, model.n + 1)
    for l, layer in enumerate(model.fc_layers[:-1]):
        reach = np.where(layer.mask != 0.0, reach, 0).max(axis=1)
        order = np.argsort(reach, kind="stable")
        orders.append(order)
        reaches.append(reach[order])
        weights[l] = weights[l][order]  # the layer's units are its rows …
        weights[l + 1] = weights[l + 1][:, order]  # … and the next one's columns
    return orders, reaches, weights


def incremental_sample(
    model,
    batch_size: int,
    rng: np.random.Generator,
    clamp: np.ndarray | None = None,
) -> IncrementalSampleResult:
    """Draw exact i.i.d. samples from a MADE by sweeps over runs of sites.

    Semantics (including ``clamp`` handling and RNG consumption order) match
    ``MADE.sample`` exactly; see :mod:`repro.perf.incremental` for the
    complexity and exactness arguments.
    """
    if not isinstance(model, MADE):
        raise TypeError(f"incremental sampling requires a MADE; got {type(model).__name__}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    n = model.n
    clamp = _validate_clamp(clamp, n)
    free = np.ones(n, dtype=bool) if clamp is None else np.isnan(clamp)

    effs, biases = masked_weights(model)
    orders, reaches, weights = sort_by_reach(model, effs)
    # Row slices of C-order weights are what the block GEMMs read fastest.
    weights = [np.ascontiguousarray(w) for w in weights]
    biases = [b[order] for b, order in zip(biases, orders)] + biases[-1:]
    depth = len(orders)
    # The inputs are layer 0: x_j has reach j+1. A unit of reach r — input or
    # hidden — is readable from site r on, and cut[l][i] counts the units of
    # layer l with reach < i: a hidden unit is final once site reach-1 is.
    reaches = [np.arange(1, n + 1), *reaches]
    cut = [np.searchsorted(r, np.arange(n + 1)).tolist() for r in reaches]
    # Dense MAC count of one naive batched forward pass (`MADE.logits`).
    dims = [n, *(w.shape[0] for w in weights)]
    full_pass_macs = batch_size * sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    run = max(1, min(BLOCK, SWEEP_ELEMS // batch_size))

    # Unit-major: a unit's activations over the batch are one contiguous row,
    # hid[0] being the samples themselves.
    hid = [np.empty((d, batch_size)) for d in dims[:-1]]
    w_out, b_out = weights[-1], biases[-1]
    # ahead[i]: free sites before site i, so a run's logit rows are a slice.
    ahead = np.concatenate([[0], np.cumsum(free)]).tolist()
    # A block's uniforms and margins, allocated once: at large B a fresh
    # (BLOCK, B) array per block costs its page faults again.
    uniforms, margins = np.empty((2, BLOCK, batch_size))
    macs, sweeps = 0, []
    with np.errstate(divide="ignore"):  # u = 0: log 0 = -inf, floored below
        for s0 in range(0, n, BLOCK):
            s1 = min(s0 + BLOCK, n)
            # Everything final before the block enters through one GEMM per
            # layer: the block's own units' pre-activations, and its logits.
            lo = [done[s0] for done in cut]
            base = [None] * (depth + 1)
            for l in range(1, depth + 1):
                a, c, p = lo[l], cut[l][s1], lo[l - 1]
                base[l] = weights[l - 1][a:c, :p] @ hid[l - 1][:p]
                base[l] += biases[l - 1][a:c, None]
                macs += (c - a) * p
            k = ahead[s1] - ahead[s0]
            draw = slice(s0, s1) if k == s1 - s0 else s0 + np.flatnonzero(free[s0:s1])
            if k < s1 - s0:
                fixed = s0 + np.flatnonzero(~free[s0:s1])
                hid[0][fixed] = clamp[fixed, None]
            # One call per block is the same stream as one per drawn site.
            # u < σ(z) ⟺ z > log(u / (1 − u)), 1 − u being exact for every u
            # the generator returns (a multiple of 2⁻⁵³ in [0, 1)); the margin
            # is that threshold less the block's base logit z₀, so a site is
            # drawn iff its in-block logit part z − z₀ exceeds it.
            u = rng.random(out=uniforms[:k])
            margin = np.subtract(1.0, u, out=margins[:k])
            np.divide(u, margin, out=margin)
            np.log(margin, out=margin)
            np.maximum(margin, _LOGIT_OF_ZERO, out=margin)
            margin -= np.matmul(w_out[draw, : lo[-1]], hid[-1][: lo[-1]], out=u)
            margin -= b_out[draw, None]
            macs += k * lo[-1]
            for r0 in range(s0, s1, run):
                r1 = min(r0 + run, s1)
                k0, k1 = ahead[r0] - ahead[s0], ahead[r1] - ahead[s0]
                sites = slice(r0, r1) if k1 - k0 == r1 - r0 else draw[k0:k1]
                # The run's units, read from the block's start: the columns
                # past a unit's reach are exact zeros, whatever they hold.
                units = []
                for l in range(1, depth + 1):
                    a, c, p, r = cut[l][r0], cut[l][r1], lo[l - 1], cut[l - 1][r1]
                    if c > a:
                        w, b = weights[l - 1][a:c, p:r], base[l][a - lo[l] : c - lo[l]]
                        units.append((w, hid[l - 1][p:r], b, hid[l][a:c]))
                w_run = w_out[sites, lo[-1] : cut[-1][r1]]
                h_run = hid[-1][lo[-1] : cut[-1][r1]]
                m_run = margin[k0:k1]
                m = r1 - r0
                if m > 1:  # the guess: the prefix's logits alone
                    bits = m_run < 0.0
                    hid[0][sites] = bits
                # Sweep t fixes site t, so m sweeps give Algorithm 1's bits
                # and the units (which never read the run's last site).
                for sweep in range(1, m + 1):
                    for w, h, b, out in units:
                        pre = w @ h
                        pre += b
                        np.maximum(pre, 0.0, out=out)
                    if k1 == k0:  # all clamped: the units were all to do
                        break
                    new = w_run @ h_run > m_run
                    hid[0][sites] = new
                    # Equal bytes of two C-order bool arrays: a fixed point.
                    if sweep == m or new.tobytes() == bits.tobytes():
                        break
                    bits = new
                sweeps.append(sweep)
                macs += sweep * (sum(w.size for w, *_ in units) + w_run.size)
    return IncrementalSampleResult(
        samples=np.ascontiguousarray(hid[0].T),
        macs=batch_size * macs,
        full_pass_macs=full_pass_macs,
        sweeps=tuple(sweeps),
    )


def _validate_clamp(clamp: np.ndarray | None, n: int) -> np.ndarray | None:
    if clamp is None:
        return None
    clamp = np.asarray(clamp, dtype=np.float64)
    if clamp.shape != (n,):
        raise ValueError(f"clamp must have shape ({n},), got {clamp.shape}")
    fixed = ~np.isnan(clamp)
    if not np.all(np.isin(clamp[fixed], (0.0, 1.0))):
        raise ValueError("clamped values must be 0 or 1")
    return clamp
