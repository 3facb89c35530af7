"""Blocked ancestral sampling for MADE — every hidden unit computed once.

The naive sampler (``MADE.sample(method='naive')``, paper Algorithm 1) runs
``n`` *full* forward passes per batch: at step ``i`` it computes all ``n``
conditionals but consumes only column ``i`` — O(n²·h) work for O(n·h)
information. Conditional ``i`` needs only ``x_<i``, and the masks say more
than that: a hidden unit whose *reach* (the largest 1-based input index with
a path to it) is ``m`` is a function of ``x[:, :m]`` alone and is read only
by outputs ``≥ m``. So nothing is ever updated. Each hidden layer's units
are sorted by reach (:func:`sort_by_reach`, shared with the flip kernel) —
"the units final before site ``i``" is then a prefix — and each unit is
computed **exactly once**, at the site where its last input has been drawn.

The sites are walked in blocks of ``BLOCK``. Per block, ONE GEMM per hidden
layer gives the base pre-activations of the block's own units from
everything final before the block, and ONE GEMM gives the block's base
logits; inside the block a site only finalises the units of reach ``i``
(a product over the ≤ ``BLOCK`` in-block columns, ReLU written straight
into the activation buffer), adds the in-block part to its base logit and
draws. Only finalised prefixes are ever read, so the zero-masked weights
inside a prefix (deep ``'random'`` stacks, where reach < assigned degree)
multiply real activations into exact zeros, never stale values.

Every unmasked weight is multiplied once per sample: a one-hidden-layer
MADE costs **exactly half** a dense forward pass for any degree assignment,
batch or ``BLOCK`` (a unit of degree ``m`` has ``m`` input and ``n − m``
output connections), where Algorithm 1 pays ``n`` passes.

The kernel draws from the RNG in exactly the same order — one uniform per
unclamped site per row, a block's worth per call, which is the same stream
as one call per site — and makes the same comparison (``u < σ(z)``) as the
naive sampler, so the produced 0/1 samples are bit-identical to
``MADE.sample(method='naive')`` under the same stream (the conditionals
themselves may differ by a few ULP because the sums are split differently
from the dense matmul; a sample bit could only flip if a uniform draw
landed inside that ~1e-15 window).

Cost accounting: the kernel reports the multiply-accumulates its GEMMs
perform in units of naive batched forward passes
(``forward_pass_equivalents``), which is what
:class:`repro.samplers.base.SamplerStats` surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tensor.tensor import no_grad

__all__ = [
    "IncrementalSampleResult",
    "supports_incremental",
    "incremental_sample",
]

#: Sites per block. Measured, not guessed: flat from 8 to 64 between
#: (n=10, B=256) and (n=2000, B=32) — 16 is within 17 % of the best column on
#: every row; larger blocks lose once their (BLOCK × B) arrays outgrow the
#: cache — so it is a constant, not a knob (docs/performance.md has the table).
BLOCK = 16


@dataclass(frozen=True)
class IncrementalSampleResult:
    """Samples plus the operation count the kernel actually paid.

    ``macs`` counts the multiply-accumulates of the kernel's GEMMs;
    ``full_pass_macs`` is the dense cost of ONE naive batched forward pass,
    so ``forward_pass_equivalents`` is directly comparable to the naive
    sampler's pass count of ``n``.
    """

    samples: np.ndarray
    macs: int
    full_pass_macs: int

    @property
    def forward_pass_equivalents(self) -> float:
        return self.macs / max(1, self.full_pass_macs)


def supports_incremental(model) -> bool:
    """True iff ``model`` is a MADE whose layer stack the kernel understands
    (masked linear layers with biases, ReLU hidden activations)."""
    from repro.models.made import MADE
    from repro.nn.linear import MaskedLinear

    if not isinstance(model, MADE):
        return False
    layers = getattr(model, "_layers", None)
    if not layers:
        return False
    return all(isinstance(l, MaskedLinear) and l.bias is not None for l in layers)


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
    """Draw exact i.i.d. samples from a MADE, computing each hidden unit once.

    Semantics (including ``clamp`` handling and RNG consumption order) match
    ``MADE.sample`` exactly; see :mod:`repro.perf.incremental` for the
    complexity argument.
    """
    if not supports_incremental(model):
        raise TypeError(
            f"incremental sampling requires a MADE-style layer stack; "
            f"got {type(model).__name__}"
        )
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    n = model.n
    clamp = _validate_clamp(clamp, n)
    free = np.ones(n, dtype=bool) if clamp is None else np.isnan(clamp)

    effs, biases = masked_weights(model)
    orders, reaches, weights = sort_by_reach(model, effs)
    biases = [b[order] for b, order in zip(biases, orders)] + biases[-1:]
    depth = len(orders)
    # The inputs are layer 0: x_j has reach j+1. A unit of reach r — input or
    # hidden — is readable from site r on, and cut[l][i] counts the units of
    # layer l with reach < i: a hidden unit is finalised at site == reach.
    reaches = [np.arange(1, n + 1), *reaches]
    cut = [np.searchsorted(r, np.arange(n + 1)) for r in reaches]
    # Each finalised unit (reach < n; one of reach n feeds no output) meets
    # the prefix of the layer below readable at its site, each drawn logit
    # the finalised prefix of the last hidden layer: independent of BLOCK.
    macs = batch_size * int(
        sum(c[r[r < n] + 1].sum() for c, r in zip(cut, reaches[1:]))
        + cut[-1][1:][free].sum()
    )
    # Dense MAC count of one naive batched forward pass (`MADE.logits`).
    dims = [n, *(w.shape[0] for w in weights)]
    full_pass_macs = batch_size * sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    cut = [c.tolist() for c in cut]

    # Unit-major: a unit's activations over the batch are one contiguous row,
    # hid[0] being the samples themselves. Rows are written once, when final.
    hid = [np.empty((d, batch_size)) for d in dims[:-1]]
    w_out, b_out = weights[-1], biases[-1]
    with np.errstate(over="ignore"):  # exp(-z) → inf gives σ = 0 exactly
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
            draw = s0 + np.flatnonzero(free[s0:s1])
            logits = w_out[draw, : lo[-1]] @ hid[-1][: lo[-1]] + b_out[draw, None]
            # One call per block is the same stream as one per drawn site.
            uniforms = rng.random((draw.size, batch_size))
            k = 0
            for i in range(s0, s1):
                for l in range(1, depth + 1):
                    a, c = cut[l][i], cut[l][i + 1]
                    if c > a:  # the units of reach i: their last input is drawn
                        p, r = lo[l - 1], cut[l - 1][i + 1]
                        pre = base[l][a - lo[l] : c - lo[l]]
                        pre += weights[l - 1][a:c, p:r] @ hid[l - 1][p:r]
                        np.maximum(pre, 0.0, out=hid[l][a:c])
                if not free[i]:
                    hid[0][i] = clamp[i]
                    continue
                p, r = lo[-1], cut[-1][i + 1]
                z = logits[k]
                z += w_out[i, p:r] @ hid[-1][p:r]
                np.negative(z, out=z)
                np.exp(z, out=z)
                z += 1.0
                np.reciprocal(z, out=z)
                hid[0][i] = uniforms[k] < z
                k += 1
    return IncrementalSampleResult(
        samples=np.ascontiguousarray(hid[0].T),
        macs=macs,
        full_pass_macs=full_pass_macs,
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
