"""Blocked ancestral sampling for MADE — runs of sites solved by sweeps.

The naive sampler (``MADE.sample(method='naive')``, paper Algorithm 1) runs
``n`` *full* forward passes per batch: at step ``i`` it computes all ``n``
conditionals but consumes only column ``i`` — O(n²·h) work for O(n·h)
information. Conditional ``i`` needs only ``x_<i``, and the masks say more
than that: a hidden unit whose *reach* (the largest 1-based input index with
a path to it) is ``m`` is a function of ``x[:, :m]`` alone and is read only
by outputs ``≥ m``. Each hidden layer's units are sorted by reach
(:func:`reach_of` computes the orders once per model, shared with the flip
kernel), so "the units final before site ``i``" is a prefix.

The sites are walked in blocks of ``BLOCK``. Per block, ONE GEMM per hidden
layer gives the base pre-activations of the block's own units from
everything final before the block, ONE GEMM gives the block's base logits,
and the block's uniforms become its thresholds. Inside the block, runs of
sites are solved as fixed points instead of site by site. Under fixed uniforms a
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

:func:`incremental_sample` draws from the RNG in exactly the same order —
one uniform per unclamped site per row, all of them in one ``(free sites,
B)`` call, which is the same stream as one call per site — and hands them to
the kernel, where ``u < σ(z)`` becomes ``z > log(u / (1 − u))``, with ``u =
0`` drawing a 1 exactly when ``σ(z)`` does not underflow. So the 0/1 samples
are bit-identical to ``MADE.sample(method='naive')`` under the same stream:
the logits and thresholds may differ from the naive ones by a few ULP,
because sums and the sigmoid are rounded differently, and a sample bit could
only flip if a uniform draw landed inside that ~1e-15 window.

Retracing: conditional ``i`` reads the prefix alone, so a row whose uniforms
make a known configuration's choice at every site *is* that configuration.
Given a ``memory`` of configurations, one forward pass over them gives
their conditionals, and each row is checked against them in u-space
(Algorithm 1's own ``u < σ(z)``). The output is the same, and the memory
moves a sample bit only where the kernel already may: a uniform inside the
window between two roundings of one conditional. A concentrated MADE (Max-
Cut's) draws most of a batch as copies of two or three configurations.

Settling: a row that retraces none is solved as a whole. Under its
uniforms its bits satisfy ``x = F(x)``, ``F_i`` reading ``x_<i`` alone, so
the system is triangular and has one solution, Algorithm 1's draw. The
first guess is the bits its uniforms draw under the conditionals of the
remembered configuration it follows longest (the latest first miss): right
up to and including that site. Each sweep is one dense forward pass over
the guesses; a row whose recomputed bits equal its guess is a fixed point
and so the draw, and any other takes them as its next guess. Only the rows
still unsettled after ``SETTLE_SWEEPS`` sweeps go through the kernel, with
their own uniforms.

Cost accounting: the kernel reports the multiply-accumulates its GEMMs
perform, plus the forward passes over the memory and the settling sweeps,
in units of naive batched forward passes (``forward_pass_equivalents``)
and the sweeps of each run, which is what
:class:`repro.samplers.base.SamplerStats` surfaces.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from repro.models.base import validate_configurations
from repro.models.made import MADE

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

#: Whole-row sweeps a row that retraces no remembered configuration gets
#: before the kernel draws it. Measured (docs/performance.md has the table):
#: on a collapsed Max-Cut MADE one sweep settles nearly every such row and
#: a second the rest, while a sweep is one dense forward pass over the rows
#: still unsettled, ~0.08 ms on a few rows at n = 256 against the kernel's
#: ~0.5 ms floor.
SETTLE_SWEEPS = 3

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
    in site order (none when every row retraced a remembered configuration).
    Given a memory, ``followed[b]`` is the configuration of it row ``b``
    retraced, −1 for a row it did not (``None`` without a memory);
    ``settled`` counts the rows of those that whole-row sweeps solved, the
    rest being the kernel's; and ``macs`` also counts the forward passes
    over the memory and over the rows the sweeps tried.
    """

    samples: np.ndarray
    macs: int
    full_pass_macs: int
    sweeps: tuple[int, ...]
    followed: np.ndarray | None = None
    settled: int = 0

    @property
    def forward_pass_equivalents(self) -> float:
        return self.macs / max(1, self.full_pass_macs)

    @property
    def retraced(self) -> int:
        """Rows copied from the memory instead of drawn."""
        return 0 if self.followed is None else int(np.count_nonzero(self.followed >= 0))


def masked_weights(model) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per layer, the masked weight matrix and the bias the forward pass
    applies — the layers' own read-only buffers, not copies."""
    layers = model.fc_layers
    return (
        [layer.effective_weight() for layer in layers],
        [layer.bias.data for layer in layers],
    )


@dataclass(frozen=True)
class Reach:
    """Every hidden layer's units sorted by the reach the masks give them.

    A unit's reach is the largest 1-based input index with a path to it (0
    if none): the unit is a function of ``x[:, :reach]`` alone, and flipping
    input ``s`` can move it only if its reach is ≥ ``s+1``. Read off
    ``layer.pattern`` — not the ``'cycle'`` formula — so ``'random'`` masks
    and deep stacks are sliced by the connectivity they really have. Sorted, "the
    units of reach below (or from) a site" is a contiguous slice.
    """

    #: per hidden layer, the stable argsort by reach — ``slice(None)`` for a
    #: layer already in reach order (every ``'cycle'`` MADE with h < n − 1),
    #: so it and every gather by it are views, not copies
    orders: tuple
    #: per hidden layer, the sorted reaches
    reaches: tuple
    #: per layer, the inputs first (input ``j`` has reach ``j + 1``):
    #: ``cuts[l][i]`` counts the units of layer ``l`` with reach < ``i``
    cuts: tuple
    #: per weight above the first, input to output: row ``i`` of the (sorted)
    #: weight reads the units of the layer below up to ``ends[l][i]`` — a
    #: hidden unit those of reach ≤ its own, output ``i`` those of reach ≤ i
    ends: tuple

    def sort(self, effs: list[np.ndarray]) -> list[np.ndarray]:
        """``effs`` with every hidden layer's units in reach order: its rows,
        and the next layer's columns."""
        weights = list(effs)
        for l, order in enumerate(self.orders):
            if not isinstance(order, slice):
                weights[l] = weights[l][order]
                weights[l + 1] = weights[l + 1][:, order]
        return weights


_REACH: "weakref.WeakKeyDictionary[MADE, Reach]" = weakref.WeakKeyDictionary()


def reach_of(model) -> Reach:
    """The model's :class:`Reach`, computed at its first call and kept for
    the model's lifetime: a layer's mask is fixed at construction."""
    known = _REACH.get(model)
    if known is not None:
        return known
    n = model.n
    orders, reaches = [], []
    reach = np.arange(1, n + 1)
    for layer in model.fc_layers[:-1]:
        reach = np.where(layer.pattern, reach, 0).max(axis=1)
        if np.all(reach[:-1] <= reach[1:]):
            order = slice(None)  # the stable argsort is the identity
        else:
            order = np.argsort(reach, kind="stable")
        orders.append(order)
        reaches.append(reach[order])
    sites = np.arange(n + 1)
    cuts = [np.searchsorted(r, sites).tolist() for r in (sites[1:], *reaches)]
    ends = [np.searchsorted(a, b, "right").tolist() for a, b in zip(reaches, reaches[1:])]
    ends.append(cuts[-1][1:])
    known = _REACH[model] = Reach(tuple(orders), tuple(reaches), tuple(cuts), tuple(ends))
    return known


def incremental_sample(
    model,
    batch_size: int,
    rng: np.random.Generator,
    clamp: np.ndarray | None = None,
    memory: np.ndarray | None = None,
) -> IncrementalSampleResult:
    """Draw exact i.i.d. samples from a MADE by sweeps over runs of sites.

    Semantics (including ``clamp`` handling and RNG consumption order) match
    ``MADE.sample`` exactly; see :mod:`repro.perf.incremental` for the
    complexity and exactness arguments.

    ``memory`` holds (K, n) 0/1 configurations to retrace, without a
    ``clamp``: a row whose uniforms make configuration k's choice at every
    site *is* configuration k (conditional i reads the prefix alone), so it
    is copied instead of drawn, and ``followed`` records k. A row that
    retraces none is settled by whole-row sweeps where they converge. Any
    configurations are a valid memory; they change only which rows the
    kernel draws.
    """
    if not isinstance(model, MADE):
        raise TypeError(f"incremental sampling requires a MADE; got {type(model).__name__}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if clamp is not None and memory is not None:
        raise ValueError("a memory retraces unclamped draws only")
    n = model.n
    clamp = _validate_clamp(clamp, n)
    free = np.ones(n, dtype=bool) if clamp is None else np.isnan(clamp)
    # One call is the same stream as one per drawn site: site-major, B
    # uniforms for each free site.
    uniforms = rng.random((int(np.count_nonzero(free)), batch_size))

    effs, biases = masked_weights(model)
    reach = reach_of(model)
    # Row slices of C-order weights are what the block GEMMs read fastest.
    weights = [np.ascontiguousarray(w) for w in reach.sort(effs)]
    biases = [b[order] for b, order in zip(biases, reach.orders)] + biases[-1:]
    # Dense MAC count of one row's naive forward pass (`MADE.logits`).
    dims = [n, *(w.shape[0] for w in weights)]
    row_macs = sum(a * b for a, b in zip(dims[:-1], dims[1:]))

    followed, macs, settled = None, 0, 0
    if memory is not None and len(memory):
        memory = validate_configurations(memory, n)
        followed, p = _follow(weights, biases, memory, uniforms)
        macs = len(memory) * row_macs
    if followed is None:
        samples, kernel_macs, sweeps = _kernel(reach, weights, biases, uniforms, free, clamp)
    else:
        samples = memory[np.maximum(followed, 0)]
        kernel_macs, sweeps = 0, ()
        drawn = np.flatnonzero(followed < 0)
        if drawn.size:
            u = uniforms[:, drawn]
            x, left, passes = _settle(weights, biases, memory, p, u)
            macs += passes * row_macs
            settled = drawn.size - left.size
            if left.size:
                rest, kernel_macs, sweeps = _kernel(
                    reach, weights, biases, u[:, left], free, clamp
                )
                x[left] = rest
            samples[drawn] = x
    return IncrementalSampleResult(
        samples=samples,
        macs=macs + kernel_macs,
        full_pass_macs=batch_size * row_macs,
        sweeps=sweeps,
        followed=followed,
        settled=settled,
    )


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """``σ(z)`` as ``Tensor.sigmoid`` (the naive sampler's) computes it:
    ``1 / (1 + e^{−z})`` for z ≥ 0, ``e^z / (1 + e^z)`` below."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _conditionals(weights, biases, x) -> np.ndarray:
    """(rows, n) ``σ(z)`` of the rows of ``x``: one dense forward pass."""
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    return _sigmoid(h @ weights[-1].T + biases[-1])


def _follow(weights, biases, memory, uniforms) -> tuple[np.ndarray, np.ndarray]:
    """``(followed (B,), p (K, n))``: the configuration of ``memory`` each
    row's uniforms retrace, −1 for a row that retraces none, and the
    configurations' conditionals.

    One forward pass over the configurations gives every conditional of each,
    and a row follows configuration k when ``u < σ(z_i)`` draws its bit at
    every site — Algorithm 1's own comparison. The configurations are
    tried in order on the rows still unmatched, so the first of two equal
    ones takes the rows.
    """
    p = _conditionals(weights, biases, memory)
    bits = memory == 1.0
    followed = np.full(uniforms.shape[1], -1)
    left = np.arange(uniforms.shape[1])
    for k in range(len(memory)):
        miss = np.less(uniforms, p[k, :, None])
        np.not_equal(miss, bits[k, :, None], out=miss)
        miss = miss.any(axis=0)
        if miss.all():
            continue
        followed[left[~miss]] = k
        left = left[miss]
        if not left.size:
            break
        uniforms = uniforms[:, miss]
    return followed, p


def _settle(weights, biases, memory, p, uniforms):
    """``(x (r, n), left, passes)``: the rows of the ``(n, r)`` uniforms,
    none of which retraces a configuration of ``memory``, drawn by whole-row
    Jacobi sweeps; ``left`` indexes the rows still unsettled after
    ``SETTLE_SWEEPS`` (their ``x`` rows are unwritten), and ``passes``
    counts the rows the sweeps' forward passes ran on.

    ``p`` holds the configurations' conditionals. A row's first guess is
    the bits its uniforms draw under those of the configuration it follows
    longest — the latest first miss; every row misses each somewhere. A
    sweep recomputes the guesses' conditionals in one forward pass, and a
    row whose bits ``u < σ(z)`` reproduce its guess is a fixed point of the
    triangular ``x = F(x)``: Algorithm 1's draw.
    """
    u = uniforms.T
    draws = u[None] < p[:, None, :]  # (K, r, n)
    first = np.not_equal(draws, (memory == 1.0)[:, None, :]).argmax(axis=2)
    rows = np.arange(u.shape[0])
    guess = draws[first.argmax(axis=0), rows]
    x = np.empty(u.shape)
    passes = 0
    for _ in range(SETTLE_SWEEPS):
        new = u[rows] < _conditionals(weights, biases, guess.astype(np.float64))
        passes += rows.size
        same = (new == guess).all(axis=1)
        x[rows[same]] = guess[same]
        rows, guess = rows[~same], new[~same]
        if not rows.size:
            break
    return x, rows, passes


def _kernel(reach: Reach, weights, biases, uniforms, free, clamp):
    """``(samples (B, n), macs, sweeps)`` of the sweeps over runs of sites,
    drawing with the given ``(free sites, B)`` uniforms."""
    n, batch_size = free.size, uniforms.shape[1]
    depth = len(reach.orders)
    # The inputs are layer 0: x_j has reach j+1. A unit of reach r — input or
    # hidden — is readable from site r on, and cut[l][i] counts the units of
    # layer l with reach < i: a hidden unit is final once site reach-1 is.
    cut = reach.cuts
    dims = [n, *(w.shape[0] for w in weights)]
    run = max(1, min(BLOCK, SWEEP_ELEMS // batch_size))

    # Unit-major: a unit's activations over the batch are one contiguous row,
    # hid[0] being the samples themselves.
    hid = [np.empty((d, batch_size)) for d in dims[:-1]]
    w_out, b_out = weights[-1], biases[-1]
    # ahead[i]: free sites before site i, so a run's logit rows are a slice.
    ahead = np.concatenate([[0], np.cumsum(free)]).tolist()
    # A block's margins and logit scratch, allocated once: at large B a fresh
    # (BLOCK, B) array per block costs its page faults again.
    margins, logits = np.empty((2, BLOCK, batch_size))
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
            # u < σ(z) ⟺ z > log(u / (1 − u)), 1 − u being exact for every u
            # the generator returns (a multiple of 2⁻⁵³ in [0, 1)); the margin
            # is that threshold less the block's base logit z₀, so a site is
            # drawn iff its in-block logit part z − z₀ exceeds it.
            u = uniforms[ahead[s0] : ahead[s1]]
            margin = np.subtract(1.0, u, out=margins[:k])
            np.divide(u, margin, out=margin)
            np.log(margin, out=margin)
            np.maximum(margin, _LOGIT_OF_ZERO, out=margin)
            margin -= np.matmul(w_out[draw, : lo[-1]], hid[-1][: lo[-1]], out=logits[:k])
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
    return np.ascontiguousarray(hid[0].T), batch_size * macs, tuple(sweeps)


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
