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

Without a memory, :func:`incremental_sample` draws from the RNG in exactly
the same order as ``MADE.sample(method='naive')`` — one uniform per
unclamped site per row, all of them in one ``(free sites, B)`` call, which
is the same stream as one call per site — and turns them into thresholds,
where ``u < σ(z)`` becomes ``z > log(u / (1 − u))``, with ``u = 0`` drawing
a 1 exactly when ``σ(z)`` does not underflow. So the 0/1 samples are
bit-identical to the naive sampler's under the same stream: the logits and
thresholds may differ from the naive ones by a few ULP, because sums and
the sigmoid are rounded differently, and a sample bit could only flip if a
uniform draw landed inside that ~1e-15 window.

Retracing: given a ``memory`` of K configurations, the draw is exact in
distribution instead, and draws counts rather than rows. Conditional ``i``
reads the prefix alone, so one forward pass over the configurations gives
every conditional along their prefix trie. A sample either ends at a
remembered configuration (a leaf) or leaves the trie at ``(k, i)``: it
follows configuration k's prefix ``M_k[:i]`` and takes the other bit at
site i, where no configuration continues. Those outcomes are disjoint and
their probabilities, products of the conditionals along the path, sum to
1, so one multinomial over them says how many of the ``B`` samples end at
each leaf and how many leave (a draw among the exits then says where). A
sample that leaves gets its own uniforms: its prefix and flipped bit are
forced through the thresholds (``∓∞``), and the rest is drawn by
whole-row sweeps from a guess under configuration k's conditionals
(settling) or, for the rows still unsettled after ``SETTLE_SWEEPS``, by the
kernel. Settling: under fixed thresholds a row's bits satisfy the
triangular ``x = F(x)``, ``F_i`` reading ``x_<i`` alone, whose one solution
is Algorithm 1's draw; a sweep is one dense forward pass over the guesses,
and a row whose recomputed bits equal its guess is that solution. The
leaves and the distinct rows that left are the batch's groups, and one
random permutation of the labels makes the batch exchangeable row by row.
A concentrated MADE (Max-Cut's) draws most of a batch as copies of two or
three configurations, and then no ``(n, B)`` uniform array is drawn.

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
from repro.utils.rows import DistinctRows, distinct_rows, every_row

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

#: Whole-row sweeps a row that leaves the remembered configurations gets
#: before the kernel draws it. Measured (docs/performance.md, "Retracing
#: remembered configurations"): on a collapsed Max-Cut MADE one sweep
#: settles nearly every such row and a second the rest, while a sweep is
#: one dense forward pass over the rows still unsettled, ~0.08 ms on a few
#: rows at n = 256 against the kernel's ~0.5 ms floor.
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
    in site order (none when the kernel did not run). Given a memory,
    ``rows`` groups the batch (the remembered configurations and the
    distinct rows that left them), ``retraced`` counts the samples that
    ended at a remembered configuration, ``settled`` those of the others
    that whole-row sweeps drew, the rest being the kernel's; and ``macs``
    also counts the forward passes over the memory and over the rows the
    sweeps tried.
    """

    samples: np.ndarray
    macs: int
    full_pass_macs: int
    sweeps: tuple[int, ...]
    rows: DistinctRows | None = None
    retraced: int = 0
    settled: int = 0

    @property
    def forward_pass_equivalents(self) -> float:
        return self.macs / max(1, self.full_pass_macs)


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

    Without a memory, semantics (including ``clamp`` handling and RNG
    consumption order) match ``MADE.sample`` exactly; see
    :mod:`repro.perf.incremental` for the complexity and exactness
    arguments.

    ``memory`` holds (K, n) 0/1 configurations to retrace, without a
    ``clamp``: the samples that end at one of them are counted, not drawn,
    and only those that leave them get uniforms. The batch is then exact in
    distribution, not bit for bit, and ``rows`` holds its grouping. Any
    configurations are a valid memory; they change only how the batch is
    drawn.
    """
    if not isinstance(model, MADE):
        raise TypeError(f"incremental sampling requires a MADE; got {type(model).__name__}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    if clamp is not None and memory is not None:
        raise ValueError("a memory retraces unclamped draws only")
    n = model.n
    clamp = _validate_clamp(clamp, n)
    effs, biases = masked_weights(model)
    reach = reach_of(model)
    # Row slices of C-order weights are what the block GEMMs read fastest.
    weights = [np.ascontiguousarray(w) for w in reach.sort(effs)]
    biases = [b[order] for b, order in zip(biases, reach.orders)] + biases[-1:]
    # Dense MAC count of one row's naive forward pass (`MADE.logits`).
    dims = [n, *(w.shape[0] for w in weights)]
    row_macs = sum(a * b for a, b in zip(dims[:-1], dims[1:]))
    if memory is not None and len(memory):
        memory = validate_configurations(memory, n)
        return _retrace(reach, weights, biases, memory, batch_size, rng, row_macs)
    free = np.ones(n, dtype=bool) if clamp is None else np.isnan(clamp)
    # One call is the same stream as one per drawn site: site-major, B
    # uniforms for each free site.
    thresholds = _log_odds(rng.random((int(np.count_nonzero(free)), batch_size)))
    samples, macs, sweeps = _kernel(reach, weights, biases, thresholds, free, clamp)
    return IncrementalSampleResult(samples, macs, batch_size * row_macs, sweeps)


def _log_odds(u: np.ndarray) -> np.ndarray:
    """``log(u / (1 − u))`` of the uniforms, in place: ``u < σ(z)`` ⟺ ``z >``
    it. ``1 − u`` is exact for every u the generator returns (a multiple of
    2⁻⁵³ in [0, 1)); u = 0 gets ``_LOGIT_OF_ZERO``, not −∞."""
    with np.errstate(divide="ignore"):  # u = 0: log 0 = -inf, floored below
        np.divide(u, np.subtract(1.0, u), out=u)
        np.log(u, out=u)
    return np.maximum(u, _LOGIT_OF_ZERO, out=u)


def _logits(weights, biases, x) -> np.ndarray:
    """(rows, n) logits of the rows of ``x``: one dense forward pass."""
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.maximum(h @ w.T + b, 0.0)
    return h @ weights[-1].T + biases[-1]


def _outcomes(memory: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(leaf (K,), away (K, n))``: the log-probabilities of one sample's
    outcomes against the prefix trie of the (K, n) configurations
    ``memory``, whose logits are ``z``.

    ``leaf[k]`` is that of retracing configuration k (−∞ for a repeat of an
    earlier one). ``away[k, i]`` is that of following ``M_k[:i]`` and taking
    the other bit at site i, an outcome (else −∞) when k is the first
    configuration with that prefix and none continues it with that bit.
    Everything is in log space, from the logits: at a collapsed site
    ``σ(z)`` is 1 − 1e-13, and ``1 − σ(z)`` has no digits left.
    """
    n = memory.shape[1]
    bits = memory == 1.0
    # With s = ±1 the configuration's bit, log σ(s·z) = −logaddexp(0, −s·z),
    # and the other bit's log σ(−s·z) is that less s·z: the path up to and
    # including site i, less s·z_i, is the exit at site i.
    away = np.where(bits, -z, z)  # −s·z
    path = np.cumsum(np.logaddexp(0.0, away), axis=1)  # −log P(M_k[:i+1])
    np.subtract(away, path, out=away)
    leaf = -path[:, -1]
    # The trie, from the configurations as integers: two first differ at
    # their XOR's leading bit (``width`` and more where they are equal).
    width = 8 * -(-n // 8)
    keys = [int.from_bytes(row.tobytes(), "big") for row in np.packbits(bits, axis=1)]
    forks = []
    for k, key in enumerate(keys):
        differ = [width - (key ^ other).bit_length() for other in keys]
        # k owns the prefixes longer than any an earlier configuration
        # shares, less the sites where another continues with the other bit.
        shared = max(differ[:k], default=-1)
        if shared >= n:  # a repeat of an earlier configuration
            leaf[k] = -np.inf
        if shared >= 0:
            away[k, : shared + 1] = -np.inf
        forks += [(k, i) for i in differ if i < n]
    if forks:
        away[tuple(zip(*forks))] = -np.inf
    return leaf, away


def _retrace(reach, weights, biases, memory, batch_size, rng, row_macs):
    """The draw given a memory: counts over its prefix trie, uniforms only
    for the samples that leave it (see the module doc)."""
    k_count, n = memory.shape
    z = _logits(weights, biases, memory)
    leaf, away = _outcomes(memory, z)
    stay, cdf = np.exp(leaf), np.cumsum(np.exp(away))
    # One multinomial over the leaves and the exits' total. That total is
    # summed from its parts and drawn first, as one binomial: no difference
    # of near-equal numbers decides it.
    p = np.concatenate([cdf[-1:], stay])
    counts = rng.multinomial(batch_size, p / p.sum())
    left, counts = int(counts[0]), counts[1:]
    macs, settled, sweeps = k_count * row_macs, 0, ()
    kept = np.flatnonzero(counts)
    heads, sizes = memory[kept], counts[kept]
    if left:
        cdf /= cdf[-1]  # exactly 1 at the end, so every uniform lands
        k, i = np.divmod(np.searchsorted(cdf, rng.random(left), side="right"), n)
        # The exits' own uniforms; the prefix and the other bit at the exit
        # site are forced through the thresholds, which no uniform can do
        # where σ(z) rounds to 1.
        force = np.where(memory[k].T == 1.0, -np.inf, np.inf)
        force[i, np.arange(left)] *= -1.0
        t = _log_odds(rng.random((n, left)))
        t = np.where(np.arange(n)[:, None] <= i, force, t)
        x, rest, passes = _settle(weights, biases, t, z[k] > t.T)
        macs += passes * row_macs
        settled = left - rest.size
        if rest.size:
            free = np.ones(n, dtype=bool)
            x[rest], kernel_macs, sweeps = _kernel(reach, weights, biases, t[:, rest], free, None)
            macs += kernel_macs
        # A row that left differs from every leaf at its exit site: only
        # these rows need grouping.
        own = distinct_rows(x == 1.0) if left > 1 else every_row(1)
        heads = np.concatenate([heads, x[own.first]])
        sizes = np.concatenate([sizes, own.counts])
    # The samples, group by group, are sent to uniformly random places: a
    # batch in trie order is not exchangeable row by row.
    place = rng.permutation(batch_size)
    first = np.minimum.reduceat(place, np.cumsum(sizes) - sizes)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    inverse = np.empty(batch_size, dtype=np.intp)
    inverse[place] = np.repeat(rank, sizes)
    return IncrementalSampleResult(
        samples=heads[order][inverse],
        macs=macs,
        full_pass_macs=batch_size * row_macs,
        sweeps=sweeps,
        rows=DistinctRows(first[order], inverse),
        retraced=batch_size - left,
        settled=settled,
    )


def _settle(weights, biases, thresholds, guess):
    """``(x (r, n), left, passes)``: the rows of the ``(n, r)`` thresholds
    drawn by whole-row Jacobi sweeps from the (r, n) bool ``guess``;
    ``left`` indexes the rows still unsettled after ``SETTLE_SWEEPS`` (their
    ``x`` rows are unwritten), and ``passes`` counts the rows the sweeps'
    forward passes ran on.

    A sweep recomputes the guesses' logits in one forward pass, and a row
    whose bits ``z > t`` reproduce its guess is a fixed point of the
    triangular ``x = F(x)``: Algorithm 1's draw under those thresholds.
    """
    t = thresholds.T
    x = np.empty(guess.shape)
    rows = np.arange(len(guess))
    passes = 0
    for _ in range(SETTLE_SWEEPS):
        new = _logits(weights, biases, guess.astype(np.float64)) > t[rows]
        passes += rows.size
        same = (new == guess).all(axis=1)
        x[rows[same]] = guess[same]
        rows, guess = rows[~same], new[~same]
        if not rows.size:
            break
    return x, rows, passes


def _kernel(reach: Reach, weights, biases, thresholds, free, clamp):
    """``(samples (B, n), macs, sweeps)`` of the sweeps over runs of sites,
    drawing site i's bit as ``z > t`` with the given ``(free sites, B)``
    thresholds (``_log_odds`` of uniforms; ``∓∞`` forces a bit)."""
    n, batch_size = free.size, thresholds.shape[1]
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
        # The margin is the threshold less the block's base logit z₀, so
        # a site is drawn iff its in-block logit part z − z₀ exceeds it.
        margin = np.subtract(
            thresholds[ahead[s0] : ahead[s1]],
            np.matmul(w_out[draw, : lo[-1]], hid[-1][: lo[-1]], out=logits[:k]),
            out=margins[:k],
        )
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
