"""Property tests: the incremental sampler is bit-identical to Algorithm 1.

The incremental kernel must reproduce the naive sampler's 0/1 output
exactly for the same RNG stream, and leave the stream where the naive
sampler leaves it — with and without ancestral clamping, for shallow and
deep MADEs, across mask strategies, whatever the block or run length.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import MADE
from repro.perf import flip_log_ratios, incremental, incremental_sample
from tests.conftest import made_with_masks

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SETTINGS = dict(max_examples=30, deadline=None, derandomize=True)


def _build_made(n: int, widths: list[int], seed: int, spread: float) -> MADE:
    rng = np.random.default_rng(seed)
    model = MADE(n, hidden=widths if len(widths) > 1 else widths[0], rng=rng)
    # Push weights away from init so conditionals are far from 1/2 and the
    # comparison exercises both branches of the ReLUs.
    for p in model.parameters():
        p.data += rng.normal(size=p.shape) * spread
    return model


@st.composite
def made_specs(draw):
    n = draw(st.integers(min_value=1, max_value=16))
    depth = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.integers(min_value=1, max_value=24)) for _ in range(depth)]
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    spread = draw(st.floats(min_value=0.0, max_value=1.5))
    return n, widths, seed, spread


BLOCKS = (1, 3, incremental.BLOCK)


def _assert_matches_naive(model, batch, seed, clamp=None):
    """Same samples as Algorithm 1, and the generator left at the same stream
    position — at every block size: the hypothesis specs draw n ≤ 16, so only
    a forced size makes them cross block boundaries."""
    slow = np.random.default_rng(seed)
    x_slow = model.sample(batch, slow, clamp=clamp, method="naive")
    next_draw = slow.random()
    for block in BLOCKS:
        fast = np.random.default_rng(seed)
        with mock.patch.object(incremental, "BLOCK", block):
            x_fast = model.sample(batch, fast, clamp=clamp, method="incremental")
        assert np.array_equal(x_fast, x_slow), block
        assert fast.random() == next_draw, block
    return x_slow


class TestBitIdentical:
    @settings(**SETTINGS)
    @given(spec=made_specs(), batch=st.integers(min_value=1, max_value=64))
    def test_matches_naive_without_clamp(self, spec, batch):
        n, widths, seed, spread = spec
        _assert_matches_naive(_build_made(n, widths, seed, spread), batch, seed)

    @settings(**SETTINGS)
    @given(
        spec=made_specs(),
        batch=st.integers(min_value=1, max_value=32),
        data=st.data(),
    )
    def test_matches_naive_with_clamp(self, spec, batch, data):
        n, widths, seed, spread = spec
        model = _build_made(n, widths, seed, spread)
        clamp = np.array(
            [
                data.draw(st.sampled_from([np.nan, 0.0, 1.0]), label=f"clamp[{i}]")
                for i in range(n)
            ]
        )
        x_fast = _assert_matches_naive(model, batch, seed, clamp)
        fixed = ~np.isnan(clamp)
        assert np.array_equal(
            x_fast[:, fixed], np.broadcast_to(clamp[fixed], (batch, fixed.sum()))
        )

    @settings(**SETTINGS)
    @given(spec=made_specs())
    def test_random_mask_strategy_too(self, spec):
        n, widths, seed, _ = spec
        rng = np.random.default_rng(seed)
        model = MADE(
            n,
            hidden=widths if len(widths) > 1 else widths[0],
            rng=rng,
            mask_strategy="random",
        )
        _assert_matches_naive(model, 32, seed)

    @pytest.mark.parametrize("fixed", ["all", "one-block", "none"])
    def test_stream_position_under_clamps(self, fixed):
        """No uniform is drawn for a clamped site — also when a whole block
        (the second, at the default size) or every site is clamped."""
        n = 2 * incremental.BLOCK + 8
        model = _build_made(n, [12], seed=3, spread=0.8)
        clamp = np.full(n, np.nan)
        if fixed == "all":
            clamp[:] = np.arange(n) % 2
        elif fixed == "one-block":
            clamp[incremental.BLOCK : 2 * incremental.BLOCK] = 1.0
        _assert_matches_naive(model, 8, seed=5, clamp=clamp)

    @pytest.mark.parametrize("masks", ["cycle", "spread"])
    def test_narrow_hidden_layer(self, masks):
        """h ≪ n. 'cycle' hands out degrees 1…h only, so sites > h finalise
        nothing; 'spread' is the degree assignment the ROADMAP's fix for that
        hole will produce, handed to the layers by hand."""
        n, h = 40, 6
        if masks == "spread":
            sites = np.arange(1, n + 1)
            degrees = 1 + (np.arange(h) * (n - 1)) // h
            spread = [degrees[:, None] >= sites[None, :], sites[:, None] > degrees[None, :]]
            rng = np.random.default_rng(11)
            model = made_with_masks(n, h, spread, rng)
            for p in model.parameters():
                p.data += rng.normal(size=p.shape) * 0.8
        else:
            model = _build_made(n, [h], seed=11, spread=0.8)
        _assert_matches_naive(model, 16, seed=13)

    def test_saturated_conditionals(self):
        """Parameters × 50: logits in the hundreds, σ exactly 0 or 1 — and no
        overflow warning escapes the kernel."""
        model = _build_made(12, [20, 20], seed=17, spread=1.0)
        for p in model.parameters():
            p.data *= 50.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _assert_matches_naive(model, 64, seed=19)


def _copy_chain(n: int, gain: float = 50.0) -> MADE:
    """x_0 is a fair coin and every later bit copies its predecessor: hidden
    unit j reads x_j alone (reach j+1), and output i reads unit i−1 alone,
    with logit ±gain. The guess a run starts from sees the bias −gain only,
    so in a row of ones every sweep fixes exactly one more site."""
    masks = [np.eye(n - 1, n), np.eye(n, n - 1, k=-1)]
    model = made_with_masks(n, n - 1, masks, np.random.default_rng(0))
    first, last = model.fc_layers
    first.weight.data[...] = 1.0
    first.bias.data[...] = 0.0
    last.weight.data[...] = 2.0 * gain
    last.bias.data[...] = -gain
    last.bias.data[0] = 0.0
    return model


class _ZeroingGenerator:
    """A real stream with every third uniform replaced by exactly 0 — the same
    values whether drawn a site or a block at a time."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.drawn = 0

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        flat = u.reshape(-1)
        flat[(self.drawn + np.arange(flat.size)) % 3 == 0] = 0.0
        self.drawn += flat.size
        return u


class TestSweeps:
    """A run of sites is a triangular fixed point: sweep t fixes site t."""

    def test_copy_chain_needs_every_sweep(self):
        n = 2 * incremental.BLOCK + 5
        model = _copy_chain(n)
        x = _assert_matches_naive(model, 16, seed=21)
        assert x[:, 0].any() and not x[:, 0].all()
        assert np.array_equal(x, np.repeat(x[:, :1], n, axis=1))
        result = incremental_sample(model, 16, np.random.default_rng(21))
        assert result.sweeps == tuple(_run_lengths(n, 16)) == (16, 16, 5)

    @settings(**SETTINGS)
    @given(
        spec=made_specs(),
        batch=st.integers(min_value=1, max_value=64),
        block=st.sampled_from(BLOCKS),
    )
    def test_sweeps_never_exceed_the_run_length(self, spec, batch, block):
        n, widths, seed, spread = spec
        model = _build_made(n, widths, seed, spread)
        with mock.patch.object(incremental, "BLOCK", block):
            result = incremental_sample(model, batch, np.random.default_rng(seed))
            lengths = _run_lengths(n, batch)
        assert len(result.sweeps) == len(lengths)
        assert all(1 <= s <= m for s, m in zip(result.sweeps, lengths))

    @pytest.mark.parametrize("run", [1, 3, 16])
    def test_run_length_does_not_change_the_samples(self, run):
        n, batch = 2 * incremental.BLOCK + 8, 12
        model = _build_made(n, [30], seed=23, spread=0.8)
        with mock.patch.object(incremental, "SWEEP_ELEMS", run * batch):
            assert max(_run_lengths(n, batch)) == run
            _assert_matches_naive(model, batch, seed=29)

    def test_zero_uniforms_under_saturated_logits(self):
        """u = 0 draws a 1 exactly when σ(z) does not underflow to 0 — here
        logits reach ±1e6 — and log 0 raises no warning out of the kernel."""
        model = _build_made(12, [20, 20], seed=17, spread=1.0)
        for p in model.parameters():
            p.data *= 50.0
        batch = 64
        slow = _ZeroingGenerator(31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x_slow = model.sample(batch, slow, method="naive")
            for block in BLOCKS:
                fast = _ZeroingGenerator(31)
                with mock.patch.object(incremental, "BLOCK", block):
                    x_fast = model.sample(batch, fast, method="incremental")
                assert np.array_equal(x_fast, x_slow), block
                assert fast.drawn == slow.drawn
        # Site-major stream: the zeroed uniforms drew both bits.
        zeroed = (np.arange(12 * batch).reshape(12, batch).T % 3) == 0
        assert set(x_slow[zeroed]) == {0.0, 1.0}


def test_benchmark_shape_smoke():
    """One block-boundary-crossing run at the `maxcut256` shape, tier-1 sized."""
    model = _build_made(256, [154], seed=0, spread=0.05)
    _assert_matches_naive(model, 8, seed=1)


@pytest.mark.parametrize(
    "n, h, in_order", [(256, 154, True), (30, 20, True), (64, 86, False), (16, 38, False)]
)
def test_a_layer_in_reach_order_is_not_gathered(n, h, in_order):
    """A ``'cycle'`` MADE with h < n − 1 has its hidden units in reach order
    already: ``Reach.sort`` hands back the masked weights it was given,
    uncopied. Neither kernel writes through them into a parameter."""
    model = _build_made(n, [h], seed=0, spread=0.05)
    effs = incremental.masked_weights(model)[0]
    reach = incremental.reach_of(model)
    weights = reach.sort(effs)
    assert np.all(np.diff(reach.reaches[0]) >= 0)
    assert all(w is e for w, e in zip(weights, effs)) == in_order
    before = [p.data.copy() for p in model.parameters()]
    x = incremental_sample(model, 8, np.random.default_rng(1)).samples
    flip_log_ratios(model, np.arange(n), x)
    assert all(np.array_equal(p.data, b) for p, b in zip(model.parameters(), before))


def _unmasked_weights(model) -> int:
    return sum(int(np.count_nonzero(layer.pattern)) for layer in model.fc_layers)


def _run_lengths(n: int, batch: int) -> list[int]:
    """Sites per run, in order: runs of ``min(BLOCK, SWEEP_ELEMS // B)`` (at
    least 1) tile each block of ``BLOCK`` sites."""
    block = incremental.BLOCK
    run = max(1, min(block, incremental.SWEEP_ELEMS // batch))
    return [
        min(r0 + run, s0 + block, n) - r0
        for s0 in range(0, n, block)
        for r0 in range(s0, min(s0 + block, n), run)
    ]


def _gemm_macs(model, batch: int, clamp=None) -> tuple[int, list[int]]:
    """The kernel's GEMM shapes, from the masks alone: the block prefix MACs,
    and per run the MACs of one sweep. A block's units read everything of
    reach below the block's start; a sweep reads the columns from there to
    the run's end, and computes a logit row for each free site only."""
    n, block = model.n, incremental.BLOCK
    free = np.ones(n, bool) if clamp is None else np.isnan(clamp)
    reaches = incremental.reach_of(model).reaches
    cut = [np.searchsorted(r, np.arange(n + 1)) for r in [np.arange(1, n + 1), *reaches]]
    runs = iter(np.cumsum([0, *_run_lengths(n, batch)]))
    prefix, per_sweep = 0, []
    r0 = next(runs)
    for s0 in range(0, n, block):
        s1 = min(s0 + block, n)
        lo = [c[s0] for c in cut]
        prefix += sum((cut[l][s1] - lo[l]) * lo[l - 1] for l in range(1, len(cut)))
        prefix += free[s0:s1].sum() * lo[-1]
        while r0 < s1:
            r1 = next(runs)
            units = sum(
                (cut[l][r1] - cut[l][r0]) * (cut[l - 1][r1] - lo[l - 1])
                for l in range(1, len(cut))
            )
            per_sweep.append(batch * int(units + free[r0:r1].sum() * (cut[-1][r1] - lo[-1])))
            r0 = r1
    return batch * int(prefix), per_sweep


def _assert_priced_by_sweeps(model, batch, result, clamp=None):
    """``macs`` is the prefix GEMMs plus every sweep's in-run GEMMs."""
    prefix, per_sweep = _gemm_macs(model, batch, clamp)
    assert len(result.sweeps) == len(per_sweep)
    assert result.macs == prefix + sum(s * m for s, m in zip(result.sweeps, per_sweep))


class TestCostAccounting:
    """Every unmasked weight is multiplied at least once per sample — exactly
    once when runs are one site long; a longer run pays its in-run GEMMs once
    per sweep."""

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("strategy", ["cycle", "random"])
    @pytest.mark.parametrize("batch,seed", [(1, 0), (7, 1), (64, 2)])
    def test_one_hidden_layer_costs_half_a_pass(self, block, strategy, batch, seed):
        model = MADE(
            23, hidden=17, rng=np.random.default_rng(seed), mask_strategy=strategy
        )
        with mock.patch.object(incremental, "BLOCK", block):
            result = incremental_sample(model, batch, np.random.default_rng(seed))
            _assert_priced_by_sweeps(model, batch, result)
        floor = batch * _unmasked_weights(model)
        if block == 1:  # runs of one site: the mask floor, exactly
            assert result.macs == floor
            assert result.forward_pass_equivalents == 0.5
        else:
            assert result.macs >= floor

    @pytest.mark.parametrize("strategy", ["cycle", "random"])
    def test_large_batches_run_one_site_at_the_mask_floor(self, strategy):
        model = MADE(40, hidden=17, rng=np.random.default_rng(3), mask_strategy=strategy)
        batch = incremental.SWEEP_ELEMS // 2 + 1
        result = incremental_sample(model, batch, np.random.default_rng(4))
        assert result.sweeps == (1,) * model.n
        assert result.macs == batch * _unmasked_weights(model)
        assert result.forward_pass_equivalents == 0.5

    @pytest.mark.parametrize("strategy", ["cycle", "random"])
    @pytest.mark.parametrize("widths", [[154, 154], [40, 40, 40]])
    def test_deep_stacks_stay_near_the_mask_floor(self, strategy, widths):
        """The parent kernel paid a full h×h product per site: 30 passes."""
        model = MADE(
            256, hidden=widths, rng=np.random.default_rng(0), mask_strategy=strategy
        )
        result = incremental_sample(model, 4, np.random.default_rng(1))
        # ≥: a deep stack also multiplies the zero-masked weights inside a prefix
        assert result.macs >= 4 * _unmasked_weights(model)
        assert result.forward_pass_equivalents < 0.6

    def test_clamped_sites_cost_no_logit(self, rng):
        model = MADE(9, hidden=14, rng=rng)
        first, last = model.fc_layers
        free = np.full(9, np.nan)
        half = free.copy()
        half[::2] = 1.0
        clamps = [("free", free), ("half", half), ("all", np.ones(9))]
        # Runs of one site: the mask floor, where a clamped site's logit row
        # is exactly the cost it does not pay.
        with mock.patch.object(incremental, "BLOCK", 1):
            cost = {
                name: incremental_sample(model, 5, rng, clamp=clamp).macs
                for name, clamp in clamps
            }
        assert cost["all"] == 5 * np.count_nonzero(first.pattern)
        assert cost["half"] == cost["all"] + 5 * np.count_nonzero(last.pattern[1::2])
        assert cost["free"] == cost["all"] + 5 * np.count_nonzero(last.pattern)
        # One 9-site run: priced by its sweeps, with logit rows for free sites
        # only; with none free, one sweep computes the units and nothing more.
        for name, clamp in clamps:
            result = incremental_sample(model, 5, rng, clamp=clamp)
            _assert_priced_by_sweeps(model, 5, result, clamp)
            assert result.macs >= cost[name]
        assert result.sweeps == (1,)


class TestKernelInterface:
    def test_rejects_non_made(self, rng):
        from repro.models import MeanField

        with pytest.raises(TypeError):
            incremental_sample(MeanField(5, rng=rng), 4, rng)

    def test_rejects_bad_batch(self, rng):
        with pytest.raises(ValueError):
            incremental_sample(MADE(5, rng=rng), 0, rng)

    def test_cost_accounting_is_sublinear_in_n(self):
        """The whole point: measured cost ≪ the naive n passes."""
        rng = np.random.default_rng(0)
        model = MADE(64, rng=rng)
        result = incremental_sample(model, 128, np.random.default_rng(1))
        assert result.samples.shape == (128, 64)
        assert result.macs > 0
        assert result.forward_pass_equivalents < 2.0  # naive pays 64

    def test_clamp_validation_matches_naive(self, rng):
        model = MADE(4, rng=rng)
        with pytest.raises(ValueError):
            incremental_sample(model, 2, rng, clamp=np.array([0.5, np.nan, 0, 1]))
        with pytest.raises(ValueError):
            incremental_sample(model, 2, rng, clamp=np.zeros(3))
