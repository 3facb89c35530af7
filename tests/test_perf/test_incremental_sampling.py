"""Property tests: the incremental sampler is bit-identical to Algorithm 1.

The incremental kernel must reproduce the naive sampler's 0/1 output
exactly for the same RNG stream, and leave the stream where the naive
sampler leaves it — with and without ancestral clamping, for shallow and
deep MADEs, across mask strategies, whatever the block size.
"""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models import MADE
from repro.perf import incremental, incremental_sample, supports_incremental

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
        hole will produce, written into ``layer.mask`` by hand."""
        n, h = 40, 6
        model = _build_made(n, [h], seed=11, spread=0.8)
        if masks == "spread":
            sites = np.arange(1, n + 1)
            degrees = 1 + (np.arange(h) * (n - 1)) // h
            first, last = model.fc_layers
            first.mask[...] = degrees[:, None] >= sites[None, :]
            last.mask[...] = sites[:, None] > degrees[None, :]
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


def test_benchmark_shape_smoke():
    """One block-boundary-crossing run at the `maxcut256` shape, tier-1 sized."""
    model = _build_made(256, [154], seed=0, spread=0.05)
    _assert_matches_naive(model, 8, seed=1)


def _unmasked_weights(model) -> int:
    return sum(int(np.count_nonzero(layer.mask)) for layer in model.fc_layers)


class TestCostAccounting:
    """Every unmasked weight is multiplied once per sample."""

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("strategy", ["cycle", "random"])
    @pytest.mark.parametrize("batch,seed", [(1, 0), (7, 1), (64, 2)])
    def test_one_hidden_layer_costs_half_a_pass(self, block, strategy, batch, seed):
        model = MADE(
            23, hidden=17, rng=np.random.default_rng(seed), mask_strategy=strategy
        )
        with mock.patch.object(incremental, "BLOCK", block):
            result = incremental_sample(model, batch, np.random.default_rng(seed))
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
        cost = {
            name: incremental_sample(model, 5, rng, clamp=clamp).macs
            for name, clamp in [("free", free), ("half", half), ("all", np.ones(9))]
        }
        assert cost["all"] == 5 * np.count_nonzero(first.mask)
        assert cost["half"] == cost["all"] + 5 * np.count_nonzero(last.mask[1::2])
        assert cost["free"] == cost["all"] + 5 * np.count_nonzero(last.mask)


class TestKernelInterface:
    def test_supports_made_only(self, rng):
        from repro.models import MeanField

        assert supports_incremental(MADE(5, rng=rng))
        assert not supports_incremental(MeanField(5, rng=rng))

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
