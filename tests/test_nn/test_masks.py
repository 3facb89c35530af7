"""MADE mask construction: the autoregressive property must hold exactly."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import MADE
from repro.nn.masks import hidden_degrees, made_masks
from tests.conftest import assert_autoregressive, mask_connectivity


class TestDegrees:
    def test_cycle_covers_all_degrees(self):
        deg = hidden_degrees(5, 12)
        assert set(deg) == {1, 2, 3, 4}

    def test_random_requires_rng(self):
        with pytest.raises(ValueError):
            hidden_degrees(5, 4, strategy="random")

    def test_random_in_range(self, rng):
        deg = hidden_degrees(6, 100, rng=rng, strategy="random")
        assert deg.min() >= 1 and deg.max() <= 5

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            hidden_degrees(5, 4, strategy="???")

    def test_n_one_is_degenerate_but_valid(self):
        masks = made_masks(1, [4])
        # Output 1 must be connected to nothing.
        assert not mask_connectivity(masks).any()


class TestMasks:
    @pytest.mark.parametrize("n,h", [(2, 1), (3, 5), (8, 16), (20, 7), (50, 100)])
    def test_autoregressive_property(self, n, h):
        assert_autoregressive(made_masks(n, [h]))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(1, 12),
        st.lists(st.integers(1, 16), min_size=1, max_size=3),
        st.sampled_from(["cycle", "random"]),
        st.integers(0, 2**16),
    )
    def test_autoregressive_property_hypothesis(self, n, widths, strategy, seed):
        """Any stack the degree rule builds is strictly lower triangular
        once composed, and it is what a MADE's layers hold."""
        masks = made_masks(n, widths, rng=np.random.default_rng(seed), strategy=strategy)
        assert all(m.dtype == bool and not m.flags.writeable for m in masks)
        assert_autoregressive(masks)
        model = MADE(n, hidden=widths, rng=np.random.default_rng(seed), mask_strategy=strategy)
        for mask, layer in zip(masks, model.fc_layers, strict=True):
            assert np.array_equal(layer.pattern, mask)

    def test_first_output_disconnected(self):
        conn = mask_connectivity(made_masks(6, [20]))
        assert not conn[0].any()

    def test_last_output_sees_all_but_last_input(self):
        conn = mask_connectivity(made_masks(6, [24]))
        assert conn[5, :5].all()
        assert not conn[5, 5]

    def test_random_strategy_also_autoregressive(self, rng):
        assert_autoregressive(made_masks(9, [30], rng=rng, strategy="random"))
