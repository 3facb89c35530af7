"""Deep (multi-hidden-layer) MADE — extension beyond the paper's 2-matrix
architecture; the autoregressive guarantees must hold at any depth."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models import MADE
from repro.nn.masks import hidden_degrees, made_masks
from tests.conftest import assert_autoregressive, enumerate_states


@pytest.fixture
def deep_made(rng):
    return MADE(5, hidden=[12, 9, 7], rng=rng)


class TestDeepMasks:
    @pytest.mark.parametrize("widths", [[4], [8, 8], [10, 6, 12], [3, 3, 3, 3]])
    def test_autoregressive_at_any_depth(self, widths):
        assert_autoregressive(made_masks(6, widths))

    def test_mask_shapes_chain(self):
        masks = made_masks(5, [7, 11])
        assert masks[0].shape == (7, 5)
        assert masks[1].shape == (11, 7)
        assert masks[2].shape == (5, 11)

    def test_single_layer_matches_shallow_construction(self):
        """One hidden layer: ``M1[k, d] = m_k ≥ d+1`` and ``M2[d, k] = d+1 > m_k``."""
        m1, m2 = made_masks(6, [10])
        m_hid, m_in = hidden_degrees(6, 10), np.arange(1, 7)
        assert np.array_equal(m1, m_hid[:, None] >= m_in[None, :])
        assert np.array_equal(m2, m_in[:, None] > m_hid[None, :])

    def test_empty_widths_rejected(self):
        with pytest.raises(ValueError):
            MADE(5, hidden=[])

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 8),
        st.lists(st.integers(2, 16), min_size=1, max_size=4),
    )
    def test_autoregressive_hypothesis(self, n, widths):
        assert_autoregressive(made_masks(n, widths))


class TestDeepModel:
    def test_normalised(self, deep_made):
        assert deep_made.exact_distribution().sum() == pytest.approx(1.0, abs=1e-10)

    def test_autoregressive_conditionals(self, deep_made, rng):
        x = (rng.random((1, 5)) < 0.5).astype(float)
        base = deep_made.conditionals(x)
        for i in range(5):
            x2 = x.copy()
            x2[0, i:] = 1.0 - x2[0, i:]
            assert np.allclose(deep_made.conditionals(x2)[0, i], base[0, i])

    def test_per_sample_grads_match_autograd(self, deep_made, rng):
        x = (rng.random((3, 5)) < 0.5).astype(float)
        _, o = deep_made.log_psi_and_grads(x)
        assert o.shape == (3, deep_made.num_parameters())
        for b in range(3):
            deep_made.zero_grad()
            deep_made.log_psi(x[b : b + 1]).sum().backward()
            assert np.allclose(np.asarray(o)[b], deep_made.flat_grad(), atol=1e-10), f"sample {b}"

    def test_sampling_exact(self, deep_made, rng):
        from repro.samplers.diagnostics import total_variation_distance

        x = deep_made.sample(20000, rng)
        codes = (x @ (2 ** np.arange(4, -1, -1))).astype(int)
        tv = total_variation_distance(codes, deep_made.exact_distribution())
        assert tv < 0.05

    def test_hidden_attribute_reports_tuple(self, deep_made):
        assert deep_made.hidden == (12, 9, 7)
        assert len(deep_made.fc_layers) == 4

    def test_trains_on_small_tim(self, deep_made, small_tim, rng):
        """Deep MADE plugs into the standard pipeline unchanged."""
        # deep_made has n=5; build a matching deep model for n=6.
        from repro.core import VQMC
        from repro.exact import ground_state
        from repro.optim import Adam
        from repro.samplers import AutoregressiveSampler

        model = MADE(6, hidden=[16, 12], rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(),
            Adam(model.parameters(), lr=0.02), seed=3,
        )
        vqmc.run(150, batch_size=256)
        exact = ground_state(small_tim).energy
        final = vqmc.evaluate(1024)
        assert final.mean < exact + 0.1 * abs(exact)
