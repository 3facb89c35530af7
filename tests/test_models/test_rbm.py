"""RBM wavefunction: closed-form log ψ, per-sample gradients, stability."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import RBM


@pytest.fixture
def rbm(rng):
    return RBM(6, hidden=4, rng=rng, init_std=0.3)


class TestLogPsi:
    def test_matches_closed_form(self, rbm, rng):
        x = (rng.random((9, 6)) < 0.5).astype(float)
        w = rbm.fc.weight.data
        c = rbm.fc.bias.data
        a = rbm.visible.weight.data.ravel()
        a0 = rbm.visible.bias.data[0]
        expect = np.log(np.cosh(x @ w.T + c)).sum(axis=1) + x @ a + a0
        assert np.allclose(rbm.log_psi(x).data, expect, atol=1e-10)

    def test_not_normalised_flag(self, rbm):
        assert not rbm.is_normalized

    def test_default_hidden_equals_n(self, rng):
        assert RBM(7, rng=rng).hidden == 7

    def test_stable_for_large_couplings(self, rng):
        rbm = RBM(6, hidden=4, rng=rng)
        rbm.fc.weight.data[...] = 300.0
        x = np.ones((2, 6))
        out = rbm.log_psi(x).data
        assert np.all(np.isfinite(out))

    def test_exact_distribution_normalised(self, rbm):
        p = rbm.exact_distribution()
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0)


class TestPerSampleGrads:
    def test_log_psi_agrees(self, rbm, rng):
        x = (rng.random((5, 6)) < 0.5).astype(float)
        lp_manual, _ = rbm.log_psi_and_grads(x)
        assert np.allclose(lp_manual, rbm.log_psi(x).data, atol=1e-10)

    def test_grads_match_autograd(self, rbm, rng):
        x = (rng.random((4, 6)) < 0.5).astype(float)
        _, o = rbm.log_psi_and_grads(x)
        for b in range(4):
            rbm.zero_grad()
            rbm.log_psi(x[b : b + 1]).sum().backward()
            assert np.allclose(np.asarray(o)[b], rbm.flat_grad(), atol=1e-10), f"sample {b}"

    def test_visible_bias_gradient_is_one(self, rbm, rng):
        x = (rng.random((3, 6)) < 0.5).astype(float)
        _, o = rbm.log_psi_and_grads(x)
        assert np.allclose(np.asarray(o)[:, -1], 1.0)  # a0 is the last flat parameter


class TestSamplingInterface:
    def test_exact_sampler_rejects_rbm(self, rbm, rng):
        from repro.samplers import AutoregressiveSampler

        with pytest.raises(TypeError):
            AutoregressiveSampler().sample(rbm, 8, rng)

    def test_psi_ratio(self, rbm, rng):
        x = (rng.random((5, 6)) < 0.5).astype(float)
        y = x.copy()
        y[:, 0] = 1.0 - y[:, 0]
        ratios = rbm.psi_ratio(y, x)
        expect = np.exp(rbm.log_psi(y).data - rbm.log_psi(x).data)
        assert np.allclose(ratios, expect)
