"""Gradient-noise diagnostics (the Fig. 4 mechanism)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.gradient_stats import gradient_noise
from repro.hamiltonians import IsingQUBO, TransverseFieldIsing
from repro.models import MADE, RBM
from repro.samplers import AutoregressiveSampler


class TestGradientNoise:
    def test_mean_equals_gradient_estimator(self, small_tim, rng):
        from repro.core.energy import grad_from_per_sample, local_energies

        model = MADE(6, hidden=8, rng=rng)
        x = model.sample(128, rng)
        stats = gradient_noise(model, small_tim, x)
        local = local_energies(model, small_tim, x)
        _, o = model.log_psi_and_grads(x)
        assert np.allclose(stats.mean, grad_from_per_sample(o, local), atol=1e-12)

    def test_zero_noise_at_constant_local_energy(self, rng):
        """A constant Hamiltonian ⇒ every contribution is exactly zero."""
        ham = IsingQUBO(np.zeros((6, 6)), const=3.0)
        model = MADE(6, rng=rng)
        x = model.sample(64, rng)
        stats = gradient_noise(model, ham, x)
        assert np.allclose(stats.mean, 0.0)
        assert np.allclose(stats.variance, 0.0)

    def test_snr_grows_linearly_with_batch(self, small_tim, rng):
        """SNR ∝ B by construction: double the batch, roughly double SNR."""
        model = MADE(6, hidden=8, rng=rng)
        x = model.sample(4096, rng)
        small = gradient_noise(model, small_tim, x[:256])
        large = gradient_noise(model, small_tim, x[:2048])
        assert large.snr > small.snr * 3  # expect ≈ 8× with MC noise

    def test_critical_batch_independent_of_batch_size(self, small_tim, rng):
        """B_crit is a property of the distribution, not of B (up to noise)."""
        model = MADE(6, hidden=8, rng=rng)
        x = model.sample(8192, rng)
        a = gradient_noise(model, small_tim, x[:1024]).critical_batch
        b = gradient_noise(model, small_tim, x[1024:8192]).critical_batch
        assert a == pytest.approx(b, rel=0.5)

    def test_critical_batch_grows_with_problem_size(self, rng):
        """The Fig. 4 saturation story: larger problems have larger B_crit,
        so they keep benefiting from bigger effective batches."""
        def crit(n):
            ham = TransverseFieldIsing.random(n, seed=n)
            model = MADE(n, rng=np.random.default_rng(0))
            x = model.sample(2048, np.random.default_rng(1))
            return gradient_noise(model, ham, x).critical_batch

        assert crit(16) > crit(6)

    def test_validation(self, small_tim, rng):
        model = MADE(6, rng=rng)
        with pytest.raises(ValueError):
            gradient_noise(model, small_tim, model.sample(1, rng))

        class NoPerSample(MADE):
            has_per_sample_grads = False

        with pytest.raises(TypeError):
            gradient_noise(NoPerSample(6, rng=rng), small_tim, model.sample(4, rng))
