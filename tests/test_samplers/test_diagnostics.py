"""MCMC diagnostics: autocorrelation, ESS, R̂, TV distance."""

from __future__ import annotations

import numpy as np
import pytest

from repro.samplers.diagnostics import (
    autocorrelation,
    gelman_rubin,
    integrated_autocorr_time,
    total_variation_distance,
)


def ar1(rng, phi: float, t: int) -> np.ndarray:
    """AR(1) series with known integrated autocorrelation (1+φ)/(1−φ)."""
    x = np.zeros(t)
    noise = rng.normal(size=t)
    for i in range(1, t):
        x[i] = phi * x[i - 1] + noise[i]
    return x


class TestAutocorrelation:
    def test_lag_zero_is_one(self, rng):
        acf = autocorrelation(rng.normal(size=500))
        assert acf[0] == pytest.approx(1.0)

    def test_iid_series_decorrelates_fast(self, rng):
        acf = autocorrelation(rng.normal(size=5000), max_lag=20)
        assert np.all(np.abs(acf[1:]) < 0.1)

    def test_ar1_matches_theory(self, rng):
        phi = 0.8
        acf = autocorrelation(ar1(rng, phi, 200000), max_lag=10)
        theory = phi ** np.arange(11)
        assert np.allclose(acf, theory, atol=0.05)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            autocorrelation(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            autocorrelation(np.zeros(1))

    def test_constant_series(self):
        acf = autocorrelation(np.ones(100))
        assert np.all(acf == 0.0)


class TestTauAndESS:
    def test_iid_tau_near_one(self, rng):
        tau = integrated_autocorr_time(rng.normal(size=20000))
        assert 0.8 < tau < 1.5

    def test_ar1_tau_matches_theory(self, rng):
        phi = 0.9
        tau = integrated_autocorr_time(ar1(rng, phi, 400000))
        theory = (1 + phi) / (1 - phi)  # = 19
        assert abs(tau - theory) / theory < 0.25


class TestGelmanRubin:
    def test_mixed_chains_rhat_near_one(self, rng):
        chains = rng.normal(size=(4, 5000))
        assert gelman_rubin(chains) == pytest.approx(1.0, abs=0.05)

    def test_unmixed_chains_rhat_large(self, rng):
        chains = rng.normal(size=(4, 1000)) + np.arange(4)[:, None] * 10.0
        assert gelman_rubin(chains) > 3.0

    def test_requires_multiple_chains(self, rng):
        with pytest.raises(ValueError):
            gelman_rubin(rng.normal(size=(1, 100)))

    def test_degenerate_chains(self):
        assert gelman_rubin(np.ones((3, 50))) == 1.0


class TestTV:
    def test_perfect_match(self):
        probs = np.array([0.5, 0.5])
        samples = np.array([0] * 50 + [1] * 50)
        assert total_variation_distance(samples, probs) == pytest.approx(0.0)

    def test_disjoint_support(self):
        probs = np.array([1.0, 0.0])
        samples = np.ones(100, dtype=int)
        assert total_variation_distance(samples, probs) == pytest.approx(1.0)

    def test_bounds(self, rng):
        probs = np.full(8, 1 / 8)
        samples = rng.integers(0, 8, size=1000)
        tv = total_variation_distance(samples, probs)
        assert 0.0 <= tv <= 1.0
