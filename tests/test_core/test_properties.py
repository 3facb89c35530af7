"""Hypothesis property tests for the core VQMC machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.energy import (
    energy_statistics,
    grad_from_per_sample,
    local_energies,
)
from repro.hamiltonians import TransverseFieldIsing
from repro.hamiltonians.base import index_to_bits
from repro.models import MADE
from repro.tensor.tensor import no_grad


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6), st.integers(0, 10**6))
def test_local_energy_matches_dense_matvec(n, ham_seed, model_seed):
    """Property over random instances AND random models: the sparse-row
    local-energy engine equals (Hψ)/ψ computed with the dense matrix."""
    ham = TransverseFieldIsing.random(n, seed=ham_seed)
    model = MADE(n, hidden=5, rng=np.random.default_rng(model_seed))
    states = index_to_bits(np.arange(2**n), n)
    mat = ham.to_dense()
    with no_grad():
        psi = np.exp(model.log_psi(states).data)
    expect = (mat @ psi) / psi
    got = local_energies(model, ham, states)
    assert np.allclose(got, expect, atol=1e-8)


@settings(max_examples=12, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10**6))
def test_population_energy_within_spectrum(n, seed):
    """E_π[l(x)] is a Rayleigh quotient ⇒ λ_min ≤ E ≤ λ_max, always."""
    ham = TransverseFieldIsing.random(n, seed=seed)
    model = MADE(n, hidden=4, rng=np.random.default_rng(seed + 1))
    states = index_to_bits(np.arange(2**n), n)
    probs = model.exact_distribution()
    local = local_energies(model, ham, states)
    energy = float(probs @ local)
    vals = np.linalg.eigvalsh(ham.to_dense())
    assert vals[0] - 1e-9 <= energy <= vals[-1] + 1e-9


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_gradient_invariant_to_energy_shift(seed):
    """Adding a constant to H (offset·I) must leave the gradient estimator
    unchanged — the covariance form subtracts the mean."""
    rng = np.random.default_rng(seed)
    o = rng.normal(size=(32, 7))
    local = rng.normal(size=32)
    g1 = grad_from_per_sample(o, local)
    g2 = grad_from_per_sample(o, local + 123.456)
    assert np.allclose(g1, g2, atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        min_size=2,
        max_size=64,
    )
)
def test_energy_statistics_consistency(values):
    stats = energy_statistics(np.array(values))
    assert stats.mean == pytest.approx(np.mean(values))
    assert stats.std == pytest.approx(np.std(values), abs=1e-9)
    assert stats.count == len(values)
    assert stats.sem <= stats.std + 1e-12


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6), st.integers(1, 12))
def test_made_normalisation_is_universal(n, seed, hidden):
    """Σ_x πθ(x) = 1 for every (n, hidden, seed) — structural, not tuned."""
    model = MADE(n, hidden=hidden, rng=np.random.default_rng(seed))
    for p in model.parameters():
        p.data *= 3.0  # arbitrary rescale must not break normalisation
    assert model.exact_distribution().sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10**6))
def test_per_sample_grads_consistent_with_autograd_property(n, seed):
    rng = np.random.default_rng(seed)
    model = MADE(n, hidden=6, rng=rng)
    x = (rng.random((3, n)) < 0.5).astype(float)
    _, o = model.log_psi_and_grads(x)
    for b in range(x.shape[0]):
        model.zero_grad()
        model.log_psi(x[b : b + 1]).sum().backward()
        assert np.allclose(np.asarray(o)[b], model.flat_grad(), atol=1e-9)
