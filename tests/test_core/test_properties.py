"""Hypothesis property tests for the core VQMC machinery."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.energy import (
    energy_statistics,
    grad_from_per_sample,
    local_energies,
    per_sample_grads,
)
from repro.distributed import SerialCommunicator
from repro.distributed.model_parallel import ShardedMADE
from repro.hamiltonians import TransverseFieldIsing
from repro.hamiltonians.base import index_to_bits
from repro.models import MADE, RBM, MeanField, RNNWaveFunction
from repro.tensor import Tensor
from repro.tensor import functional as F
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


def _sharded_log_psi(model: ShardedMADE, x: np.ndarray) -> Tensor:
    """A one-rank ShardedMADE's ``log ψ`` on the tape, from its own
    parameters (its ``log_psi`` records no graph)."""
    mask1, mask2 = Tensor(model.mask1.astype(float)), Tensor(model.mask2.astype(float))
    hidden = (Tensor(x) @ (model.w1 * mask1).T + model.b1).relu()
    logits = hidden @ (model.w2 * mask2).T + model.b2
    return F.bernoulli_log_prob(logits, x).sum(axis=1) * 0.5


@st.composite
def models_and_batches(draw):
    """A model of every kind the step can train, and a batch whose rows
    repeat (each of up to four rows one to three times, shuffled)."""
    kind = draw(st.sampled_from(["made", "rbm", "rnn", "mean_field", "sharded_made"]))
    n = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 10**6))
    rng = np.random.default_rng(seed)
    if kind == "made":
        widths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
        strategy = draw(st.sampled_from(["cycle", "random"]))
        model = MADE(n, hidden=widths, rng=rng, mask_strategy=strategy)
    elif kind == "rbm":
        model = RBM(n, hidden=draw(st.integers(1, 8)), rng=rng, init_std=0.5)
    elif kind == "rnn":
        model = RNNWaveFunction(n, hidden=draw(st.integers(1, 5)), rng=rng)
    elif kind == "mean_field":
        model = MeanField(n, rng=rng)
    else:
        model = ShardedMADE(n, draw(st.integers(1, 8)), SerialCommunicator(), seed=seed)
    for p in model.parameters():  # away from the initialiser's scale
        p.data += rng.normal(size=p.shape) * 0.3
    rows = (rng.random((draw(st.integers(1, 4)), n)) < 0.5).astype(float)
    times = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    x = np.repeat(rows, times, axis=0)
    return model, x[rng.permutation(len(x))], rng.normal(size=len(x))


@settings(max_examples=40, deadline=None)
@given(models_and_batches())
def test_per_sample_grads_consistent_with_autograd_property(case):
    """The step's gradient path — the model's closed form on the distinct
    rows — is the autograd tape's, row by row: ``np.asarray(O)`` and
    ``w @ O`` to 1e-10."""
    model, x, w = case
    log_psi = (
        (lambda b: _sharded_log_psi(model, b))
        if isinstance(model, ShardedMADE)
        else model.log_psi
    )
    rows = []
    for b in range(len(x)):
        model.zero_grad()
        log_psi(x[b : b + 1]).sum().backward()
        rows.append(model.flat_grad())
    want = np.array(rows)
    _, o, _ = per_sample_grads(model, x)
    assert o.shape == want.shape
    np.testing.assert_allclose(np.asarray(o), want, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(w @ o, w @ want, rtol=0.0, atol=1e-10)
