"""Each distinct configuration once.

``local_energies`` and ``FactoredO.gram()`` evaluate a batch's distinct
rows and scatter the results back through the inverse index. Over batches
built from distinct rows repeated with random multiplicities and shuffled:

- local energies (fused and dense paths; MADE, deep MADE, RBM — and RBM on
  Metropolis draws, the sampler that repeats rows most) ≡ per-row
  evaluation to 1e-13;
- ``O.gram()`` ≡ ``np.asarray(O) @ np.asarray(O).T`` to 1e-12;
- a batch without repeats groups as every row its own, and the grouped
  energies, ``log ψ`` and ``O``, products of ``O`` and SR solve are exactly
  the computation without grouping;
- a non-0/1 row raises before anything is grouped, and one that a given
  grouping evaluates raises too;
- rows are one group exactly when their bytes are, hash collisions or not,
  and groups come in order of first occurrence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.energy import (
    MAX_LOG_RATIO,
    local_energies,
    local_energy_path,
    per_sample_grads,
)
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE, RBM
from repro.models import base as models_base
from repro.nn.factored import FactoredO
from repro.optim import StochasticReconfiguration
from repro.perf.flips import flip_log_ratios
from repro.samplers import MetropolisSampler
from repro.utils import rows as rows_module
from repro.utils.rows import distinct_rows, every_row
from tests.test_optim.test_sr_factored import _uncounted_solve

MODELS = {
    "made": lambda n, rng: MADE(n, hidden=2 * n + 1, rng=rng),
    "deep_made": lambda n, rng: MADE(n, hidden=[n + 3, n + 2], rng=rng),
    "rbm": lambda n, rng: RBM(n, rng=rng, init_std=0.3),
}


def _close(got, want, tol):
    scale = max(float(np.max(np.abs(want))), 1.0)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=tol * scale)


@st.composite
def repeated_batches(draw):
    """``(n, x, distinct count, seed)``: distinct 0/1 rows, each repeated
    1–5 times, shuffled."""
    n = draw(st.integers(2, 9))
    seed = draw(st.integers(0, 2**31))
    rng = np.random.default_rng(seed)
    count = draw(st.integers(1, min(12, 2**n)))
    codes = rng.choice(2**n, size=count, replace=False)
    rows = (codes[:, None] >> np.arange(n)) & 1
    times = draw(st.lists(st.integers(1, 5), min_size=count, max_size=count))
    x = np.repeat(rows, times, axis=0).astype(np.float64)
    return n, x[rng.permutation(len(x))], count, seed


def _model(kind, n, seed):
    model = MODELS[kind](n, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for p in model.parameters():  # away from the initialiser's scale
        p.data += rng.normal(size=p.shape) * 0.3
    return model


def _per_row(model, ham, x, fast):
    return np.concatenate([local_energies(model, ham, row[None], fast=fast) for row in x])


@pytest.mark.parametrize(
    "kind,fast",
    [("made", None), ("made", False), ("deep_made", None), ("deep_made", False), ("rbm", None)],
)
@settings(max_examples=25, deadline=None)
@given(case=repeated_batches())
def test_local_energies_of_repeated_rows_are_per_row(kind, fast, case):
    n, x, count, seed = case
    model, ham = _model(kind, n, seed), TransverseFieldIsing.random(n, seed=seed)
    if fast is None:
        assert local_energy_path(model, ham) == ("dense" if kind == "rbm" else "fused")
    rows = distinct_rows(x == 1.0)
    assert rows.count == count
    np.testing.assert_array_equal(x[rows.first][rows.inverse], x)

    got = local_energies(model, ham, x, fast=fast)
    _close(got, _per_row(model, ham, x, fast), 1e-13)
    log_psi = model.log_psi(x).data
    given_lp = local_energies(model, ham, x, log_psi_x=log_psi, fast=fast, rows=rows)
    _close(given_lp, got, 1e-13)


@pytest.mark.parametrize("kind", list(MODELS))
@settings(max_examples=25, deadline=None)
@given(case=repeated_batches())
def test_gram_of_repeated_rows_is_the_dense_product(kind, case):
    """On the rows as given (every row its own) and on the distinct rows
    with the grouping the step's gradient path hands out."""
    n, x, count, seed = case
    model = _model(kind, n, seed)
    _, o = model.log_psi_and_grads(x)
    _, grouped, _ = per_sample_grads(model, x)
    assert isinstance(o, FactoredO) and o.rows.count == len(x)
    assert grouped.rows.count == len(grouped.factors[0][1]) == count
    dense = np.asarray(o)
    _close(o.gram(), dense @ dense.T, 1e-12)
    _close(grouped.gram(), dense @ dense.T, 1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_rbm_on_metropolis_draws(seed):
    n = 6
    model = _model("rbm", n, seed)
    ham = TransverseFieldIsing.random(n, seed=seed)
    x = MetropolisSampler(n_chains=2, burn_in=5).sample(model, 64, np.random.default_rng(seed))
    assert distinct_rows(x == 1.0).count < len(x)
    _close(local_energies(model, ham, x), _per_row(model, ham, x, None), 1e-13)
    _, o = model.log_psi_and_grads(x)
    dense = np.asarray(o)
    _close(o.gram(), dense @ dense.T, 1e-12)


def _ungrouped_products(o, w, v):
    """``w @ O`` and ``O @ v`` on the stored rows as given — one weight and
    one value per stored row, no grouping."""
    wo, ov = np.zeros(o.shape[1]), np.zeros(len(o.factors[0][1]))
    for layer, a, delta in o.factors:
        weighted = delta * w[:, None]
        if layer.pattern is None:
            np.matmul(weighted.T, a, out=wo[layer.w].reshape(layer.shape))
            weight = v[layer.w].reshape(layer.shape)
        else:  # packed: the connected entries of each
            wo[layer.w] = (weighted.T @ a)[layer.pattern]
            weight = np.zeros(layer.shape)
            weight[layer.pattern] = v[layer.w]
        ov += np.einsum("so,so->s", a @ weight.T, delta)
        if layer.b is not None:
            weighted.sum(axis=0, out=wo[layer.b])
            ov += delta @ v[layer.b]
    return wo, ov


def test_a_batch_without_repeats_is_not_grouped():
    """A batch without repeats groups as every row its own, and is bit for
    bit the ungrouped computation: the flip kernel on the batch as given,
    the Gram matrix of the factors as given, and the step's ``log ψ`` and
    ``O`` (``per_sample_grads``) with ``w @ O``, ``O @ v`` and the SR solve
    on what they return."""
    n = 8
    model = _model("made", n, 3)
    ham = TransverseFieldIsing.random(n, seed=3)
    x = ((np.arange(2**n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
    x = x[np.random.default_rng(3).permutation(len(x))[:96]]
    grouped, every = distinct_rows(x == 1.0), every_row(len(x))
    np.testing.assert_array_equal(grouped.first, every.first)
    np.testing.assert_array_equal(grouped.inverse, every.inverse)

    flips = ham.single_flips()
    deltas = flip_log_ratios(model, flips.sites, x)
    ratios = np.exp(np.clip(deltas, -MAX_LOG_RATIO, MAX_LOG_RATIO))
    want = ham.diagonal(x) + ratios @ flips.amplitudes
    np.testing.assert_array_equal(local_energies(model, ham, x), want)

    _, o = model.log_psi_and_grads(x)
    np.testing.assert_array_equal(o.gram(), FactoredO._gram(o.factors))

    rng = np.random.default_rng(4)
    w, v = rng.normal(size=len(x)), rng.normal(size=o.shape[1])
    sr = StochasticReconfiguration(diag_shift=1e-3, solver="cg")
    lp, o, _ = per_sample_grads(model, x)
    got = (lp, np.asarray(o), w @ o, o @ v, sr.natural_gradient(o, v))
    lp, o = model.log_psi_and_grads(x)
    want = (lp, np.asarray(o), *_ungrouped_products(o, w, v), _uncounted_solve(o, v, 1e-3))
    for g, r in zip(got, want):
        np.testing.assert_array_equal(g, r)


@pytest.mark.parametrize("collide", [False, True])
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=repeated_batches())
def test_grouping_is_by_bytes_even_when_every_hash_collides(monkeypatch, collide, case):
    """Rows are one group exactly when their bytes are equal, each group
    represented by its first occurrence and the groups in that order —
    also when the hash puts every row in one bucket (all-zero weights)."""
    if collide:
        monkeypatch.setattr(rows_module, "_multipliers", lambda w: np.zeros(w, np.uint64))
    _, x, count, seed = case
    floats = np.random.default_rng(seed).normal(size=(count, 7))[
        distinct_rows(x == 1.0).inverse
    ]
    for rows, want in ((x == 1.0, count), (floats, count), (np.array([[0.0], [-0.0]]), 2)):
        grouped = distinct_rows(rows)
        assert grouped.count == want
        np.testing.assert_array_equal(rows[grouped.first][grouped.inverse], rows)
        firsts = [np.flatnonzero(grouped.inverse == g)[0] for g in range(grouped.count)]
        np.testing.assert_array_equal(grouped.first, firsts)
        assert np.all(np.diff(grouped.first) > 0)


@pytest.mark.parametrize("collide", [False, True])
@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(case=repeated_batches())
def test_an_all_distinct_batch_groups_as_every_row(monkeypatch, collide, case):
    if collide:
        monkeypatch.setattr(rows_module, "_multipliers", lambda w: np.zeros(w, np.uint64))
    _, x, _, _ = case
    x = x[distinct_rows(x == 1.0).first]  # each row once, in a shuffled order
    grouped, every = distinct_rows(x == 1.0), every_row(len(x))
    np.testing.assert_array_equal(grouped.first, every.first)
    np.testing.assert_array_equal(grouped.inverse, every.inverse)


def test_an_empty_batch_has_no_rows():
    grouped = distinct_rows(np.zeros((0, 5), dtype=bool))
    assert grouped.count == 0 and grouped.inverse.shape == (0,)


@pytest.mark.parametrize("bad", [0.5, -1.0, 2.0])
def test_a_non_binary_row_raises_before_grouping(monkeypatch, bad):
    n = 5
    model, ham = _model("made", n, 0), TransverseFieldIsing.random(n, seed=0)

    def never(rows):
        raise AssertionError("grouped before validating")

    monkeypatch.setattr(models_base, "distinct_rows", never)
    x = np.zeros((4, n))
    x[2, 1] = bad
    with pytest.raises(ValueError, match="binary"):
        local_energies(model, ham, x)


@pytest.mark.parametrize("bad", [0.5, -1.0, 2.0])
def test_a_non_binary_row_the_grouping_evaluates_raises(monkeypatch, bad):
    """Given ``rows``, the rows it evaluates are the ones checked, before
    anything is evaluated: a bad entry in a first occurrence raises from
    the gradient and the energies."""
    from repro.core import energy as energy_module

    def never(*args):
        raise AssertionError("evaluated before validating")

    n = 5
    model, ham = _model("made", n, 0), TransverseFieldIsing.random(n, seed=0)
    monkeypatch.setattr(model, "log_psi_and_grads", never)
    monkeypatch.setattr(energy_module, "_local_energies", never)
    x = np.zeros((4, n))
    x[[1, 3], 0] = 1.0
    rows = distinct_rows(x == 1.0)
    x[rows.first[1], 2] = bad
    with pytest.raises(ValueError, match="binary"):
        per_sample_grads(model, x, rows)
    with pytest.raises(ValueError, match="binary"):
        local_energies(model, ham, x, rows=rows)


def test_a_grouping_of_another_batch_is_refused():
    n = 5
    model, ham = _model("made", n, 0), TransverseFieldIsing.random(n, seed=0)
    x = np.zeros((4, n))
    with pytest.raises(ValueError, match="rows group 3 rows"):
        local_energies(model, ham, x, rows=distinct_rows(x[:3] == 1.0))


def _byte_sort_grouping(rows):
    """The reference: ``np.unique`` over each row's bytes, groups by first
    occurrence."""
    raw = np.ascontiguousarray(rows)
    keys = raw.view(np.dtype((np.void, raw.shape[1] * raw.itemsize))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return first[order], np.argsort(order)[inverse.reshape(-1)]


@pytest.mark.parametrize("n", [1, 8, 63, 64, 65])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), distinct=st.integers(1, 12))
def test_one_word_rows_group_as_their_bytes_without_the_check(n, seed, distinct):
    """Packed rows of ≤ 64 flags are one word, whose hash cannot collide,
    so the word comparison is skipped; the grouping is still the byte
    sort's, on both sides of one word."""
    rng = np.random.default_rng(seed)
    x = rng.random((distinct, n)) < 0.5
    x = x[rng.integers(0, distinct, size=3 * distinct)]  # repeats, shuffled
    want_first, want_inverse = _byte_sort_grouping(np.packbits(x, axis=1))
    got = distinct_rows(x)
    np.testing.assert_array_equal(got.first, want_first)
    np.testing.assert_array_equal(got.inverse, want_inverse)
