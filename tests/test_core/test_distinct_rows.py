"""Each distinct configuration once.

``local_energies`` and ``FactoredO.gram()`` evaluate a batch's distinct
rows and scatter the results back through the inverse index. Over batches
built from distinct rows repeated with random multiplicities and shuffled:

- local energies (fused and dense paths; MADE, deep MADE, RBM — and RBM on
  Metropolis draws, the sampler that repeats rows most) ≡ per-row
  evaluation to 1e-13;
- ``O.gram()`` ≡ ``np.asarray(O) @ np.asarray(O).T`` to 1e-12;
- a batch without repeats groups as every row its own, and the grouped
  energies, plans, products of ``O`` and SR solve are exactly the
  computation without grouping;
- a non-0/1 row raises before anything is grouped;
- rows are one group exactly when their bytes are, hash collisions or not,
  and groups come in order of first occurrence.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.energy import MAX_LOG_RATIO, local_energies, local_energy_path
from repro.hamiltonians import TransverseFieldIsing
from repro.jit import StepCompiler
from repro.jit.plan import InterpretedPlan
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
    with the grouping the plans hand out."""
    n, x, count, seed = case
    model = _model(kind, n, seed)
    _, o = model.log_psi_and_grads(x)
    _, grouped = InterpretedPlan(model).per_sample(x)
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
        block = wo[layer.w].reshape(layer.shape)
        np.matmul(weighted.T, a, out=block)
        weight = v[layer.w].reshape(layer.shape)
        if layer.mask is not None:
            block *= layer.mask
            weight = weight * layer.mask
        ov += np.einsum("so,so->s", a @ weight.T, delta)
        if layer.b is not None:
            weighted.sum(axis=0, out=wo[layer.b])
            ov += delta @ v[layer.b]
    return wo, ov


def _compiled_ungrouped(plan, x, w):
    """The compiled replay, adjoint sweep and per-sample sweep on the batch
    as given, with the raw seeds."""
    lp = plan._replay(x).copy()
    plan._seed_backward(w)
    for step in plan._bsteps:
        step()
    grad = plan._grad_flat.copy()
    lp_o = plan._replay(x).copy()
    plan._seed_backward(plan._ps_ones)
    for step in plan._ps_steps:
        step()
    vals, grads = plan._vals, plan._grads
    factors = [(layer, vals[s].copy(), grads[o].copy()) for layer, s, o in plan._ps_factors]
    return lp, grad, lp_o, FactoredO(factors[::-1], plan.n_params)


def _interpreted_ungrouped(model, x, w):
    """The interpreter on the batch as given."""
    model.zero_grad()
    log_psi = model.log_psi(x)
    (log_psi * w).sum().backward(free_graph=True)
    grad = model.flat_grad()
    model.zero_grad()
    return (log_psi.data, grad, *model.log_psi_and_grads(x))


def test_a_batch_without_repeats_is_not_grouped():
    """A batch without repeats groups as every row its own, and is bit for
    bit the ungrouped computation: the flip kernel on the batch as given,
    the Gram matrix of the factors as given, and the compiled and
    interpreted plans' ``forward``, ``gradient`` and ``per_sample`` with
    ``w @ O``, ``O @ v`` and the SR solve on what they return."""
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
    compiled = StepCompiler(model).per_sample_plan(x)
    for plan in (compiled, InterpretedPlan(model)):
        model.zero_grad()
        lp = plan.forward(x)
        grad = plan.gradient(w).copy()
        lp_o, o = plan.per_sample(x)
        got = (lp, grad, lp_o, np.asarray(o), w @ o, o @ v, sr.natural_gradient(o, v))
        if plan is compiled:
            want = _compiled_ungrouped(plan, x, w)
        else:
            want = _interpreted_ungrouped(model, x, w)
        o = want[3]
        want = (*want[:3], np.asarray(o), *_ungrouped_products(o, w, v),
                _uncounted_solve(o, v, 1e-3))
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


def test_a_grouping_of_another_batch_is_refused():
    n = 5
    model, ham = _model("made", n, 0), TransverseFieldIsing.random(n, seed=0)
    x = np.zeros((4, n))
    with pytest.raises(ValueError, match="rows group 3 rows"):
        local_energies(model, ham, x, rows=distinct_rows(x[:3] == 1.0))
