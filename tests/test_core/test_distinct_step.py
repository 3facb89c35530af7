"""The rest of the step on distinct rows: counts, not copies.

The step's gradient path (``log ψ`` and the per-sample ``O`` from
:func:`~repro.core.energy.per_sample_grads`), the algebra of a grouped
:class:`FactoredO` and the sample-space SR solve all run on a batch's U
distinct rows, with every batch sum weighted by the rows' counts. Over
batches of distinct 0/1 rows repeated with random multiplicities and
shuffled (MADE, deep MADE, RBM):

- ``per_sample_grads`` ≡ the interpreter on every row, to 1e-10, for
  ``log ψ``, ``w @ O`` against the autograd gradient, and ``O``;
- ``w @ O``, ``O @ v``, ``O.gram()`` and ``np.asarray(O)`` ≡ the dense
  N-row forms;
- the U×U count-weighted solve ≡ the dense d×d solve, also at λ = 0
  (there against the minimum-norm solution);
- 2 ranks whose rows repeat within and across ranks ≡ one big batch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import per_sample_grads
from repro.distributed.threads import run_threaded
from repro.models import MADE, RBM
from repro.nn.factored import FactoredO
from repro.optim import StochasticReconfiguration
from repro.tensor import no_grad

MODELS = {
    "made": lambda n, rng: MADE(n, hidden=2 * n + 1, rng=rng),
    "deep_made": lambda n, rng: MADE(n, hidden=[n + 3, n + 2], rng=rng),
    "rbm": lambda n, rng: RBM(n, rng=rng, init_std=0.3),
}


def _close(got, want, tol=1e-10):
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


def _every_row(model, x, seed):
    """The interpreter on every row: ``log ψ``, the gradient of the
    surrogate ``(log ψ · seed).sum()`` and the dense ``O``."""
    with no_grad():
        lp = model.log_psi(x).data
    model.zero_grad()
    model.log_psi(x).backward(seed, free_graph=True)
    grad = model.flat_grad()
    model.zero_grad()
    return lp, grad, np.asarray(model.log_psi_and_grads(x)[1])


@pytest.mark.parametrize("kind", list(MODELS))
@settings(max_examples=20, deadline=None)
@given(case=repeated_batches())
def test_plans_on_distinct_rows_are_every_row(kind, case):
    """The step's gradient path on the distinct rows is the interpreter on
    every row."""
    n, x, count, seed = case
    model = _model(kind, n, seed)
    w = np.random.default_rng(seed + 2).normal(size=len(x))
    want_lp, want_grad, want_o = _every_row(model, x, w)
    lp, o, _ = per_sample_grads(model, x)
    _close(lp, want_lp)
    _close(w @ o, want_grad)
    assert isinstance(o, FactoredO) and o.shape == want_o.shape
    assert o.rows.count == len(o.factors[0][1]) == count
    _close(np.asarray(o), want_o)


@pytest.mark.parametrize("kind", list(MODELS))
@settings(max_examples=20, deadline=None)
@given(case=repeated_batches())
def test_a_grouped_o_is_the_dense_n_row_matrix(kind, case):
    n, x, _, seed = case
    model = _model(kind, n, seed)
    _, o, _ = per_sample_grads(model, x)
    dense = np.asarray(model.log_psi_and_grads(x)[1])
    rng = np.random.default_rng(seed)
    w, v = rng.normal(size=len(x)), rng.normal(size=dense.shape[1])
    _close(w @ o, w @ dense)
    _close(o @ v, dense @ v)
    _close(o.gram(), dense @ dense.T)
    _close(np.asarray(o), dense)


def _min_norm(dense, f):
    oc = dense - dense.mean(axis=0)
    return np.linalg.pinv(oc.T @ oc / len(dense), rcond=1e-12) @ f


@pytest.mark.parametrize("kind", list(MODELS))
@settings(max_examples=20, deadline=None)
@given(case=repeated_batches(), shift=st.sampled_from([0.0, 1e-3, 1e-1]))
def test_the_count_weighted_solve_is_the_dense_solve(kind, case, shift):
    n, x, count, seed = case
    model = _model(kind, n, seed)
    _, o, _ = per_sample_grads(model, x)
    dense = np.asarray(model.log_psi_and_grads(x)[1])
    rng = np.random.default_rng(seed)
    # a gradient in the row space of the centred O, as the energy gradient is
    f = rng.normal(size=len(x)) @ (dense - dense.mean(axis=0)) / len(x)
    if shift == 0.0 and count == 1:
        return  # one distinct row centres to zero: nothing to solve for
    sr = StochasticReconfiguration(diag_shift=shift, solver="cg")
    got = sr.natural_gradient(o, f)
    if shift > 0:
        want = StochasticReconfiguration(diag_shift=shift, solver="dense").natural_gradient(
            dense, f
        )
        assert np.linalg.norm(got - want) <= 1e-8 * max(np.linalg.norm(want), 1e-300)
    else:
        want = _min_norm(dense, f)
        _close(got, want, 1e-6)
    assert sr.last_solve.samples == len(x)


@settings(max_examples=10, deadline=None)
@given(case=repeated_batches(), shift=st.sampled_from([0.0, 1e-3]))
def test_two_ranks_repeating_rows_across_ranks_are_one_big_batch(case, shift):
    n, x, count, seed = case
    if len(x) < 2 or (shift == 0.0 and count == 1):
        return  # one rank empty, or one distinct row: it centres to zero
    model = _model("made", n, seed)
    dense = np.asarray(model.log_psi_and_grads(x)[1])
    f = np.random.default_rng(seed).normal(size=len(x)) @ (dense - dense.mean(axis=0))
    f /= len(x)
    want = StochasticReconfiguration(diag_shift=shift, solver="cg").natural_gradient(dense, f)
    half = len(x) // 2

    def worker(comm, rank):
        shard = x[:half] if rank == 0 else x[half:]
        _, o, _ = per_sample_grads(model, shard)
        sr = StochasticReconfiguration(diag_shift=shift, solver="cg")
        return sr.natural_gradient(o, f, comm=comm), sr.last_solve

    for got, info in run_threaded(worker, 2):
        assert info.samples == len(x)
        _close(got, want, 1e-8)
