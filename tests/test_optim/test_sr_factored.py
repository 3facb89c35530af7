"""``O`` in factored form, and stochastic reconfiguration on it.

The contracts of :class:`repro.nn.factored.FactoredO` and of the solve that
consumes it, each against an oracle that builds the dense (N, d) matrix:

- ``np.asarray(O)`` ≡ the dense closed-form ``O`` (kept here, three lines
  a layer, as the oracle), and ``O.gram()`` / ``w @ O`` / ``O @ v`` ≡ the
  same products of that matrix — MADE at any depth, width (``h ≪ n``
  included) and degree assignment, and RBM;
- the step's factors (built on the distinct rows, then grouped) ≡ those of
  every row;
- natural gradient ≡ the dense d×d solve, and ≡ conjugate gradients run to
  convergence at the benchmark's shape; at unit counts (an ``O`` without a
  grouping, factored or array) ≡ the uncounted N×N solve bit for bit;
- N ranks ≡ the serial big-batch solve, on exactly one allgather;
- no N×d object exists during a training step (``tracemalloc``), and an
  array ``O`` reaching the solve leaves a counter behind.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CommSanitizer
from repro.core import VQMC, VQMCConfig
from repro.core.energy import per_sample_grads
from repro.distributed import run_threaded
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE, RBM
from repro.models.rnn import RNNWaveFunction
from repro.nn.factored import FactoredO
from repro.obs import Metrics, Tracer
from repro.optim import SGD, StochasticReconfiguration
from repro.samplers import AutoregressiveSampler
from tests.conftest import made_with_masks

RTOL = 1e-12


def _close(got, want, rtol=RTOL):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=rtol * scale)


# -- models and their dense oracles --------------------------------------------------


def _made(n, widths, masks, seed):
    """A MADE with weights away from the initialiser's scale; ``'spread'``
    hands the layers the degree assignment ``1 + ⌊k(n−1)/h⌋``."""
    rng = np.random.default_rng(seed)
    if masks == "spread":
        degrees = [np.arange(1, n + 1)]
        degrees += [1 + (np.arange(h) * max(n - 1, 1)) // h for h in widths]
        spread = [nxt[:, None] >= prev[None, :] for prev, nxt in zip(degrees[:-1], degrees[1:])]
        spread.append(degrees[0][:, None] > degrees[-1][None, :])
        model = made_with_masks(n, list(widths), spread, rng)
    else:
        strategy = "random" if masks == "random" else "cycle"
        model = MADE(n, hidden=list(widths), rng=rng, mask_strategy=strategy)
    for p in model.parameters():
        p.data += rng.normal(size=p.shape) * 0.5
    return model


def _made_dense_o(model, x):
    """The dense per-sample matrix as ``MADE.log_psi_and_grads`` used to
    build it: ``δ ⊗ a`` per layer at the entries ``M`` connects,
    concatenated."""
    layers = model.fc_layers
    inputs, pre = [x], []
    for layer in layers[:-1]:
        pre.append(inputs[-1] @ layer.effective_weight().T + layer.bias.data)
        inputs.append(np.maximum(pre[-1], 0.0))
    z = inputs[-1] @ layers[-1].effective_weight().T + layers[-1].bias.data
    delta = x - 1.0 / (1.0 + np.exp(-z))
    blocks = []
    for idx in range(len(layers) - 1, -1, -1):
        d_w = delta[:, :, None] * inputs[idx][:, None, :]
        blocks[:0] = [d_w[:, layers[idx].pattern], delta]
        if idx:
            delta = (delta @ layers[idx].effective_weight()) * (pre[idx - 1] > 0.0)
    return 0.5 * np.concatenate(blocks, axis=1)


def _rbm_dense_o(model, x):
    th = np.tanh(x @ model.fc.weight.data.T + model.fc.bias.data)
    d_w = th[:, :, None] * x[:, None, :]
    return np.concatenate([d_w.reshape(len(x), -1), th, x, np.ones((len(x), 1))], axis=1)


def _batch(n, batch, seed, duplicates=False):
    rng = np.random.default_rng(seed)
    x = (rng.random((batch, n)) < 0.5).astype(np.float64)
    if duplicates:  # a converged batch repeats configurations: G is rank-deficient
        x = x[rng.integers(0, max(batch // 3, 1), size=batch)]
    return x


@st.composite
def made_cases(draw):
    n = draw(st.integers(2, 14))
    widths = draw(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    masks = draw(st.sampled_from(["cycle", "random", "spread"]))
    return n, widths, masks, draw(st.integers(2, 32)), draw(st.integers(0, 2**31))


def _assert_is_the_dense_matrix(o, dense, seed):
    rng = np.random.default_rng(seed)
    assert isinstance(o, FactoredO) and o.shape == dense.shape
    _close(np.asarray(o), dense)
    _close(o.gram(), dense @ dense.T)
    w, v = rng.normal(size=dense.shape[0]), rng.normal(size=dense.shape[1])
    _close(w @ o, w @ dense)
    _close(o @ v, dense @ v)


class TestFactorsAreTheDenseMatrix:
    @settings(max_examples=120, deadline=None)
    @given(case=made_cases())
    def test_made(self, case):
        n, widths, masks, batch, seed = case
        model = _made(n, widths, masks, seed)
        x = _batch(n, batch, seed)
        log_psi, o = model.log_psi_and_grads(x)
        _close(log_psi, model.log_psi(x).data)
        _assert_is_the_dense_matrix(o, _made_dense_o(model, x), seed)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 12), hidden=st.integers(1, 16), batch=st.integers(2, 32),
           seed=st.integers(0, 2**31))
    def test_rbm(self, n, hidden, batch, seed):
        model = RBM(n, hidden=hidden, rng=np.random.default_rng(seed), init_std=0.7)
        x = _batch(n, batch, seed)
        _assert_is_the_dense_matrix(model.log_psi_and_grads(x)[1], _rbm_dense_o(model, x), seed)

    @settings(max_examples=25, deadline=None)
    @given(case=made_cases())
    def test_compiled_factors_are_the_interpreted_ones(self, case):
        """The step's factors, built on the distinct rows and grouped, are
        those of every row."""
        n, widths, masks, batch, seed = case
        model = _made(n, widths, masks, seed)
        x = _batch(n, batch, seed)
        log_psi, o, _ = per_sample_grads(model, x)
        want_log_psi, want = model.log_psi_and_grads(x)
        _close(log_psi, want_log_psi, rtol=1e-10)
        _close(np.asarray(o), np.asarray(want))
        _close(o.gram(), want.gram())

    def test_the_benchmark_shape(self):
        model = _made(64, [86], "cycle", seed=3)
        x = _batch(64, 128, seed=4)
        _assert_is_the_dense_matrix(model.log_psi_and_grads(x)[1], _made_dense_o(model, x), 5)

    def test_numpy_hands_the_product_over(self):
        """``ndarray @ O`` reaches ``O.__rmatmul__`` and elementwise ufuncs
        refuse the type instead of broadcasting over it."""
        o = _made(5, [7], "cycle", 0).log_psi_and_grads(_batch(5, 4, 0))[1]
        assert (np.ones(4) @ o).shape == (o.shape[1],)
        with pytest.raises(TypeError):
            np.ones(4) * o
        with pytest.raises(ValueError, match="weights of shape"):
            np.ones(3) @ o
        with pytest.raises(ValueError, match="vector of shape"):
            o @ np.ones(3)


# -- the solve ---------------------------------------------------------------------


def _solve(o, f, shift, solver):
    sr = StochasticReconfiguration(diag_shift=shift, solver=solver)
    return sr.natural_gradient(o, f), sr.last_solve


class TestNaturalGradient:
    @settings(max_examples=100, deadline=None)
    @given(
        case=made_cases(),
        shift=st.sampled_from([1e-3, 1e-1]),
        row_space=st.booleans(),
        duplicates=st.booleans(),
    )
    def test_is_the_dense_solve_on_made(self, case, shift, row_space, duplicates):
        """N < d and N ≥ d both occur (d runs from 7 to ~1000, N from 2 to 32)."""
        n, widths, masks, batch, seed = case
        model = _made(n, widths, masks, seed)
        x = _batch(n, batch, seed, duplicates)
        o = model.log_psi_and_grads(x)[1]
        rng = np.random.default_rng(seed)
        dense = np.asarray(o)
        f = rng.normal(size=batch) @ (dense - dense.mean(axis=0)) / batch
        if not row_space:
            f = rng.normal(size=dense.shape[1])
        got, info = _solve(o, f, shift, "cg")
        want, _ = _solve(dense, f, shift, "dense")
        assert info.solver == "cg" and info.gram == "layers" and info.iterations == 0
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        auto, info = _solve(o, f, shift, "auto")
        assert info.solver == ("dense" if dense.shape[1] <= batch else "cg")
        assert np.linalg.norm(auto - want) <= 1e-8 * np.linalg.norm(want)

    @pytest.mark.parametrize("shift", [1e-3, 1e-1])
    def test_is_the_dense_solve_on_rbm(self, shift):
        model = RBM(9, hidden=6, rng=np.random.default_rng(1), init_std=0.5)
        o = model.log_psi_and_grads(_batch(9, 20, 2))[1]
        f = np.random.default_rng(3).normal(size=o.shape[1])
        got, info = _solve(o, f, shift, "cg")
        want, _ = _solve(np.asarray(o), f, shift, "dense")
        assert info.gram == "layers"
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_is_conjugate_gradients_run_to_convergence_at_the_benchmark_shape(self):
        """The solver this one replaced, without its iteration budget."""
        model = MADE(64, rng=np.random.default_rng(0))
        x = AutoregressiveSampler().sample(model, 128, np.random.default_rng(1))
        o = model.log_psi_and_grads(x)[1]
        dense = np.asarray(o)
        oc = dense - dense.mean(axis=0)
        f = 2.0 * np.random.default_rng(2).normal(size=128) @ oc / 128
        shift = 1e-3

        def apply(v):
            return oc.T @ (oc @ v) / 128 + shift * v

        sol, r = np.zeros_like(f), f.copy()
        p, rho = r.copy(), f @ f
        for _ in range(20 * 128):
            if rho <= 1e-24 * (f @ f):
                break
            q = apply(p)
            alpha = rho / (p @ q)
            sol += alpha * p
            r -= alpha * q
            rho, previous = r @ r, rho
            p = r + (rho / previous) * p
        assert rho <= 1e-24 * (f @ f)
        got, info = _solve(o, f, shift, "cg")
        assert info.residual < 1e-10
        assert np.linalg.norm(got - sol) <= 1e-6 * np.linalg.norm(sol)

    def test_zero_shift_is_the_minimum_norm_solution_or_a_named_error(self):
        model = _made(6, [5], "cycle", seed=8)
        o = model.log_psi_and_grads(_batch(6, 10, 9))[1]
        dense = np.asarray(o)
        oc = dense - dense.mean(axis=0)
        f = np.random.default_rng(10).normal(size=10) @ oc / 10
        got, info = _solve(o, f, 0.0, "cg")
        want = np.linalg.pinv(oc.T @ oc / 10, rcond=1e-12) @ f
        assert info.residual < 1e-8
        np.testing.assert_allclose(got, want, rtol=1e-6, atol=1e-9 * np.abs(want).max())
        outside = np.random.default_rng(11).normal(size=dense.shape[1])
        with pytest.raises(ValueError, match="diag_shift"):
            _solve(o, outside, 0.0, "cg")

    def test_non_finite_factors_give_a_non_finite_direction(self):
        """...which the driver's divergence guard turns into a skipped step."""
        o = _made(5, [4], "cycle", 0).log_psi_and_grads(_batch(5, 6, 1))[1]
        o.factors[0][2][0, 0] = np.nan
        got, _ = _solve(o, np.ones(o.shape[1]), 1e-3, "cg")
        assert np.isnan(got).all()

    @pytest.mark.parametrize("shift", [1e-3, 0.0])
    @pytest.mark.parametrize("form", ["factored", "array"])
    @pytest.mark.parametrize("duplicates", [False, True])
    def test_unit_counts_are_the_uncounted_solve_bit_for_bit(self, shift, form, duplicates):
        """An ``O`` without a grouping is its N rows at unit counts — also
        when rows repeat — and the count-weighted solve is then the N×N
        system centred by means, as the solve was written before counts."""
        model = _made(6, [5], "cycle", seed=8)
        o = model.log_psi_and_grads(_batch(6, 12, 9, duplicates))[1]
        if form == "array":
            o = np.asarray(o)
        dense = np.asarray(o)
        f = np.random.default_rng(10).normal(size=12) @ (dense - dense.mean(axis=0)) / 12
        got, _ = _solve(o, f, shift, "cg")
        np.testing.assert_array_equal(got, _uncounted_solve(o, f, shift))


def _uncounted_solve(o, f, shift):
    """The sample-space solve without counts: ``HGH/N``, ``Oc F/N`` and the
    back-projection ``Hc`` each centred by a mean."""
    n = o.shape[0]
    a = FactoredO._gram(o.factors) if isinstance(o, FactoredO) else o @ o.T
    a -= a.mean(axis=0)
    a -= a.mean(axis=1, keepdims=True)
    a /= n
    rhs = o @ f
    rhs -= rhs.mean()
    rhs /= n
    if shift > 0.0:
        a[np.diag_indices_from(a)] += shift
        factor = scipy.linalg.cho_factor(a, check_finite=False)
        c = scipy.linalg.cho_solve(factor, rhs, check_finite=False)
        return (f - (c - c.mean()) @ o) / shift
    vals, vecs = np.linalg.eigh(a)
    keep = vals > n * np.finfo(np.float64).eps * max(vals[-1], 0.0)
    vals, vecs = vals[keep], vecs[:, keep]
    coef = vecs.T @ rhs / vals
    c = vecs @ (coef / vals)
    return (c - c.mean()) @ o


# -- N ranks ≡ the big batch ---------------------------------------------------------


@pytest.mark.parametrize("world", [2, 3])
@pytest.mark.parametrize("widths", [[9], [6, 11]])
def test_ranks_match_the_serial_big_batch_solve_on_one_allgather(world, widths):
    n, batch, shift = 8, 21, 1e-3
    x = _batch(n, batch, seed=world)
    bounds = np.linspace(0, batch, world + 1).astype(int)
    bounds[1:-1] += np.arange(1, world) % 3 - 1  # unequal shards
    f = np.random.default_rng(5).normal(size=_made(n, widths, "cycle", 1).num_parameters())
    want, _ = _solve(_made(n, widths, "cycle", 1).log_psi_and_grads(x)[1], f, shift, "cg")

    def worker(comm, rank):
        sane = CommSanitizer(comm, timeout=20.0)
        model = _made(n, widths, "cycle", 1)  # replicas: same seed, own buffers
        o = model.log_psi_and_grads(x[bounds[rank]:bounds[rank + 1]])[1]
        sr = StochasticReconfiguration(diag_shift=shift, solver="cg")
        sol = sr.natural_gradient(o, f, comm=sane)
        kinds = [r.kind for r in sane.records]
        sane.barrier()
        return sol, kinds, sr.last_solve

    results = run_threaded(worker, world)
    width = 2 * (n + sum(widths)) if len(widths) == 1 else None
    for rank, (sol, kinds, info) in enumerate(results):
        assert kinds == ["allgather"]
        assert info.distributed and info.samples == batch and info.gram == "layers"
        if width is not None:  # N_r · (2(n + h) + 1) floats: factors and row counts
            assert info.comm_bytes == (bounds[rank + 1] - bounds[rank]) * (width + 1) * 8
        assert np.linalg.norm(sol - want) <= 1e-10 * np.linalg.norm(want)
        assert np.array_equal(sol, results[0][0])  # lock-step without a broadcast


# -- inside the driver ---------------------------------------------------------------


def _trainer(model, ham, batch, **kwargs):
    return VQMC(
        model, ham, AutoregressiveSampler(), SGD(model.parameters(), lr=0.03),
        sr=StochasticReconfiguration(diag_shift=1e-3, solver="cg"),
        seed=np.random.default_rng(1), config=VQMCConfig(batch_size=batch), **kwargs,
    )


@pytest.mark.parametrize(
    "n,batch,ceiling",
    # 2 856 448 B is a quarter of the 11.4 MB O the dense weight layout had at
    # the sr64 shape (d = 11 158); the packed O is 5.8 MB (5 654 columns).
    [(64, 128, 2_856_448), (256, 64, 8e6)],
    ids=["sr64-shape", "n256"],
)
def test_no_allocation_of_a_step_comes_near_the_o_matrix(n, batch, ceiling):
    """Peak traced memory over one steady-state ``VQMC.step`` with SR stays
    under a fixed byte ceiling, half of the ``N·d·8`` bytes of the O it
    never builds at the sr64 shape (5.8 MB stored) and two fifths at
    n = 256 (20.4 MB)."""
    model = MADE(n, rng=np.random.default_rng(0))
    vqmc = _trainer(model, TransverseFieldIsing.random(n, seed=3), batch)
    for _ in range(3):
        vqmc.step()
    tracemalloc.start()
    try:
        vqmc.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    o_bytes = batch * model.num_parameters() * 8
    assert peak < ceiling, f"peak {peak / 1e6:.1f} MB, O {o_bytes / 1e6:.1f} MB"
    assert vqmc.sr.last_solve.gram == "layers"


def test_every_path_leaves_a_counter(small_tim):
    """An array ``O`` (the RNN shares weights across sites, so it has no
    per-layer factors) is counted once a step and named on the span; MADE's
    factors are not."""
    counts = {}
    for name, model in (
        ("made", MADE(6, hidden=8, rng=np.random.default_rng(0))),
        ("rnn", RNNWaveFunction(6, hidden=4, rng=np.random.default_rng(0))),
    ):
        tracer, metrics = Tracer(), Metrics()
        vqmc = _trainer(model, small_tim, 16, tracer=tracer, metrics=metrics)
        for _ in range(3):
            vqmc.step()
        counters = metrics.snapshot()["counters"]
        grams = {e.attrs["gram"] for e in tracer.events if e.name == "sr_solve"}
        counts[name] = (counters.get("sr.dense_jacobian", 0), grams)
        assert counters["sr.solves"] == counters["sr.sample_space_solves"] == 3
    assert counts == {"made": (0, {"layers"}), "rnn": (3, {"dense"})}
