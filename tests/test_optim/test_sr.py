"""Stochastic reconfiguration: Fisher matrix, solvers, gradient assembly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.energy import grad_from_per_sample
from repro.optim import StochasticReconfiguration


@pytest.fixture
def o_matrix(rng):
    return rng.normal(size=(64, 10))


class TestFisherMatrix:
    def test_is_centred_covariance(self, o_matrix):
        s = StochasticReconfiguration.fisher_matrix(o_matrix)
        oc = o_matrix - o_matrix.mean(axis=0)
        assert np.allclose(s, oc.T @ oc / 64)

    def test_psd(self, o_matrix):
        s = StochasticReconfiguration.fisher_matrix(o_matrix)
        vals = np.linalg.eigvalsh(s)
        assert vals.min() > -1e-12

    def test_zero_for_constant_o(self):
        o = np.ones((10, 4))
        s = StochasticReconfiguration.fisher_matrix(o)
        assert np.allclose(s, 0.0)


class TestSolvers:
    def test_dense_solves_linear_system(self, o_matrix, rng):
        sr = StochasticReconfiguration(diag_shift=0.01, solver="dense")
        g = rng.normal(size=10)
        delta = sr.natural_gradient(o_matrix, g)
        s = sr.fisher_matrix(o_matrix) + 0.01 * np.eye(10)
        assert np.allclose(s @ delta, g, atol=1e-8)

    def test_cg_matches_dense(self, o_matrix, rng):
        g = rng.normal(size=10)
        dense = StochasticReconfiguration(diag_shift=0.01, solver="dense")
        cg = StochasticReconfiguration(diag_shift=0.01, solver="cg")
        assert np.allclose(
            dense.natural_gradient(o_matrix, g),
            cg.natural_gradient(o_matrix, g),
            atol=1e-6,
        )

    def test_auto_switches_on_dimension(self, rng):
        """'auto' solves the smaller system: d×d while d <= N, N×N beyond."""
        sr = StochasticReconfiguration(solver="auto")
        for d, solver in ((4, "dense"), (16, "dense"), (17, "cg")):
            sr.natural_gradient(rng.normal(size=(16, d)), rng.normal(size=d))
            assert sr.last_solve.solver == solver

    def test_whitened_o_recovers_plain_gradient(self, rng):
        """If the (centred) O covariance is the identity, SR ≈ plain gradient
        scaled by 1/(1+λ)."""
        bsz = 200000
        o = rng.normal(size=(bsz, 5))
        sr = StochasticReconfiguration(diag_shift=0.0, solver="dense")
        g = rng.normal(size=5)
        delta = sr.natural_gradient(o, g)
        assert np.allclose(delta, g, atol=0.05)

    def test_diag_shift_regularises_singular_s(self):
        """Rank-deficient O (duplicate columns) is only solvable with λ>0."""
        o = np.random.default_rng(0).normal(size=(32, 3))
        o = np.concatenate([o, o], axis=1)  # 6 params, rank 3
        sr = StochasticReconfiguration(diag_shift=1e-3, solver="dense")
        delta = sr.natural_gradient(o, np.ones(6))
        assert np.all(np.isfinite(delta))

    def test_dense_solve_is_one_cholesky(self, rng):
        """``cho_factor``/``cho_solve`` gives the bits of the general
        ``solve(assume_a='pos')`` it replaced (without its condition
        estimate), and a singular S with λ = 0 still raises."""
        import scipy.linalg

        o, g = rng.normal(size=(64, 40)), rng.normal(size=40)
        oc = o - o.sum(axis=0) / len(o)
        s = oc.T @ oc
        s /= len(o)
        s[np.diag_indices_from(s)] += 1e-3
        got = StochasticReconfiguration(diag_shift=1e-3, solver="dense").natural_gradient(o, g)
        assert np.array_equal(got, scipy.linalg.solve(s, g, assume_a="pos"))
        with pytest.raises(np.linalg.LinAlgError):
            StochasticReconfiguration(diag_shift=0.0, solver="dense").natural_gradient(
                rng.normal(size=(3, 6)), rng.normal(size=6)
            )

    def test_validation(self, o_matrix):
        with pytest.raises(ValueError):
            StochasticReconfiguration(diag_shift=-1.0)
        with pytest.raises(ValueError):
            StochasticReconfiguration(solver="lu")
        with pytest.raises(ValueError):
            StochasticReconfiguration().natural_gradient(o_matrix, np.zeros(3))


class TestSolveDiagnostics:
    def test_solve_info_records_solver_and_residual(self, o_matrix, rng):
        g = rng.normal(size=10)
        # the iteration budget is accepted and has no effect: the
        # sample-space solve is direct, never truncated
        sr = StochasticReconfiguration(solver="cg", cg_maxiter=1)
        assert sr.last_solve is None
        sr.natural_gradient(o_matrix, g)
        info = sr.last_solve
        assert info.solver == "cg" and info.gram == "dense"
        assert not info.distributed and info.comm_bytes == 0
        assert info.d == 10 and info.samples == 64
        assert info.iterations == 0 and info.incomplete is False
        assert info.residual < 1e-10
        sr.solver = "dense"
        sr.natural_gradient(o_matrix, g)
        info = sr.last_solve
        assert info.solver == "dense" and info.gram == ""
        assert info.residual < 1e-10

    def test_metrics_counters(self, o_matrix, rng):
        from repro.obs import Metrics

        sr = StochasticReconfiguration(solver="cg")
        sr.metrics = Metrics()
        sr.natural_gradient(o_matrix, rng.normal(size=10))
        snap = sr.metrics.snapshot()
        assert snap["counters"]["sr.solves"] == 1
        assert snap["counters"]["sr.sample_space_solves"] == 1
        assert snap["counters"]["sr.dense_jacobian"] == 1  # an array O, not factors
        assert snap["gauges"]["sr.residual"] == sr.last_solve.residual


class TestEnergyGradient:
    """The right-hand side SR preconditions: Eq. 5's ``2⟨(l − ⟨l⟩) O⟩``."""

    def test_covariance_form(self, o_matrix, rng):
        l = rng.normal(size=64)
        f = grad_from_per_sample(o_matrix, l)
        centred = l - l.mean()
        assert np.allclose(f, 2.0 * centred @ o_matrix / 64)

    def test_zero_for_constant_local_energy(self, o_matrix):
        """Zero-variance principle: at an eigenstate (constant l) the
        gradient estimator vanishes identically, not just in expectation."""
        f = grad_from_per_sample(o_matrix, np.full(64, 3.7))
        assert np.allclose(f, 0.0)
