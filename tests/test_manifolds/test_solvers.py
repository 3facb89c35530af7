"""The Riemannian trust-region solver on problems with known optima.

The canonical benchmark: minimising the Rayleigh quotient ``vᵀAv`` on the
sphere — ``ObliqueManifold(n, 1)``, points are ``(n, 1)`` columns — gives
the minimal eigenvalue of A, checkable against numpy.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.manifolds import ManifoldProblem, ObliqueManifold, RiemannianTrustRegion

SOLVERS = [RiemannianTrustRegion(max_iter=200, grad_tol=1e-8)]


def rayleigh_problem(a: np.ndarray) -> ManifoldProblem:
    return ManifoldProblem(
        ObliqueManifold(a.shape[0], 1),
        cost=lambda v: float(np.sum(v * (a @ v))),
        egrad=lambda v: 2.0 * a @ v,
        ehess=lambda v, xi: 2.0 * a @ xi,
    )


@pytest.fixture
def sym_matrix(rng):
    a = rng.normal(size=(12, 12))
    return (a + a.T) / 2


class TestRayleighQuotient:
    @pytest.mark.parametrize("solver_idx", range(len(SOLVERS)))
    def test_finds_minimal_eigenvalue(self, solver_idx, sym_matrix, rng):
        solver = SOLVERS[solver_idx]
        res = solver.solve(rayleigh_problem(sym_matrix), rng=rng)
        lam_min = np.linalg.eigvalsh(sym_matrix)[0]
        assert res.cost == pytest.approx(lam_min, abs=1e-5)

    def test_trust_region_converges_quadratically_fast(self, sym_matrix, rng):
        res = RiemannianTrustRegion(max_iter=100, grad_tol=1e-10).solve(
            rayleigh_problem(sym_matrix), rng=rng
        )
        assert res.converged
        assert res.iterations < 60

    def test_solution_is_unit_eigenvector(self, sym_matrix, rng):
        res = RiemannianTrustRegion(grad_tol=1e-10).solve(
            rayleigh_problem(sym_matrix), rng=rng
        )
        v = res.point[:, 0]
        assert np.linalg.norm(v) == pytest.approx(1.0)
        assert np.allclose(sym_matrix @ v, res.cost * v, atol=1e-5)


class TestObliqueProblems:
    def test_decoupled_columns_each_find_min_eigvec(self, rng):
        """f(V) = Σ_i v_iᵀ A v_i on OB(p, n) decouples into n sphere problems."""
        p, n = 5, 3
        a = rng.normal(size=(p, p))
        a = (a + a.T) / 2
        mani = ObliqueManifold(p, n)
        prob = ManifoldProblem(
            mani,
            cost=lambda v: float(np.sum(v * (a @ v))),
            egrad=lambda v: 2.0 * a @ v,
            ehess=lambda v, xi: 2.0 * a @ xi,
        )
        res = RiemannianTrustRegion(grad_tol=1e-9).solve(prob, rng=rng)
        lam_min = np.linalg.eigvalsh(a)[0]
        assert res.cost == pytest.approx(n * lam_min, abs=1e-5)

    def test_x0_overrides_random_start(self, rng):
        a = np.diag([1.0, 2.0, 3.0, 4.0])
        prob = rayleigh_problem(a)
        x0 = np.array([[0.9], [0.1], [0.3], [0.1]])
        x0 /= np.linalg.norm(x0)
        res = RiemannianTrustRegion(grad_tol=1e-9).solve(prob, x0=x0)
        assert res.cost == pytest.approx(1.0, abs=1e-6)

    def test_missing_start_raises(self, rng):
        prob = rayleigh_problem(np.eye(3))
        for solver in SOLVERS:
            with pytest.raises(ValueError):
                solver.solve(prob)


class TestResultRecord:
    def test_str(self, sym_matrix, rng):
        res = RiemannianTrustRegion(max_iter=5).solve(
            rayleigh_problem(sym_matrix), rng=rng
        )
        s = str(res)
        assert "cost=" in s and "iters" in s
