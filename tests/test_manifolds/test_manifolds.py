"""Manifold geometry: projections, retractions, gradient conversions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.manifolds import ManifoldProblem, ObliqueManifold


@pytest.fixture
def oblique():
    return ObliqueManifold(4, 6)


class TestObliqueGeometry:
    def test_random_point_on_manifold(self, oblique, rng):
        v = oblique.random_point(rng)
        oblique.check_point(v)

    def test_projection_is_tangent(self, oblique, rng):
        v = oblique.random_point(rng)
        xi = oblique.proj(v, rng.normal(size=v.shape))
        # Tangent: each column of ξ orthogonal to the matching column of v.
        dots = (v * xi).sum(axis=0)
        assert np.allclose(dots, 0.0, atol=1e-12)

    def test_projection_idempotent(self, oblique, rng):
        v = oblique.random_point(rng)
        u = rng.normal(size=v.shape)
        p1 = oblique.proj(v, u)
        assert np.allclose(oblique.proj(v, p1), p1, atol=1e-12)

    def test_retraction_stays_on_manifold(self, oblique, rng):
        v = oblique.random_point(rng)
        xi = oblique.random_tangent(v, rng)
        oblique.check_point(oblique.retract(v, 0.7 * xi))

    def test_retraction_first_order(self, oblique, rng):
        """R_v(tξ) = v + tξ + O(t²)."""
        v = oblique.random_point(rng)
        xi = oblique.random_tangent(v, rng)
        for t in (1e-3, 1e-4):
            err = np.linalg.norm(oblique.retract(v, t * xi) - (v + t * xi))
            assert err < 5 * t**2

    def test_dim(self, oblique):
        assert oblique.dim == 3 * 6

    def test_check_point_rejects_bad(self, oblique, rng):
        with pytest.raises(ValueError):
            oblique.check_point(np.ones((4, 6)))
        with pytest.raises(ValueError):
            oblique.check_point(np.ones((2, 2)))

    def test_validation(self):
        with pytest.raises(ValueError):
            ObliqueManifold(0, 3)


class TestProblem:
    def test_gradient_check_passes_for_correct_gradient(self, rng):
        mani = ObliqueManifold(6, 1)
        a = rng.normal(size=(6, 6))
        a = (a + a.T) / 2

        prob = ManifoldProblem(
            mani,
            cost=lambda v: float(np.sum(v * (a @ v))),
            egrad=lambda v: 2.0 * a @ v,
            ehess=lambda v, xi: 2.0 * a @ xi,
        )
        v = mani.random_point(rng)
        assert prob.check_gradient(v, rng) < 1e-5

    def test_gradient_check_catches_wrong_gradient(self, rng):
        mani = ObliqueManifold(6, 1)
        a = np.diag(np.arange(1.0, 7.0))
        prob = ManifoldProblem(
            mani,
            cost=lambda v: float(np.sum(v * (a @ v))),
            egrad=lambda v: 3.1 * a @ v,  # wrong scale
        )
        v = mani.random_point(rng)
        assert prob.check_gradient(v, rng) > 1e-2

    def test_finite_difference_hessian_close_to_exact(self, rng):
        mani = ObliqueManifold(5, 1)
        a = rng.normal(size=(5, 5))
        a = (a + a.T) / 2
        exact = ManifoldProblem(
            mani,
            cost=lambda v: float(np.sum(v * (a @ v))),
            egrad=lambda v: 2.0 * a @ v,
            ehess=lambda v, xi: 2.0 * a @ xi,
        )
        approx = ManifoldProblem(
            mani,
            cost=lambda v: float(np.sum(v * (a @ v))),
            egrad=lambda v: 2.0 * a @ v,
        )
        v = mani.random_point(rng)
        xi = mani.random_tangent(v, rng)
        assert np.allclose(exact.rhess(v, xi), approx.rhess(v, xi), atol=1e-4)
