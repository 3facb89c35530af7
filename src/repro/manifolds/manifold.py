"""Riemannian manifolds (embedded in Euclidean space, metric inherited)."""

from __future__ import annotations

import numpy as np

__all__ = ["ObliqueManifold"]


class ObliqueManifold:
    """OB(p, n): real ``p × n`` matrices with unit-norm columns.

    The product of ``n`` unit spheres ``S^{p-1}``; the feasible set of the
    Burer–Monteiro factorisation of the Max-Cut SDP (each column is a
    vertex vector ``v_i``).
    """

    def __init__(self, p: int, n: int):
        if p < 1 or n < 1:
            raise ValueError(f"invalid oblique dimensions ({p}, {n})")
        self.p = p
        self.n = n

    @property
    def dim(self) -> int:
        return (self.p - 1) * self.n

    # -- points ---------------------------------------------------------------

    def random_point(self, rng: np.random.Generator) -> np.ndarray:
        v = rng.normal(size=(self.p, self.n))
        return v / np.linalg.norm(v, axis=0, keepdims=True)

    def check_point(self, v: np.ndarray, atol: float = 1e-8) -> None:  # repro-lint: disable=api-unreachable-export -- test oracle: the membership check every retraction in the tests must pass
        if v.shape != (self.p, self.n):
            raise ValueError(f"point shape {v.shape} != ({self.p}, {self.n})")
        norms = np.linalg.norm(v, axis=0)
        if not np.allclose(norms, 1.0, atol=atol):
            raise ValueError(f"columns not unit-norm (max dev {abs(norms-1).max():.2e})")

    # -- tangent spaces -------------------------------------------------------------

    def proj(self, v: np.ndarray, u: np.ndarray) -> np.ndarray:
        """Project ambient ``u`` onto the tangent space at ``v``
        (remove each column's radial component)."""
        return u - v * (v * u).sum(axis=0, keepdims=True)

    def random_tangent(self, v: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        xi = self.proj(v, rng.normal(size=v.shape))
        nrm = self.norm(xi)
        return xi / nrm if nrm > 0 else xi

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float((a * b).sum())

    def norm(self, a: np.ndarray) -> float:
        return float(np.linalg.norm(a))

    # -- retraction -----------------------------------------------------------------

    def retract(self, v: np.ndarray, xi: np.ndarray) -> np.ndarray:
        """Metric projection retraction: renormalise the columns of v + ξ."""
        w = v + xi
        return w / np.linalg.norm(w, axis=0, keepdims=True)

    # -- Riemannian derivatives from Euclidean ones -------------------------------------

    def egrad_to_rgrad(self, v: np.ndarray, egrad: np.ndarray) -> np.ndarray:
        return self.proj(v, egrad)

    def ehess_to_rhess(
        self, v: np.ndarray, egrad: np.ndarray, ehess: np.ndarray, xi: np.ndarray
    ) -> np.ndarray:
        """Riemannian Hessian via the standard embedded-submanifold formula:
        ``Proj(ehess) − ξ · ddiag(vᵀ egrad)`` (per-column Weingarten term)."""
        radial = (v * egrad).sum(axis=0, keepdims=True)
        return self.proj(v, ehess - xi * radial)
