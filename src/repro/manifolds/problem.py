"""Problem container binding a manifold to cost/gradient/Hessian callables."""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["ManifoldProblem"]


class ManifoldProblem:
    """An optimisation problem ``min f(V)`` over a manifold.

    Parameters
    ----------
    manifold:
        A manifold object (:class:`repro.manifolds.ObliqueManifold` etc.).
    cost:
        ``V -> float``.
    egrad:
        Euclidean gradient ``V -> array``; converted to the Riemannian
        gradient internally.
    ehess:
        Optional Euclidean Hessian-vector product ``(V, ξ) -> array``. If
        absent, trust-region solvers fall back to a finite-difference
        approximation of the Riemannian Hessian.
    """

    def __init__(
        self,
        manifold,
        cost: Callable[[np.ndarray], float],
        egrad: Callable[[np.ndarray], np.ndarray],
        ehess: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
    ):
        self.manifold = manifold
        self._cost = cost
        self._egrad = egrad
        self._ehess = ehess

    def cost(self, v: np.ndarray) -> float:
        return float(self._cost(v))

    def rgrad(self, v: np.ndarray) -> np.ndarray:
        return self.manifold.egrad_to_rgrad(v, self._egrad(v))

    def rhess(self, v: np.ndarray, xi: np.ndarray) -> np.ndarray:
        if self._ehess is not None:
            return self.manifold.ehess_to_rhess(v, self._egrad(v), self._ehess(v, xi), xi)
        # Finite-difference Riemannian Hessian approximation:
        # (grad f(R_v(h ξ)) − grad f(v)) / h, projected back at v.
        h = 1e-6 / max(self.manifold.norm(xi), 1e-12)
        v_plus = self.manifold.retract(v, h * xi)
        g_plus = self.manifold.proj(v, self.rgrad(v_plus))
        return (g_plus - self.rgrad(v)) / h

    def check_gradient(  # repro-lint: disable=api-unreachable-export -- test oracle: the finite-difference derivative each Riemannian gradient is held against
        self, v: np.ndarray, rng: np.random.Generator, h: float = 1e-7
    ) -> float:
        """Directional-derivative check; returns max relative error over a
        few random tangents (used by the tests)."""
        worst = 0.0
        for _ in range(3):
            xi = self.manifold.random_tangent(v, rng)
            num = (self.cost(self.manifold.retract(v, h * xi)) -
                   self.cost(self.manifold.retract(v, -h * xi))) / (2 * h)
            ana = self.manifold.inner(self.rgrad(v), xi)
            scale = max(abs(num), abs(ana), 1e-10)
            worst = max(worst, abs(num - ana) / scale)
        return worst
