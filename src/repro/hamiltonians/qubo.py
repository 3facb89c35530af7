"""General quadratic unconstrained binary optimisation (QUBO) as a Hamiltonian.

A QUBO minimises ``f(x) = xᵀ Q x + qᵀ x + c`` over ``x ∈ {0,1}^n``. Any such
objective is an affine function of spin variables, hence expressible in the
diagonal part of the paper's Eq. 11 family. This class performs that
translation, so the full VQMC machinery (and the exact-diagonalisation
validators) applies to arbitrary QUBOs — the "combinatorial optimisation"
generalisation the paper's abstract claims.

Translation (z = 1 - 2x ⇔ x = (1-z)/2, with S = Q + Qᵀ symmetrised):

    xᵀQx + qᵀx + c
      = Σ_{i<j} S_ij x_i x_j + Σ_i (Q_ii + q_i) x_i + c
      = Σ_{i<j} S_ij (1-z_i)(1-z_j)/4 + Σ_i (Q_ii+q_i)(1-z_i)/2 + c

which matches ``H_xx = -Σ β_i z_i - Σ_{i<j} β_ij z_i z_j + offset`` with

    β_ij  = -S_ij / 4
    β_i   = (Q_ii + q_i)/2 + Σ_{j≠i} S_ij / 4
    offset = c + Σ_i (Q_ii + q_i)/2 + Σ_{i<j} S_ij / 4 .
"""

from __future__ import annotations

import numpy as np

from repro.hamiltonians.base import quadratic_form
from repro.hamiltonians.zzx import ZZXHamiltonian

__all__ = ["IsingQUBO"]


class IsingQUBO(ZZXHamiltonian):
    """Diagonal Hamiltonian with ``H_xx = f(x)`` for a QUBO objective ``f``.

    The VQMC ground-state search then *minimises* ``f``.
    """

    def __init__(
        self,
        Q: np.ndarray,
        q: np.ndarray | None = None,
        const: float = 0.0,
    ):
        Q = np.asarray(Q, dtype=np.float64)
        n = Q.shape[0]
        if Q.shape != (n, n):
            raise ValueError(f"Q must be square, got {Q.shape}")
        q = np.zeros(n) if q is None else np.asarray(q, dtype=np.float64)
        if q.shape != (n,):
            raise ValueError(f"q shape {q.shape} != ({n},)")

        s = Q + Q.T
        np.fill_diagonal(s, 0.0)  # S_ij for i != j; diagonal handled via linear term
        lin = np.diag(Q) + q

        beta_ij = -s / 4.0
        beta = lin / 2.0 + s.sum(axis=1) / 4.0
        offset = const + lin.sum() / 2.0 + np.triu(s, 1).sum() / 4.0
        super().__init__(
            alpha=np.zeros(n), beta=beta, couplings=beta_ij, offset=offset
        )
        self.Q = Q
        self.q = q
        self.const = float(const)

    def objective(self, x: np.ndarray) -> np.ndarray:
        """Direct evaluation of ``xᵀQx + qᵀx + c`` (sanity check vs. diagonal)."""
        x = self._check_batch(x)
        return quadratic_form(x, self.Q) + x @ self.q + self.const
