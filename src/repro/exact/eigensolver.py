"""Ground-state computation via scipy's sparse Lanczos (``eigsh``).

``scipy.sparse.linalg`` is imported by :func:`ground_state` when it runs,
not with this module, so ``import repro`` does not load scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hamiltonians.base import Hamiltonian

__all__ = ["ExactResult", "ground_state"]


@dataclass(frozen=True)
class ExactResult:
    """Minimal eigenpair of a Hamiltonian."""

    energy: float
    vector: np.ndarray  # ground eigenvector in the computational basis

    @property
    def probabilities(self) -> np.ndarray:
        """Born distribution |ψ₀|² of the ground state."""
        return self.vector**2 / (self.vector**2).sum()


def ground_state(hamiltonian: Hamiltonian, k: int = 1) -> ExactResult:
    """Compute the minimal eigenpair exactly (n ≤ 20).

    For very small systems (``2^n ≤ 32``, where Lanczos constraints
    ``k < dim`` bind) falls back to dense ``eigh``.
    """
    dim = 2**hamiltonian.n
    if dim <= 32:
        mat = hamiltonian.to_dense()
        vals, vecs = np.linalg.eigh(mat)
        return ExactResult(energy=float(vals[0]), vector=vecs[:, 0])
    import scipy.sparse.linalg

    mat = hamiltonian.to_sparse()
    vals, vecs = scipy.sparse.linalg.eigsh(mat, k=k, which="SA")
    order = np.argsort(vals)
    return ExactResult(energy=float(vals[order[0]]), vector=vecs[:, order[0]])
