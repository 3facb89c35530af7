"""Exhaustive solvers for small instances (ground truth for tests)."""

from __future__ import annotations

import numpy as np

from repro.hamiltonians.base import Hamiltonian, index_to_bits, quadratic_form

__all__ = ["brute_force_max_cut", "brute_force_ground_state"]


def brute_force_max_cut(adjacency: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact maximum cut by enumeration (n ≤ 22). Returns (value, bits)."""
    adjacency = np.asarray(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    if n > 22:
        raise ValueError(f"brute force infeasible for n={n}")
    states = index_to_bits(np.arange(2**n), n)
    z = 1.0 - 2.0 * states
    total = np.triu(adjacency, 1).sum()
    agree = quadratic_form(z, adjacency)
    cuts = 0.5 * (total - 0.5 * agree)
    best = int(np.argmax(cuts))
    return float(cuts[best]), states[best]


def brute_force_ground_state(hamiltonian: Hamiltonian) -> tuple[float, np.ndarray]:
    """Exact minimal *diagonal* entry for purely diagonal Hamiltonians, or
    the dense minimal eigenpair otherwise (n ≤ 14). Returns (energy, bits or
    eigenvector)."""
    n = hamiltonian.n
    nbrs, _ = hamiltonian.connected(np.zeros((1, n)))
    if nbrs.shape[1] == 0:
        if n > 22:
            raise ValueError(f"brute force infeasible for n={n}")
        states = index_to_bits(np.arange(2**n), n)
        diag = hamiltonian.diagonal(states)
        best = int(np.argmin(diag))
        return float(diag[best]), states[best]
    mat = hamiltonian.to_dense()
    vals, vecs = np.linalg.eigh(mat)
    return float(vals[0]), vecs[:, 0]
