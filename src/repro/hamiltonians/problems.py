"""Classic combinatorial-optimisation instances as Hamiltonians.

The paper frames VQMC as a general QUBO heuristic (§2.4); this module
provides the standard benchmark families beyond Max-Cut, each as a ready
:class:`repro.hamiltonians.IsingQUBO` (diagonal) instance so the full VQMC
stack — and the exact brute-force validators — applies unchanged.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.hamiltonians.qubo import IsingQUBO
from repro.hamiltonians.zzx import ZZXHamiltonian
from repro.utils.rng import as_generator

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "sherrington_kirkpatrick",
    "number_partitioning",
    "max_independent_set",
]


def sherrington_kirkpatrick(
    n: int, seed: int | None | np.random.Generator = None
) -> ZZXHamiltonian:
    """Sherrington–Kirkpatrick spin glass: ``H = -(1/√n) Σ_{i<j} J_ij Z_i Z_j``
    with ``J_ij ~ N(0, 1)``.

    The canonical hard mean-field glass; ground energy per spin approaches
    the Parisi constant ≈ −0.7632 as n → ∞.
    """
    rng = as_generator(seed)
    upper = np.triu(rng.normal(size=(n, n)), 1)
    couplings = (upper + upper.T) / np.sqrt(n)
    return ZZXHamiltonian(
        alpha=np.zeros(n), beta=np.zeros(n), couplings=couplings
    )


def number_partitioning(
    weights: np.ndarray,
) -> IsingQUBO:
    """Partition ``weights`` into two sets with minimal difference.

    Objective: ``(Σ_i w_i z_i)² = (Σ w_i (1-2x_i))²`` — zero iff a perfect
    partition exists. Encoded as the QUBO obtained by expanding the square;
    the minimum of ``H`` equals the squared residual of the best partition.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or w.size < 2:
        raise ValueError("need a 1-D array of at least two weights")
    total = w.sum()
    # (total - 2 Σ w_i x_i)² = 4 xᵀ(wwᵀ)x − 4·total·wᵀx + total².
    return IsingQUBO(
        Q=4.0 * np.outer(w, w),
        q=-4.0 * total * w,
        const=total**2,
    )


def max_independent_set(
    graph: "nx.Graph", penalty: float = 2.0
) -> IsingQUBO:
    """Maximum independent set via the penalised QUBO
    ``min −Σ_i x_i + penalty · Σ_{(i,j)∈E} x_i x_j``.

    For ``penalty > 1`` every optimal QUBO solution is a valid independent
    set, and −(optimal value) is the MIS size.
    """
    if penalty <= 1.0:
        raise ValueError(f"penalty must exceed 1 for exactness, got {penalty}")
    nodes = sorted(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    if n < 1:
        raise ValueError("graph has no nodes")
    Q = np.zeros((n, n))
    for u, v in graph.edges():
        i, j = index[u], index[v]
        Q[i, j] += penalty / 2.0
        Q[j, i] += penalty / 2.0
    return IsingQUBO(Q=Q, q=-np.ones(n))
