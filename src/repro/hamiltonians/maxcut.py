"""Max-Cut as a (purely diagonal) quantum Hamiltonian — paper §2.4 & §5.1.

For a weighted graph with adjacency ``W`` the cut value of a partition
encoded by bits ``x`` (spins ``z = 1-2x``) is

    cut(x) = Σ_{i<j} w_ij (1 - z_i z_j) / 2 .

We encode Max-Cut as the ZZX Hamiltonian with ``α = β = 0``,
``β_ij = -w_ij/2`` and ``offset = -Σ_{i<j} w_ij / 2``, so that

    H_xx = -cut(x) ,

i.e. the ground-state energy is minus the maximum cut and VQMC maximises
the cut by minimising the energy. (The paper's §2.4 uses β_ij = L_ij/4,
which differs from this by an overall affine transformation of the spectrum;
our convention makes reported energies directly comparable to cut counts
in Table 2.)

The paper's random instances (§5.1): ``B_ij ~ Bernoulli(0.5)``, adjacency
``rint((B + Bᵀ)/2)`` with zero diagonal — i.e. an edge is present iff *both*
directed coin flips landed heads (density ≈ 1/4; this matches the Table 2
"Random" row, e.g. n=500 → E[cut] ≈ |E|/2 ≈ 15 600).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.hamiltonians.base import bits_to_spins, quadratic_form
from repro.hamiltonians.zzx import ZZXHamiltonian
from repro.utils.rng import as_generator

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["MaxCut", "bernoulli_adjacency"]


def bernoulli_adjacency(
    n: int, seed: int | None | np.random.Generator = None, p: float = 0.5
) -> np.ndarray:
    """The paper's random adjacency: ``rint((B + Bᵀ)/2)``, zero diagonal."""
    rng = as_generator(seed)
    b = (rng.random((n, n)) < p).astype(np.float64)
    w = np.rint((b + b.T) / 2.0)
    np.fill_diagonal(w, 0.0)
    return w


class MaxCut(ZZXHamiltonian):
    """Max-Cut Hamiltonian; ``H_xx = -cut(x)``, no off-diagonal entries.

    ``single_flips()`` (inherited) returns an empty flip list — α ≡ 0 —
    so ``local_energies`` reduces to the diagonal and performs no network
    evaluations at all (unless the caller asks for ``log ψ(x)`` back).
    """

    def __init__(self, adjacency: np.ndarray):
        adjacency = np.asarray(adjacency, dtype=np.float64)
        n = adjacency.shape[0]
        if adjacency.shape != (n, n):
            raise ValueError(f"adjacency must be square, got {adjacency.shape}")
        if not np.allclose(adjacency, adjacency.T):
            raise ValueError("adjacency must be symmetric")
        if np.count_nonzero(np.diag(adjacency)):
            raise ValueError("adjacency must have zero diagonal (no self-loops)")
        total = float(np.triu(adjacency, 1).sum())
        # cut(x) = ½ total − ¼ zᵀWz and H_xx = −½ zᵀ(couplings)z + offset,
        # so couplings = −W/2 and offset = −total/2 give H_xx = −cut(x).
        super().__init__(
            alpha=np.zeros(n),
            beta=np.zeros(n),
            couplings=-adjacency / 2.0,
            offset=-total / 2.0,
        )
        self.adjacency = adjacency
        self.total_weight = total

    @classmethod
    def random(
        cls, n: int, seed: int | None | np.random.Generator = None, p: float = 0.5
    ) -> "MaxCut":
        """Paper §5.1 random instance."""
        return cls(bernoulli_adjacency(n, seed=seed, p=p))

    @classmethod
    def from_graph(cls, graph: "nx.Graph", weight: str = "weight") -> "MaxCut":
        """Build from a networkx graph (missing weights default to 1)."""
        nodes = sorted(graph.nodes())
        index = {v: i for i, v in enumerate(nodes)}
        w = np.zeros((len(nodes), len(nodes)))
        for u, v, data in graph.edges(data=True):
            wt = float(data.get(weight, 1.0))
            w[index[u], index[v]] = wt
            w[index[v], index[u]] = wt
        return cls(w)

    def cut_value(self, x: np.ndarray) -> np.ndarray:
        """Cut weight of each configuration in the batch — equals ``-H_xx``."""
        x = self._check_batch(x)
        z = bits_to_spins(x)
        agree = quadratic_form(z, self.adjacency)  # Σ_ij w_ij z_i z_j
        return 0.5 * (self.total_weight - 0.5 * agree)

    def num_edges(self) -> int:
        return int(np.count_nonzero(np.triu(self.adjacency, 1)))
