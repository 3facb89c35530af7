"""Hamiltonian interface and bit/spin conventions.

Conventions
-----------
- Configurations are bit-strings ``x ∈ {0,1}^n``, batched as ``(B, n)``
  float arrays (matching the neural-network input convention).
- Spins are ``z_i = 1 - 2 x_i ∈ {+1, -1}`` (so bit 0 ↦ spin +1), matching
  the paper's Eq. 13 where the Z-eigenvalue enters as ``(1 - 2 x_i)``.
- A row index of the matrix is the big-endian integer
  ``x = 2^{n-1} x_1 + … + 2^0 x_n`` (paper §2.4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Hamiltonian",
    "SingleFlipRows",
    "bits_to_spins",
    "index_to_bits",
    "bits_to_index",
    "quadratic_form",
]


def bits_to_spins(x: np.ndarray) -> np.ndarray:
    """Map bits {0,1} to spins {+1,-1} via ``z = 1 - 2x``."""
    return 1.0 - 2.0 * np.asarray(x, dtype=np.float64)


def index_to_bits(idx: np.ndarray | int, n: int) -> np.ndarray:
    """Big-endian binary representation of row indices — shape (..., n)."""
    idx = np.asarray(idx)
    shifts = np.arange(n - 1, -1, -1)
    return ((idx[..., None] >> shifts) & 1).astype(np.float64)


def bits_to_index(x: np.ndarray) -> np.ndarray:
    """Inverse of :func:`index_to_bits` (big-endian)."""
    x = np.asarray(x)
    n = x.shape[-1]
    weights = (1 << np.arange(n - 1, -1, -1)).astype(np.int64)
    return (x.astype(np.int64) @ weights)


def quadratic_form(z: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Batched ``zᵀ M z`` — shape (B,) for ``z`` (B, n) and ``M`` (n, n).

    One BLAS GEMM and a row-wise dot; the three-operand
    ``einsum("bi,ij,bj->b")`` it replaces is an unoptimised O(B·n²) scalar loop.
    """
    zm = z @ m
    zm *= z
    return zm.sum(axis=1)


@dataclass(frozen=True)
class SingleFlipRows:
    """Structured description of off-diagonal rows made of single bit flips.

    When every connected configuration of every row is ``x`` with exactly
    one bit flipped, and the amplitude of each flip is independent of ``x``,
    the whole ``connected()`` output is summarised by two length-``K``
    arrays: ``H[x, x ⊕ e_{sites[k]}] = amplitudes[k]`` for all ``x``. This
    is the paper's Eq. 11 family (each ``X_i`` term flips bit ``i`` with
    constant amplitude ``-α_i``) and is what the fused delta-evaluation
    kernel in :mod:`repro.perf.flips` consumes — no ``(B, K, n)`` dense
    neighbour array is ever materialised.
    """

    sites: np.ndarray  # (K,) int — flipped site per connected entry
    amplitudes: np.ndarray  # (K,) float — configuration-independent amplitudes

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=np.int64)
        amps = np.asarray(self.amplitudes, dtype=np.float64)
        if sites.ndim != 1 or amps.shape != sites.shape:
            raise ValueError(
                f"sites/amplitudes must be matching 1-D arrays, got "
                f"{sites.shape} and {amps.shape}"
            )
        if sites.size and sites.size != np.unique(sites).size:
            raise ValueError("flip sites must be unique (merge amplitudes first)")
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def k(self) -> int:
        return int(self.sites.size)


class Hamiltonian:
    """Row-sparse, efficiently row-computable Hamiltonian (Definition 2.1).

    Subclasses implement :meth:`diagonal` and :meth:`connected`; everything
    else (local energies, exact matrices, VQMC) is generic. Subclasses whose
    off-diagonal rows are configuration-independent single flips should also
    override :meth:`single_flips` to unlock the fused local-energy kernel.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"need at least one site, got n={n}")
        self.n = n

    # -- required ---------------------------------------------------------------

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        """Diagonal matrix elements ``H_xx`` for a batch — shape (B,)."""
        raise NotImplementedError

    def connected(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Off-diagonal row entries for each configuration in the batch.

        Returns ``(neighbours, amplitudes)`` of shapes ``(B, K, n)`` and
        ``(B, K)``: for each ``x_b``, ``H[x_b, neighbours[b, k]] =
        amplitudes[b, k]``. ``K`` may be 0 for diagonal Hamiltonians
        (e.g. Max-Cut), in which case both arrays have a zero-sized axis.
        """
        raise NotImplementedError

    @property
    def sparsity(self) -> int:
        """Upper bound on off-diagonal entries per row (``s`` of Def. 2.1)."""
        raise NotImplementedError

    # -- optional structure --------------------------------------------------------

    def single_flips(self) -> SingleFlipRows | None:
        """Structured single-flip form of the off-diagonal rows, if any.

        Returns ``None`` when the rows are not expressible as
        configuration-independent single bit flips (the generic dense
        ``connected()`` path is used instead). The contract, when not
        ``None``: ``connected(x)`` is exactly ``x`` with bit ``sites[k]``
        flipped at amplitude ``amplitudes[k]``, for every ``x``.
        """
        return None

    # -- generic helpers ----------------------------------------------------------

    def _check_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.n:
            raise ValueError(f"expected (B, {self.n}) configurations, got {x.shape}")
        return x

    def to_dense(self) -> np.ndarray:
        """Materialise the full ``2^n × 2^n`` matrix (validation; n ≤ 14)."""
        if self.n > 14:
            raise ValueError(f"refusing to materialise 2^{self.n} dense matrix")
        dim = 2**self.n
        states = index_to_bits(np.arange(dim), self.n)
        mat = np.zeros((dim, dim))
        mat[np.arange(dim), np.arange(dim)] = self.diagonal(states)
        nbrs, amps = self.connected(states)
        if nbrs.shape[1]:
            cols = bits_to_index(nbrs.reshape(-1, self.n)).reshape(dim, -1)
            for row in range(dim):
                for k in range(cols.shape[1]):
                    mat[row, cols[row, k]] += amps[row, k]
        return mat

    def to_sparse(self):
        """Materialise as ``scipy.sparse.csr_matrix`` (validation; n ≤ 20)."""
        import scipy.sparse as sp

        if self.n > 20:
            raise ValueError(f"refusing to materialise 2^{self.n} sparse matrix")
        dim = 2**self.n
        states = index_to_bits(np.arange(dim), self.n)
        diag = self.diagonal(states)
        rows = [np.arange(dim)]
        cols = [np.arange(dim)]
        vals = [diag]
        nbrs, amps = self.connected(states)
        k = nbrs.shape[1]
        if k:
            cidx = bits_to_index(nbrs.reshape(-1, self.n))
            rows.append(np.repeat(np.arange(dim), k))
            cols.append(cidx)
            vals.append(amps.ravel())
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(dim, dim),
        )
        return mat.tocsr()
