"""The paper's Hamiltonian family (Eq. 11):

    H = -Σ_i (α_i X_i + β_i Z_i) - Σ_{i<j} β_ij Z_i Z_j  (+ offset·I)

In the computational basis (Eq. 13) this gives, with spins ``z = 1 - 2x``:

- diagonal:      ``H_xx = -Σ_i β_i z_i - Σ_{i<j} β_ij z_i z_j + offset``
- off-diagonal:  flipping bit ``i`` contributes amplitude ``-α_i``.

The sparsity parameter is ``s = #{i : α_i ≠ 0} ≤ n``, satisfying
Definition 2.1. The scalar ``offset`` is not in the paper's Eq. 11 but lets
Max-Cut be expressed so that ``-H_xx`` equals the cut value exactly.
"""

from __future__ import annotations

import numpy as np

from repro.hamiltonians.base import (
    Hamiltonian,
    SingleFlipRows,
    bits_to_spins,
    quadratic_form,
)

__all__ = ["ZZXHamiltonian"]


class ZZXHamiltonian(Hamiltonian):
    """Hamiltonian of the form Eq. 11 with arbitrary coefficient arrays.

    Parameters
    ----------
    alpha:
        Transverse-field coefficients ``α_i ≥ 0`` (off-diagonal bit flips).
        The non-negativity requirement is the paper's Perron–Frobenius
        condition ensuring a sign-free ground state.
    beta:
        Longitudinal fields ``β_i``.
    couplings:
        Symmetric ``(n, n)`` matrix with zero diagonal; entry ``[i, j]``
        (``i < j``) is ``β_ij``. A full symmetric matrix may be passed — the
        pair sum counts each unordered pair once.
    offset:
        Constant shift ``offset · I``.
    """

    def __init__(
        self,
        alpha: np.ndarray,
        beta: np.ndarray,
        couplings: np.ndarray,
        offset: float = 0.0,
    ):
        alpha = np.asarray(alpha, dtype=np.float64)
        beta = np.asarray(beta, dtype=np.float64)
        couplings = np.asarray(couplings, dtype=np.float64)
        n = alpha.shape[0]
        super().__init__(n)
        if beta.shape != (n,):
            raise ValueError(f"beta shape {beta.shape} != ({n},)")
        if couplings.shape != (n, n):
            raise ValueError(f"couplings shape {couplings.shape} != ({n}, {n})")
        if not np.allclose(couplings, couplings.T):
            raise ValueError("couplings matrix must be symmetric")
        if np.count_nonzero(np.diag(couplings)):
            raise ValueError("couplings matrix must have zero diagonal")
        if np.any(alpha < 0.0):
            raise ValueError(
                "alpha must be non-negative (Perron-Frobenius condition, paper §2.4)"
            )
        self.alpha = alpha
        self.beta = beta
        self.couplings = couplings
        self.offset = float(offset)
        # Only sites with a non-zero transverse field generate off-diagonal
        # entries; Max-Cut (alpha = 0) is purely diagonal.
        self._flip_sites = np.nonzero(alpha != 0.0)[0]

    @property
    def sparsity(self) -> int:
        return int(self._flip_sites.size)

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        x = self._check_batch(x)
        z = bits_to_spins(x)
        field = z @ self.beta
        # Each unordered pair counted once: ½ zᵀ C z with C symmetric, 0 diag.
        pair = 0.5 * quadratic_form(z, self.couplings)
        return -field - pair + self.offset

    def single_flips(self) -> SingleFlipRows:
        """Every X_i term flips bit ``i`` with constant amplitude ``-α_i`` —
        the structured form the fused local-energy kernel consumes."""
        sites = self._flip_sites
        return SingleFlipRows(sites=sites, amplitudes=-self.alpha[sites])

    def connected(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self._check_batch(x)
        bsz = x.shape[0]
        flips = self.single_flips()
        k = flips.k
        if k == 0:
            return np.zeros((bsz, 0, self.n)), np.zeros((bsz, 0))
        sites = flips.sites
        nbrs = np.broadcast_to(x[:, None, :], (bsz, k, self.n)).copy()
        rows = np.arange(k)
        nbrs[:, rows, sites] = 1.0 - nbrs[:, rows, sites]
        amps = np.broadcast_to(flips.amplitudes, (bsz, k)).copy()
        return nbrs, amps

    # -- convenience --------------------------------------------------------------

    @property
    def num_terms(self) -> int:
        """Number of non-zero Pauli terms (for cost accounting)."""
        return (
            int(np.count_nonzero(self.alpha))
            + int(np.count_nonzero(self.beta))
            + int(np.count_nonzero(np.triu(self.couplings, 1)))
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(n={self.n}, sparsity={self.sparsity}, "
            f"terms={self.num_terms})"
        )
