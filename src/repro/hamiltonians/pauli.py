"""General Pauli-string Hamiltonians (full Definition 2.1 generality).

The paper's Eq. 11 family has only single-site X terms. Many models of
interest (quantum XY/Heisenberg-like couplings, multi-spin drivers in
quantum annealing) need products of Pauli operators. This module supports
Hamiltonians of the form

    H = Σ_t c_t · P_t ,   P_t = ⊗_{i ∈ Z(t)} Z_i ⊗ ⊗_{j ∈ X(t)} X_j

i.e. every term is a product of Z factors and X factors on disjoint site
sets (Y factors are excluded: they introduce complex amplitudes, outside
the paper's real-non-negative setting).

Matrix elements in the computational basis: for row ``x``,

- the X part flips the bits in ``X(t)`` → column ``y = x ⊕ mask(t)``;
- the Z part contributes the sign ``Π_{i ∈ Z(t)} (1 − 2 x_i)``;

so ``H[x, y] += c_t · sign_Z(x)``. Terms with empty X part are diagonal.
The row is computable in ``O(#terms)`` — "efficiently row computable".

Stoquasticity (Perron–Frobenius, §2.1) requires all *off-diagonal* entries
≤ 0. For a pure-X term that is just ``c_t ≤ 0``… with the paper's sign
convention (coefficients enter as given, no global minus) — while mixed
Z·X terms have state-dependent signs and are generally non-stoquastic.
``check_stoquastic()`` verifies the condition exactly by row enumeration of
the sign patterns; VQMC with a non-negative ansatz is only variationally
meaningful when it passes (the constructor warns otherwise unless told not
to).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.hamiltonians.base import Hamiltonian, bits_to_spins

__all__ = ["PauliTerm", "PauliStringHamiltonian"]


@dataclass(frozen=True)
class PauliTerm:
    """One ``c · Π Z_i Π X_j`` term; ``z_sites`` / ``x_sites`` are disjoint
    tuples of site indices."""

    coefficient: float
    z_sites: tuple[int, ...] = ()
    x_sites: tuple[int, ...] = ()

    def __post_init__(self):
        if set(self.z_sites) & set(self.x_sites):
            raise ValueError(
                f"Z and X factors overlap on sites "
                f"{sorted(set(self.z_sites) & set(self.x_sites))} — that is a "
                "Y operator (complex), which is not supported"
            )
        if len(set(self.z_sites)) != len(self.z_sites):
            raise ValueError(f"duplicate Z sites in {self.z_sites}")
        if len(set(self.x_sites)) != len(self.x_sites):
            raise ValueError(f"duplicate X sites in {self.x_sites}")

    @property
    def is_diagonal(self) -> bool:
        return not self.x_sites

    @staticmethod
    def parse(spec: str, coefficient: float) -> "PauliTerm":
        """Parse ``"Z0 Z3 X5"``-style strings."""
        z, x = [], []
        for token in spec.split():
            kind, idx = token[0].upper(), int(token[1:])
            if kind == "Z":
                z.append(idx)
            elif kind == "X":
                x.append(idx)
            else:
                raise ValueError(f"unsupported Pauli factor {token!r} (Z/X only)")
        return PauliTerm(coefficient, tuple(z), tuple(x))


class PauliStringHamiltonian(Hamiltonian):
    """Sum of Z/X Pauli strings with real coefficients.

    Parameters
    ----------
    n:
        Number of sites.
    terms:
        Iterable of :class:`PauliTerm` (or ``(spec, coefficient)`` string
        pairs accepted by :meth:`PauliTerm.parse`).
    check:
        Verify stoquasticity at construction and warn if violated.
    """

    def __init__(self, n: int, terms, check: bool = True):
        super().__init__(n)
        parsed: list[PauliTerm] = []
        for term in terms:
            if isinstance(term, PauliTerm):
                parsed.append(term)
            else:
                spec, coeff = term
                parsed.append(PauliTerm.parse(spec, coeff))
        for t in parsed:
            sites = t.z_sites + t.x_sites
            if sites and (min(sites) < 0 or max(sites) >= n):
                raise ValueError(f"term {t} references sites outside [0, {n})")
        self.terms = tuple(parsed)
        self.diag_terms = tuple(t for t in self.terms if t.is_diagonal)
        self.offdiag_terms = tuple(t for t in self.terms if not t.is_diagonal)
        if check and not self.is_stoquastic():
            warnings.warn(
                "Hamiltonian is not stoquastic: its ground state may not be "
                "expressible with a non-negative wavefunction, so VQMC with "
                "ψ = sqrt(π) is only an upper-bound heuristic.",
                stacklevel=2,
            )

    @property
    def sparsity(self) -> int:
        return len(self.offdiag_terms)

    def single_flips(self):
        """Structured single-flip rows when every off-diagonal term is a bare
        single-site X (no Z factors — those make amplitudes state-dependent).
        Coefficients of repeated sites merge; returns ``None`` otherwise.
        Built at the first call and kept: the terms are fixed."""
        return self._single_flips

    @cached_property
    def _single_flips(self):
        from repro.hamiltonians.base import SingleFlipRows

        amplitudes: dict[int, float] = {}
        for term in self.offdiag_terms:
            if term.z_sites or len(term.x_sites) != 1:
                return None
            site = term.x_sites[0]
            amplitudes[site] = amplitudes.get(site, 0.0) + term.coefficient
        sites = np.array(sorted(amplitudes), dtype=np.int64)
        return SingleFlipRows(
            sites=sites,
            amplitudes=np.array([amplitudes[s] for s in sites]),
        )

    # -- matrix elements ------------------------------------------------------------

    @staticmethod
    def _z_sign(term: PauliTerm, x: np.ndarray) -> np.ndarray:
        if not term.z_sites:
            return np.ones(x.shape[0])
        z = bits_to_spins(x[:, list(term.z_sites)])
        return z.prod(axis=1)

    def diagonal(self, x: np.ndarray) -> np.ndarray:
        x = self._check_batch(x)
        out = np.zeros(x.shape[0])
        for term in self.diag_terms:
            out += term.coefficient * self._z_sign(term, x)
        return out

    def connected(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = self._check_batch(x)
        bsz = x.shape[0]
        k = len(self.offdiag_terms)
        if k == 0:
            return np.zeros((bsz, 0, self.n)), np.zeros((bsz, 0))
        nbrs = np.broadcast_to(x[:, None, :], (bsz, k, self.n)).copy()
        amps = np.empty((bsz, k))
        for idx, term in enumerate(self.offdiag_terms):
            cols = list(term.x_sites)
            nbrs[:, idx, cols] = 1.0 - nbrs[:, idx, cols]
            # ⟨y|Z-part X-part|x⟩: the Z factors act on |x⟩ first (they are
            # written to the left of X in our convention H[x,y] = c·sign(x)…
            # either convention gives a symmetric matrix because the Z and X
            # site sets are disjoint, so sign(x) = sign(y).
            amps[:, idx] = term.coefficient * self._z_sign(term, x)
        return nbrs, amps

    # -- stoquasticity --------------------------------------------------------------

    def is_stoquastic(self) -> bool:
        """Exact check that every off-diagonal entry is ≤ 0.

        Entries for the same flip mask add up, so we group off-diagonal
        terms by their X-site set and check the worst case of the summed
        signed coefficients over all Z-sign patterns (2^{#distinct z sites}
        combinations per group — cheap for physical term counts).
        """
        groups: dict[tuple[int, ...], list[PauliTerm]] = {}
        for term in self.offdiag_terms:
            groups.setdefault(tuple(sorted(term.x_sites)), []).append(term)
        for terms in groups.values():
            z_union = sorted({s for t in terms for s in t.z_sites})
            for signs in itertools.product((1.0, -1.0), repeat=len(z_union)):
                sign_of = dict(zip(z_union, signs))
                total = 0.0
                for t in terms:
                    s = 1.0
                    for site in t.z_sites:
                        s *= sign_of[site]
                    total += t.coefficient * s
                if total > 1e-12:
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"PauliStringHamiltonian(n={self.n}, terms={len(self.terms)}, "
            f"offdiag={len(self.offdiag_terms)})"
        )
