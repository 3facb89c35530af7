"""ZZX Hamiltonian family: matrix elements must match an independent Pauli
construction (Eq. 11 ⇔ Eq. 13)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hamiltonians import TransverseFieldIsing, ZZXHamiltonian
from repro.hamiltonians.base import (
    bits_to_index,
    bits_to_spins,
    index_to_bits,
    quadratic_form,
)


def pauli_matrix(alpha, beta, couplings):
    """Independent dense construction of Eq. 11 via Kronecker products."""
    n = len(alpha)
    I = np.eye(2)
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    Z = np.array([[1.0, 0.0], [0.0, -1.0]])

    def kron_at(op, i):
        mats = [I] * n
        mats[i] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    H = np.zeros((2**n, 2**n))
    for i in range(n):
        H -= alpha[i] * kron_at(X, i) + beta[i] * kron_at(Z, i)
    for i in range(n):
        for j in range(i + 1, n):
            H -= couplings[i, j] * (kron_at(Z, i) @ kron_at(Z, j))
    return H


class TestAgainstPauliConstruction:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_matches_kron(self, seed):
        ham = TransverseFieldIsing.random(5, seed=seed)
        ours = ham.to_dense()
        ref = pauli_matrix(ham.alpha, ham.beta, ham.couplings)
        assert np.allclose(ours, ref, atol=1e-12)

    def test_sparse_matches_dense(self):
        ham = TransverseFieldIsing.random(6, seed=3)
        assert np.allclose(ham.to_sparse().toarray(), ham.to_dense())

    def test_symmetric(self):
        mat = TransverseFieldIsing.random(6, seed=4).to_dense()
        assert np.allclose(mat, mat.T)

    def test_offdiagonal_nonpositive(self):
        """Perron–Frobenius condition: all off-diagonal entries ≤ 0."""
        mat = TransverseFieldIsing.random(5, seed=5).to_dense()
        off = mat - np.diag(np.diag(mat))
        assert np.all(off <= 1e-15)


class TestRowInterface:
    def test_sparsity_counts_nonzero_alpha(self):
        ham = ZZXHamiltonian(
            alpha=np.array([1.0, 0.0, 2.0]),
            beta=np.zeros(3),
            couplings=np.zeros((3, 3)),
        )
        assert ham.sparsity == 2

    def test_connected_flips_one_bit(self, rng):
        ham = TransverseFieldIsing.random(6, seed=1)
        x = (rng.random((4, 6)) < 0.5).astype(float)
        nbrs, amps = ham.connected(x)
        assert nbrs.shape == (4, 6, 6)
        diffs = (nbrs != x[:, None, :]).sum(axis=2)
        assert np.all(diffs == 1)
        assert np.allclose(amps, -ham.alpha)

    def test_diagonal_matches_dense(self, rng):
        ham = TransverseFieldIsing.random(5, seed=2)
        mat = ham.to_dense()
        states = index_to_bits(np.arange(32), 5)
        assert np.allclose(ham.diagonal(states), np.diag(mat))

    def test_validation_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            ZZXHamiltonian(np.array([-1.0]), np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            ZZXHamiltonian(np.ones(2), np.zeros(3), np.zeros((2, 2)))
        asym = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError):
            ZZXHamiltonian(np.ones(2), np.zeros(2), asym)
        diag = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ZZXHamiltonian(np.ones(2), np.zeros(2), diag)


class TestConventions:
    def test_bit_zero_is_spin_up(self):
        assert bits_to_spins(np.array([0.0]))[0] == 1.0

    def test_index_bits_roundtrip(self):
        idx = np.arange(16)
        assert np.array_equal(bits_to_index(index_to_bits(idx, 4)), idx)

    def test_big_endian(self):
        bits = index_to_bits(np.array([4]), 3)  # 100
        assert np.array_equal(bits[0], [1.0, 0.0, 0.0])


class TestDisorder:
    def test_distributions(self):
        ham = TransverseFieldIsing.random(200, seed=8)
        assert ham.alpha.min() >= 0.0 and ham.alpha.max() <= 1.0
        assert ham.beta.min() >= -1.0 and ham.beta.max() <= 1.0
        upper = ham.couplings[np.triu_indices(200, 1)]
        assert abs(upper.mean()) < 0.05  # U(-1,1) mean ≈ 0

    def test_reproducible_by_seed(self):
        a = TransverseFieldIsing.random(10, seed=5)
        b = TransverseFieldIsing.random(10, seed=5)
        assert np.array_equal(a.alpha, b.alpha)
        assert np.array_equal(a.couplings, b.couplings)


class TestQuadraticForm:
    """``quadratic_form`` (GEMM + row dot) against the three-operand einsum
    it replaced, at the helper and at each of its four call sites."""

    EINSUM = "bi,ij,bj->b"

    @staticmethod
    def _close(got, want):
        return np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("n,batch", [(1, 1), (7, 5), (64, 33), (256, 8)])
    def test_helper_matches_einsum(self, n, batch):
        rng = np.random.default_rng(n)
        z = rng.choice([-1.0, 1.0], size=(batch, n))
        m = rng.normal(size=(n, n))  # not symmetric: the helper must not assume it
        got = quadratic_form(z, m)
        assert got.shape == (batch,)
        assert self._close(got, np.einsum(self.EINSUM, z, m, z))

    def test_call_sites_match_einsum(self):
        from repro.exact.brute_force import brute_force_max_cut
        from repro.hamiltonians import IsingQUBO, MaxCut

        rng = np.random.default_rng(3)
        n = 12
        x = (rng.random((40, n)) < 0.5).astype(np.float64)
        z = bits_to_spins(x)

        tim = TransverseFieldIsing.random(n, seed=4)
        pair = 0.5 * np.einsum(self.EINSUM, z, tim.couplings, z)
        assert self._close(tim.diagonal(x), -(z @ tim.beta) - pair + tim.offset)

        cut = MaxCut.random(n, seed=5)
        agree = np.einsum(self.EINSUM, z, cut.adjacency, z)
        want = 0.5 * (cut.total_weight - 0.5 * agree)
        assert self._close(cut.cut_value(x), want)
        states = index_to_bits(np.arange(2**n), n)
        all_cuts = 0.5 * (
            cut.total_weight
            - 0.5 * np.einsum(self.EINSUM, 1 - 2 * states, cut.adjacency, 1 - 2 * states)
        )
        assert brute_force_max_cut(cut.adjacency)[0] == pytest.approx(
            all_cuts.max(), rel=1e-12
        )

        q_mat, q_vec = rng.normal(size=(n, n)), rng.normal(size=n)
        qubo = IsingQUBO(q_mat, q_vec, const=0.5)
        want = np.einsum(self.EINSUM, x, qubo.Q, x) + x @ qubo.q + qubo.const
        assert self._close(qubo.objective(x), want)
