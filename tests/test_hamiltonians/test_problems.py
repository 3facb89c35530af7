"""Combinatorial problem library: encodings verified against brute force."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.exact import brute_force_ground_state
from repro.hamiltonians import (
    max_independent_set,
    number_partitioning,
    sherrington_kirkpatrick,
)
from tests.conftest import enumerate_states


class TestSherringtonKirkpatrick:
    def test_purely_diagonal_symmetric(self):
        ham = sherrington_kirkpatrick(10, seed=1)
        assert ham.sparsity == 0
        assert np.allclose(ham.couplings, ham.couplings.T)

    def test_energy_scale(self):
        """Ground energy per spin approaches the Parisi constant ≈ -0.763;
        at n=14 finite-size effects leave it in [-1.0, -0.5]."""
        ham = sherrington_kirkpatrick(14, seed=3)
        e, _ = brute_force_ground_state(ham)
        assert -1.0 < e / 14 < -0.5

    def test_reproducible(self):
        a = sherrington_kirkpatrick(8, seed=5)
        b = sherrington_kirkpatrick(8, seed=5)
        assert np.array_equal(a.couplings, b.couplings)


class TestNumberPartitioning:
    def test_perfect_partition_reaches_zero(self):
        weights = np.array([3.0, 1.0, 1.0, 2.0, 2.0, 1.0])  # 5 vs 5
        ham = number_partitioning(weights)
        e, bits = brute_force_ground_state(ham)
        assert e == pytest.approx(0.0, abs=1e-9)
        diff = weights[bits == 1].sum() - weights[bits == 0].sum()
        assert diff == pytest.approx(0.0)

    def test_objective_is_squared_residual(self, rng):
        weights = rng.uniform(1, 10, size=7)
        ham = number_partitioning(weights)
        states = enumerate_states(7)
        signed = (1.0 - 2.0 * states) @ weights
        assert np.allclose(ham.diagonal(states), signed**2, atol=1e-8)

    def test_odd_total_cannot_be_zero(self):
        ham = number_partitioning(np.array([1.0, 1.0, 1.0]))
        e, _ = brute_force_ground_state(ham)
        assert e == pytest.approx(1.0)  # best diff = 1 → residual 1

    def test_validation(self):
        with pytest.raises(ValueError):
            number_partitioning(np.array([1.0]))


class TestMaxIndependentSet:
    def test_cycle_graph(self):
        g = nx.cycle_graph(7)
        ham = max_independent_set(g)
        e, bits = brute_force_ground_state(ham)
        assert -e == 3  # MIS of C7 is 3
        # Solution must actually be independent.
        chosen = [v for v in range(7) if bits[v] == 1.0]
        assert not any(g.has_edge(u, v) for u in chosen for v in chosen if u != v)

    def test_complete_graph(self):
        ham = max_independent_set(nx.complete_graph(6))
        e, _ = brute_force_ground_state(ham)
        assert -e == 1

    def test_matches_networkx_on_random_graphs(self):
        for seed in range(3):
            g = nx.gnp_random_graph(10, 0.4, seed=seed)
            ham = max_independent_set(g)
            e, _ = brute_force_ground_state(ham)
            # networkx exact complement-clique route:
            best = max(
                len(c) for c in nx.find_cliques(nx.complement(g))
            ) if g.number_of_nodes() else 0
            assert -e == best

    def test_penalty_validation(self):
        with pytest.raises(ValueError):
            max_independent_set(nx.path_graph(3), penalty=1.0)
        with pytest.raises(ValueError):
            max_independent_set(nx.Graph())
