"""Sparse-row Hamiltonians (Definition 2.1 of the paper).

A Hamiltonian here is a real-symmetric ``2^n × 2^n`` matrix that is never
materialised: rows are produced on demand as (diagonal entry, list of
connected columns + amplitudes). This is exactly the paper's "row-s sparse
and efficiently row computable" interface, and is all the local-energy
estimator (Eq. 3) needs.
"""

from repro.hamiltonians.base import Hamiltonian, bits_to_spins
from repro.hamiltonians.zzx import ZZXHamiltonian
from repro.hamiltonians.ising import TransverseFieldIsing
from repro.hamiltonians.maxcut import MaxCut, bernoulli_adjacency
from repro.hamiltonians.qubo import IsingQUBO
from repro.hamiltonians.lattice import LatticeTFIM, tfim_chain_exact_energy
from repro.hamiltonians.pauli import PauliStringHamiltonian, PauliTerm
from repro.hamiltonians.problems import (
    sherrington_kirkpatrick,
    number_partitioning,
    max_independent_set,
)
from repro.hamiltonians.serialization import (
    from_dict,
    load_instance,
    save_instance,
    to_dict,
)

__all__ = [
    "LatticeTFIM",
    "tfim_chain_exact_energy",
    "PauliStringHamiltonian",
    "PauliTerm",
    "sherrington_kirkpatrick",
    "number_partitioning",
    "max_independent_set",
    "to_dict",
    "from_dict",
    "save_instance",
    "load_instance",
    "Hamiltonian",
    "ZZXHamiltonian",
    "TransverseFieldIsing",
    "MaxCut",
    "IsingQUBO",
    "bernoulli_adjacency",
    "bits_to_spins",
]
