"""Exact solvers for validation.

VQMC results are only meaningful against ground truth; for ``n ≤ 20`` sites
we can compute exact ground states:

- :func:`ground_state` — scipy ``eigsh`` (Lanczos) on the sparse matrix.
- :class:`Lanczos` / :func:`lanczos_ground_state` — our own Lanczos
  implementation with full reorthogonalisation (no black box in the
  validation chain; the two are cross-checked in the tests).
- :func:`brute_force_max_cut` — exhaustive Max-Cut for small graphs (the
  yardstick for the Goemans–Williamson approximation-ratio tests).
"""

from repro.exact.eigensolver import ground_state, ExactResult
from repro.exact.lanczos import Lanczos, lanczos_ground_state
from repro.exact.brute_force import brute_force_max_cut, brute_force_ground_state

__all__ = [
    "ground_state",
    "ExactResult",
    "Lanczos",
    "lanczos_ground_state",
    "brute_force_max_cut",
    "brute_force_ground_state",
]
