"""Riemannian optimisation substrate (a small Manopt equivalent).

The paper's Burer–Monteiro baseline solves the Max-Cut SDP via the
"Riemannian Trust-Region method" on the manifold of unit-norm-column
matrices (the *oblique* manifold). This subpackage provides that manifold
plus that solver: :class:`RiemannianTrustRegion`, with the Steihaug–Toint
truncated-CG subproblem solver (the Manopt/Absil-Baker-Gallivan algorithm
the paper cites).
"""

from repro.manifolds.manifold import ObliqueManifold
from repro.manifolds.problem import ManifoldProblem
from repro.manifolds.trust_region import RiemannianTrustRegion
from repro.manifolds.result import OptimizeResult

__all__ = [
    "ObliqueManifold",
    "ManifoldProblem",
    "RiemannianTrustRegion",
    "OptimizeResult",
]
