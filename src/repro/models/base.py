"""The wavefunction interface.

A wavefunction maps bit-string configurations ``x ∈ {0,1}^n`` (batched as an
``(B, n)`` array) to real amplitudes ``ψθ(x)``. Since the paper targets
non-negative ground states (Perron–Frobenius, §2.1), amplitudes are
parameterised in log space: models implement ``log_psi``.

Two capabilities are optional and advertised by flags:

- ``is_normalized`` — ``Σ_x ψ(x)² = 1`` holds by construction (MADE). Such
  models also implement ``log_prob`` and ``conditionals`` and support exact
  autoregressive sampling.
- ``has_per_sample_grads`` — the model provides hand-vectorised per-sample
  log-derivatives ``O_k(x) = ∂ log ψθ(x) / ∂θ_k`` needed by stochastic
  reconfiguration without per-sample backward passes.
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module
from repro.tensor.tensor import Tensor
from repro.utils.rows import DistinctRows, distinct_rows

__all__ = ["WaveFunction", "group_configurations", "validate_configurations"]


def validate_configurations(x: np.ndarray, n: int) -> np.ndarray:
    """Check/coerce a batch of configurations to an ``(B, n)`` float array of {0,1}."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"expected configurations of shape (B, {n}), got {x.shape}")
    if not np.all((x == 0.0) | (x == 1.0)):
        raise ValueError("configurations must be binary (entries in {0, 1})")
    return x


def group_configurations(
    x: np.ndarray, n: int, rows: DistinctRows | None = None
) -> tuple[np.ndarray, DistinctRows]:
    """:func:`validate_configurations` of ``x`` with its distinct rows:
    ``rows`` when the caller has grouped the batch (``distinct_rows(x ==
    1)``), checked against its length, else grouped here by bits — exact
    because the entries are 0/1."""
    x = validate_configurations(x, n)
    if rows is None:
        return x, distinct_rows(x == 1.0)
    if rows.inverse.shape != (len(x),):
        raise ValueError(f"rows group {rows.inverse.size} rows, x has {len(x)}")
    return x, rows


class WaveFunction(Module):
    """Base class for trial wavefunctions over ``{0,1}^n``."""

    is_normalized: bool = False
    has_per_sample_grads: bool = False

    def __init__(self, n: int):
        super().__init__()
        if n < 1:
            raise ValueError(f"need at least one site, got n={n}")
        self.n = n

    # -- required -----------------------------------------------------------------

    def log_psi(self, x: np.ndarray) -> Tensor:
        """Log-amplitude ``log ψθ(x)`` for a batch ``x``: returns shape ``(B,)``."""
        raise NotImplementedError

    # -- optional: normalised models -------------------------------------------------

    def log_prob(self, x: np.ndarray) -> Tensor:
        """``log πθ(x)``; for real non-negative ψ this is ``2 log ψ``."""
        return self.log_psi(x) * 2.0

    def conditionals(self, x: np.ndarray) -> np.ndarray:
        """All autoregressive conditionals ``p(x_i = 1 | x_{<i})`` — (B, n).

        Only meaningful for normalised autoregressive models.
        """
        raise NotImplementedError(f"{type(self).__name__} is not autoregressive")

    # -- optional: per-sample gradients ------------------------------------------------

    def log_psi_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(log ψ(x), O(x))`` with ``O`` of shape ``(B, d)``.

        ``O[b, k] = ∂ log ψθ(x_b) / ∂ θ_k`` with ``k`` indexing parameters in
        ``named_parameters`` flattening order (the same order as
        :meth:`repro.nn.Module.flat_grad`). ``O`` is an array, or — for
        models that are stacks of linear layers — the layers' factors of
        one (:class:`repro.nn.factored.FactoredO`); consumers take
        ``w @ O``, ``O @ v`` and ``O.shape`` from either.
        """
        raise NotImplementedError(f"{type(self).__name__} has no per-sample gradients")
