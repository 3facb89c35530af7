"""Sampler interface."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.models.base import WaveFunction
from repro.utils.rows import DistinctRows, distinct_rows

__all__ = ["Sampler", "SamplerStats"]


@dataclass
class SamplerStats:
    """Bookkeeping from the most recent :meth:`Sampler.sample` call.

    ``forward_passes`` counts network evaluations, the quantity the paper's
    Figure 1 compares (``k + bs/c`` for MCMC vs ``n`` for AUTO); it is what
    the cluster cost model consumes.

    ``forward_pass_equivalents`` is the *true* cost in units of one batched
    forward pass, measured from the operations actually performed. Samplers
    that run whole passes leave it ``None`` (it then equals
    ``forward_passes``); the incremental autoregressive kernel reports a
    fractional value well below ``n`` — see ``docs/performance.md``.
    """

    forward_passes: int = 0
    proposals: int = 0
    accepted: int = 0
    forward_pass_equivalents: float | None = None
    extras: dict = field(default_factory=dict)

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposals if self.proposals else float("nan")

    @property
    def pass_equivalents(self) -> float:
        """Measured cost in forward-pass units, falling back to the count."""
        if self.forward_pass_equivalents is not None:
            return self.forward_pass_equivalents
        return float(self.forward_passes)


class Sampler:
    """Base class: draws a batch of configurations from ``πθ ∝ ψθ²``."""

    #: whether the samples are exact draws from πθ (True) or asymptotic (False)
    exact: bool = False

    def sample(
        self, model: WaveFunction, batch_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Return an ``(batch_size, n)`` array of configurations."""
        raise NotImplementedError

    def draw(
        self, model: WaveFunction, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, DistinctRows]:
        """``(x, distinct_rows(x == 1))``: a batch and its distinct rows.

        ``VQMC.step`` draws through this alone and evaluates every per-row
        quantity on the grouping. The default groups :meth:`sample`'s
        output; a sampler that knows which of its rows are copies overrides
        it to group without hashing them."""
        x = self.sample(model, batch_size, rng)
        return x, distinct_rows(x == 1.0)

    @property
    def last_stats(self) -> SamplerStats:
        return getattr(self, "_stats", SamplerStats())
