"""Fast-path kernels exploiting autoregressive and single-flip structure.

This package holds the kernels every MADE runs — ``AutoregressiveSampler``
and ``local_energies`` pick them by ``isinstance(model, MADE)`` alone, and
each kernel raises ``TypeError`` on any other model:

- :mod:`repro.perf.incremental` — O(n·h) ancestral sampling for MADE:
  per-block GEMMs over the units the masks prove final, and each run of
  sites inside a block solved by fixed-point sweeps (vs the naive O(n²·h)
  of ``n`` full forward passes);
- :mod:`repro.perf.flips` — fused single-flip ``log ψ`` delta kernel: all
  connected-row amplitude ratios from one forward pass, each flip's
  tail a product of Bernoulli odds over the outputs the masks let it move
  (used by ``local_energies`` for Hamiltonians with a structured flip list).

Everything here is exact (same math, same clipping as the naive paths; the
flip kernel to roundoff while no single flip moves a logit by > 709) — see
``docs/performance.md`` for the complexity table and the dispatch rules.
"""

from repro.perf.flips import MADEForwardCache, flip_log_ratios, forward_cache
from repro.perf.incremental import IncrementalSampleResult, incremental_sample

__all__ = [
    "IncrementalSampleResult",
    "MADEForwardCache",
    "flip_log_ratios",
    "forward_cache",
    "incremental_sample",
]
