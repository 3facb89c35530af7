"""Exact autoregressive sampling (paper Algorithm 1, batched).

Two execution paths produce identical samples from identical RNG streams:

- **incremental** (default for MADE): the :mod:`repro.perf.incremental`
  kernel computes the units the masks prove final from per-block GEMMs
  and solves each run of sites by fixed-point sweeps — O(n·h) work per
  batch row: *half* a full forward pass for the paper's architecture when
  runs are one site long (large batches), more at small batches, where a
  run's GEMMs repeat once per sweep;
- **naive**: ``model.sample(method='naive')`` — ``n`` full forward passes
  per batch (each pass advances the whole batch one site). This is the
  burn-in-free cost Figure 1 annotates, and remains the path for
  non-MADE normalised models (mean-field, RNN).

Which one runs is decided by the model's type alone: every MADE takes the
kernel (``method='auto'``, the default) unless ``method='naive'`` asks for
the reference, and every other model runs its own ``model.sample``.
``last_stats`` reports both the nominal pass count and the measured
``forward_pass_equivalents`` so cost models see the true price,
``extras['fast_path']`` records which kernel ran, and ``extras['sweeps']``
the kernel's mean sweeps per run.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import WaveFunction
from repro.models.made import MADE
from repro.obs.tracer import NULL_TRACER
from repro.perf.incremental import incremental_sample
from repro.samplers.base import Sampler, SamplerStats

__all__ = ["AutoregressiveSampler"]


class AutoregressiveSampler(Sampler):
    """Draws exact samples from a normalised autoregressive wavefunction.

    Parameters
    ----------
    method:
        ``'auto'`` (default) — the incremental kernel on a MADE, the
        model's own ``sample`` on any other model; ``'naive'`` — force the
        reference full-forward-pass path.
    """

    exact = True

    def __init__(self, method: str = "auto"):
        if method not in ("auto", "naive"):
            raise ValueError(f"unknown sampling method {method!r}")
        self.method = method
        #: span recorder; :class:`repro.core.VQMC` attaches its tracer here
        #: so the path taken shows up nested inside ``sample`` spans
        self.tracer = NULL_TRACER

    def sample(
        self, model: WaveFunction, batch_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        if not model.is_normalized:
            raise TypeError(
                f"{type(model).__name__} is not normalised/autoregressive; "
                "exact sampling requires a MADE-style model (use MetropolisSampler)"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")

        made = isinstance(model, MADE)
        if made and self.method == "auto":
            with self.tracer.span("sample.incremental", batch=batch_size, n=model.n):
                result = incremental_sample(model, batch_size, rng)
            equiv = result.forward_pass_equivalents
            self._stats = SamplerStats(
                forward_passes=int(np.ceil(equiv)),
                forward_pass_equivalents=equiv,
                extras={
                    "fast_path": "incremental",
                    "macs": result.macs,
                    "sweeps": float(np.mean(result.sweeps)),
                },
            )
            return result.samples

        with self.tracer.span("sample.naive", batch=batch_size, n=model.n):
            if made:
                x = model.sample(batch_size, rng, method="naive")
            else:
                x = model.sample(batch_size, rng)
        self._stats = SamplerStats(
            forward_passes=model.n,
            forward_pass_equivalents=float(model.n),
            extras={"fast_path": "naive"},
        )
        return x
