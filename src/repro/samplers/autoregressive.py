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

``last_stats`` reports both the nominal pass count and the measured
``forward_pass_equivalents`` so cost models see the true price,
``extras['fast_path']`` records which kernel ran, and ``extras['sweeps']``
the kernel's mean sweeps per run. A MADE that cannot take the fast path
(``method='auto'``) falls back loudly — ``warnings.warn`` plus
``extras['fallback'] = True``, which ``VQMC.step`` turns into the
``sampler.naive_fallback`` counter — never silently.
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.models.base import WaveFunction
from repro.obs.tracer import NULL_TRACER
from repro.perf.incremental import incremental_sample, supports_incremental
from repro.samplers.base import Sampler, SamplerStats

__all__ = ["AutoregressiveSampler"]


class AutoregressiveSampler(Sampler):
    """Draws exact samples from a normalised autoregressive wavefunction.

    Parameters
    ----------
    method:
        ``'auto'`` (default) — incremental kernel whenever the model
        supports it, warn-and-fall-back otherwise; ``'incremental'`` —
        require the fast path (raises if unsupported); ``'naive'`` — force
        the reference full-forward-pass path.
    """

    exact = True

    def __init__(self, method: str = "auto"):
        if method not in ("auto", "incremental", "naive"):
            raise ValueError(f"unknown sampling method {method!r}")
        self.method = method
        #: span recorder; :class:`repro.core.VQMC` attaches its tracer here
        #: so fast-path vs. fallback shows up nested inside ``sample`` spans
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

        use_fast = self.method in ("auto", "incremental") and supports_incremental(
            model
        )
        if self.method == "incremental" and not use_fast:
            raise TypeError(
                f"method='incremental' requires a MADE-style model, "
                f"got {type(model).__name__}"
            )
        if use_fast:
            try:
                with self.tracer.span(
                    "sample.incremental", batch=batch_size, n=model.n
                ):
                    result = incremental_sample(model, batch_size, rng)
            except NotImplementedError as exc:
                if self.method == "incremental":
                    raise
                warnings.warn(
                    f"incremental sampling unavailable for "
                    f"{type(model).__name__} ({exc}); falling back to the "
                    "naive n-forward-pass sampler",
                    RuntimeWarning,
                    stacklevel=2,
                )
                use_fast = False
        if use_fast:
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

        fallback = self.method == "auto" and _is_made(model)
        if fallback:
            warnings.warn(
                f"{type(model).__name__} looks like a MADE but its layer "
                "stack is not supported by the incremental kernel; falling "
                "back to the naive n-forward-pass sampler",
                RuntimeWarning,
                stacklevel=2,
            )
        with self.tracer.span("sample.naive", batch=batch_size, n=model.n):
            if _is_made(model):
                x = model.sample(batch_size, rng, method="naive")
            else:
                x = model.sample(batch_size, rng)
        self._stats = SamplerStats(
            forward_passes=model.n,
            forward_pass_equivalents=float(model.n),
            extras={"fast_path": "naive", "fallback": fallback},
        )
        return x


def _is_made(model: WaveFunction) -> bool:
    from repro.models.made import MADE

    return isinstance(model, MADE)
