"""Configuration samplers.

- :class:`AutoregressiveSampler` (AUTO) — exact i.i.d. samples from a
  normalised autoregressive wavefunction; ``n`` forward passes per batch
  (Algorithm 1), embarrassingly parallel across samples.
- :class:`MetropolisSampler` (MCMC) — random-walk Metropolis–Hastings over
  ``|ψ|²`` with multiple chains, burn-in and thinning (§2.2, §6.2).
- :mod:`repro.samplers.diagnostics` — autocorrelation time, effective sample
  size, Gelman–Rubin R̂.
"""

from repro.samplers.base import Sampler, SamplerStats
from repro.samplers.autoregressive import AutoregressiveSampler
from repro.samplers.metropolis import MetropolisSampler, default_burn_in
from repro.samplers.tempering import ParallelTemperingSampler, geometric_temperatures
from repro.samplers.enumeration import EnumerationSampler
from repro.samplers import diagnostics

__all__ = [
    "Sampler",
    "SamplerStats",
    "AutoregressiveSampler",
    "MetropolisSampler",
    "ParallelTemperingSampler",
    "geometric_temperatures",
    "EnumerationSampler",
    "default_burn_in",
    "diagnostics",
]
