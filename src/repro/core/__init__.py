"""The VQMC training engine (the paper's primary contribution).

- :mod:`repro.core.energy` — local-energy evaluation (Eq. 3), the
  per-sample log-derivatives every step's gradient comes from
  (``per_sample_grads``), and the two reference gradient estimators
  (autograd surrogate and per-sample covariance form of Eq. 5).
- :mod:`repro.core.vqmc` — the alternating sample/optimise driver, with
  optional stochastic reconfiguration and optional data parallelism.
- :mod:`repro.core.callbacks` — history recording, hitting-time early stop,
  wall-clock accounting.
"""

from repro.core.energy import (
    EnergyStats,
    energy_statistics,
    local_energies,
    per_sample_grads,
)
from repro.core.vqmc import VQMC, VQMCConfig, StepResult, StepDriver
from repro.core.callbacks import (
    Callback,
    History,
    HittingTime,
    ProgressPrinter,
    StopTraining,
)
from repro.core.checkpoint import (
    CheckpointCallback,
    CheckpointCorruptError,
    CheckpointFormatError,
    load_checkpoint,
    restore_elastic,
    save_checkpoint,
    verify_checkpoint,
)
from repro.core.gradient_stats import GradientNoise, gradient_noise

__all__ = [
    "EnergyStats",
    "local_energies",
    "energy_statistics",
    "per_sample_grads",
    "VQMC",
    "VQMCConfig",
    "StepResult",
    "StepDriver",
    "Callback",
    "History",
    "HittingTime",
    "ProgressPrinter",
    "StopTraining",
    "CheckpointCallback",
    "CheckpointCorruptError",
    "CheckpointFormatError",
    "save_checkpoint",
    "load_checkpoint",
    "verify_checkpoint",
    "restore_elastic",
    "GradientNoise",
    "gradient_noise",
]
