"""A shim over :func:`repro.core.energy.per_sample_grads`, kept for one
caller: the step-profile benchmark's frozen mirror
(``benchmarks/step_profile/workloads.py::layer_step``) still spells the
removed compiled-plan API. Every call runs the model's closed form on the
batch's distinct rows; nothing is traced or cached. The shim goes when
ROADMAP "Measure the program" deletes ``layer_step``.
"""

from __future__ import annotations

from repro.core.energy import per_sample_grads

__all__ = ["StepCompiler"]


class _Plan:
    """``forward`` / ``gradient`` / ``per_sample`` of one model."""

    def __init__(self, model):
        self.model = model
        self._o = None  # O of the last forward()

    def forward(self, x):
        """``log ψ(x)``; the O matrix is kept for :meth:`gradient`."""
        log_psi, self._o, _ = per_sample_grads(self.model, x)
        return log_psi

    def gradient(self, seed):
        """``seed @ O`` of the last :meth:`forward`: the flat gradient of
        ``(log_psi * seed).sum()``."""
        return seed @ self._o

    def per_sample(self, x):
        """``(log ψ(x), O)``."""
        return per_sample_grads(self.model, x)[:2]


class StepCompiler:
    """Hands out the one plan of ``model`` for any batch."""

    def __init__(self, model):
        self._plan = _Plan(model)

    def plan_for(self, x):
        return self._plan

    def per_sample_plan(self, x):
        return self._plan
