"""Tier-1 perf smoke tests (fast; part of the ``-m "not slow"`` tier).

Guards the dispatch invariants the perf layer promises:

- MADE + AutoregressiveSampler takes the incremental path by default,
  with no warning;
- ``local_energies`` reuses a precomputed ``log ψ(x)`` instead of
  re-evaluating it, and the VQMC driver exploits that (one amplitude
  evaluation of ``x`` per step, not two).
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import VQMC
from repro.core.energy import local_energies
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.optim import Adam
from repro.samplers import AutoregressiveSampler
from repro.tensor.tensor import no_grad


class TestIncrementalIsDefault:
    def test_made_uses_incremental_without_warnings(self, rng):
        model = MADE(12, rng=rng)
        sampler = AutoregressiveSampler()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any warning → failure
            sampler.sample(model, 64, rng)
        stats = sampler.last_stats
        assert stats.extras["fast_path"] == "incremental"
        assert stats.forward_pass_equivalents < model.n / 2

    def test_vqmc_training_step_runs_on_fast_paths(self, rng):
        """End-to-end: one training step, incremental sampling + fused
        measurement, with no warnings."""
        n = 10
        model = MADE(n, rng=rng)
        ham = TransverseFieldIsing.random(n, seed=3)
        vqmc = VQMC(model, ham, AutoregressiveSampler(), Adam(model.parameters()),
                    seed=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = vqmc.step(batch_size=64)
        assert np.isfinite(result.stats.mean)
        assert vqmc.sampler.last_stats.extras["fast_path"] == "incremental"


class TestLogPsiReuse:
    def test_local_energies_accepts_precomputed_log_psi(self, small_tim, rng):
        model = MADE(6, rng=rng)
        x = (rng.random((10, 6)) < 0.5).astype(float)
        with no_grad():
            lp = model.log_psi(x).data
        base = local_energies(model, small_tim, x)
        given = local_energies(model, small_tim, x, log_psi_x=lp)
        assert np.allclose(base, given, atol=1e-12)

    def test_precomputed_log_psi_skips_model_eval(self, small_tim, rng):
        """On the dense path, passing log_psi_x must drop the ψ(x) forward
        pass (neighbours still need one)."""
        from repro.models import RBM

        model = RBM(6, rng=rng, init_std=0.1)
        x = np.eye(6)[:4]  # distinct rows: a repeat would be evaluated once
        with no_grad():
            lp = model.log_psi(x).data
        calls = []
        original = model.log_psi

        def counting(batch):
            calls.append(np.asarray(batch).shape[0])
            return original(batch)

        model.log_psi = counting
        local_energies(model, small_tim, x, log_psi_x=lp)
        # Only the (B·K)-row neighbour evaluation remains.
        assert calls == [4 * small_tim.sparsity]

    def test_bad_log_psi_shape_rejected(self, small_tim, rng):
        model = MADE(6, rng=rng)
        x = np.zeros((3, 6))
        with pytest.raises(ValueError):
            local_energies(model, small_tim, x, log_psi_x=np.zeros(5))

    def test_vqmc_evaluates_amplitudes_once_per_step(self, rng):
        """The driver passes the gradient path's forward into the energy
        estimator: the closed form (`model.grads_and_activations`) runs
        exactly once, on the batch's distinct rows, and `model.log_psi` not
        at all."""
        n = 6
        model = MADE(n, rng=rng)
        ham = TransverseFieldIsing.random(n, seed=1)
        vqmc = VQMC(
            model, ham, AutoregressiveSampler(), Adam(model.parameters()), seed=2
        )
        calls = []
        closed_form, log_psi = model.grads_and_activations, model.log_psi

        def counting(batch):
            calls.append(np.asarray(batch).shape[0])
            return closed_form(batch)

        def forbidden(batch):
            raise AssertionError("the step evaluated log_psi")

        model.grads_and_activations, model.log_psi = counting, forbidden
        result = vqmc.step(batch_size=32)
        assert calls == [result.distinct_rows]
