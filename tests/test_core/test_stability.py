"""Numerical-stability guards: ratio clipping and the divergence skip."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import VQMC
from repro.core.energy import MAX_LOG_RATIO, local_energies, local_energy_path
from repro.hamiltonians import TransverseFieldIsing
from repro.models import RBM, MADE
from repro.optim import SGD
from repro.samplers import MetropolisSampler, AutoregressiveSampler


class TestRatioClipping:
    def test_collapsed_rbm_gives_finite_local_energies(self, small_tim):
        """An RBM with huge couplings produces astronomically large amplitude
        ratios; the clip must keep local energies finite."""
        rbm = RBM(6, rng=np.random.default_rng(0))
        rbm.fc.weight.data[...] = 500.0  # pathological
        x = np.zeros((4, 6))
        x[:, 0] = 1.0
        local = local_energies(rbm, small_tim, x)
        assert np.all(np.isfinite(local))
        assert np.all(np.abs(local) < np.exp(MAX_LOG_RATIO) * 100)

    @pytest.mark.parametrize("layers", ["output", "all"])
    def test_collapsed_made_gives_finite_local_energies_on_the_fused_path(
        self, small_tim, layers
    ):
        """The MADE twin of the RBM case: the fused flip kernel, not the dense
        path, measures a MADE. Output weights of ±500 saturate every logit
        (|z| to 1.8e3, the kernel's odds on their floor) and make the ratios
        astronomically large; a flip still moves a logit by < 709, so the
        kernel is inside its contract and must equal the dense path after the
        clip. With EVERY layer at ±500 single logits move by 1e5, ``e^{−δ}``
        itself overflows and the kernel may answer ±inf where the dense path
        is finite (docs/performance.md, "numerical contract"): still finite
        after the clip, still warning-free."""
        made = MADE(6, hidden=8, rng=np.random.default_rng(0))
        signs = np.random.default_rng(0)
        for layer in made.fc_layers if layers == "all" else made.fc_layers[-1:]:
            layer.weight.data[...] = 500.0 * signs.choice([-1.0, 1.0], layer.weight.shape)
        assert local_energy_path(made, small_tim) == "fused"
        x = (np.random.default_rng(3).random((16, 6)) < 0.5).astype(float)
        x[:4] = 0.0
        x[:4, 0] = 1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            local = local_energies(made, small_tim, x)
        assert np.all(np.isfinite(local))
        assert np.abs(local).max() > 1e30  # the clip is what kept them finite
        assert np.all(np.abs(local) < np.exp(MAX_LOG_RATIO) * 100)
        if layers == "output":
            dense = local_energies(made, small_tim, x, fast=False)
            assert np.allclose(local, dense, rtol=1e-9, atol=0.0)

    def test_clip_inactive_for_normal_models(self, small_tim, rng):
        """For a healthy model the clip must not alter the exact values."""
        model = MADE(6, hidden=8, rng=rng)
        states = np.asarray(
            ((np.arange(64)[:, None] >> np.arange(5, -1, -1)) & 1), dtype=float
        )
        mat = small_tim.to_dense()
        from repro.tensor.tensor import no_grad

        with no_grad():
            psi = np.exp(model.log_psi(states).data)
        expect = (mat @ psi) / psi
        assert np.allclose(local_energies(model, small_tim, states), expect)


class TestDivergenceGuard:
    def test_nonfinite_gradient_skips_update(self, small_tim, rng):
        model = MADE(6, hidden=8, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(),
            SGD(model.parameters(), lr=0.1), seed=1,
        )
        before = model.flat_parameters()

        # Monkeypatch the gradient path to return NaN once.
        original = model.grads_and_activations

        def poisoned(x):
            lp, o, forward = original(x)
            o = np.array(o)  # the dense matrix: a plain array O is accepted too
            o[0, 0] = np.nan
            return lp, o, forward

        model.grads_and_activations = poisoned
        vqmc.step(batch_size=16)
        assert np.array_equal(model.flat_parameters(), before)
        assert vqmc.diverged_steps == 1

    def test_unstable_rbm_training_stays_finite(self):
        """The Table-2 failure case: RBM+MCMC+SGD on a dense disordered TIM.
        Training may fail to converge (it does for the paper too at scale)
        but must never produce non-finite parameters."""
        tim = TransverseFieldIsing.random(30, seed=30)
        model = RBM(30, rng=np.random.default_rng(0))
        vqmc = VQMC(
            model, tim, MetropolisSampler(n_chains=2),
            SGD(model.parameters(), lr=0.1), seed=2,
        )
        vqmc.run(30, batch_size=64)
        assert np.all(np.isfinite(model.flat_parameters()))
