"""Annealing schedules, gradient clipping, MCMC proposals."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import VQMC, History
from repro.core.annealing import AnnealingCallback, AnnealingSchedule, transverse_driver
from repro.core.vqmc import VQMCConfig
from repro.exact import brute_force_max_cut, ground_state
from repro.hamiltonians import MaxCut
from repro.models import MADE
from repro.optim import Adam, SGD
from repro.samplers import AutoregressiveSampler, MetropolisSampler


class TestAnnealingSchedule:
    def test_endpoints(self, small_maxcut):
        sched = AnnealingSchedule(small_maxcut, total_steps=100)
        h0 = sched.hamiltonian(0)
        h1 = sched.hamiltonian(100)
        assert np.allclose(h0.alpha, 1.0)  # pure driver at s=0
        assert np.allclose(h0.couplings, 0.0)
        assert np.allclose(h1.alpha, small_maxcut.alpha)
        assert np.allclose(h1.couplings, small_maxcut.couplings)
        assert h1.offset == small_maxcut.offset

    def test_s_monotone_and_clamped(self, small_maxcut):
        sched = AnnealingSchedule(small_maxcut, total_steps=50, power=2.0)
        ss = [sched.s(t) for t in range(0, 120, 10)]
        assert all(b >= a for a, b in zip(ss, ss[1:]))
        assert sched.s(200) == 1.0

    def test_driver_ground_state_is_uniform(self):
        driver = transverse_driver(5)
        gs = ground_state(driver)
        probs = gs.probabilities
        assert np.allclose(probs, 1 / 32, atol=1e-9)
        assert gs.energy == pytest.approx(-5.0)

    def test_validation(self, small_maxcut):
        with pytest.raises(ValueError):
            AnnealingSchedule(small_maxcut, total_steps=0)
        with pytest.raises(ValueError):
            AnnealingSchedule(small_maxcut, total_steps=10, power=0.0)
        with pytest.raises(ValueError):
            AnnealingSchedule(
                small_maxcut, total_steps=10, driver=transverse_driver(3)
            )

    def test_annealed_training_solves_maxcut(self, rng):
        ham = MaxCut.random(10, seed=3)
        opt_cut, _ = brute_force_max_cut(ham.adjacency)
        sched = AnnealingSchedule(ham, total_steps=80)
        model = MADE(10, hidden=16, rng=rng)
        vqmc = VQMC(
            model, sched.hamiltonian(0), AutoregressiveSampler(),
            Adam(model.parameters(), lr=0.05), seed=1,
        )
        vqmc.run(160, batch_size=256, callbacks=[AnnealingCallback(vqmc, sched)])
        # After the ramp the trainer must be on the true target.
        assert vqmc.hamiltonian.offset == ham.offset
        x = AutoregressiveSampler().sample(model, 512, np.random.default_rng(0))
        assert ham.cut_value(x).max() >= opt_cut - 1e-9


class TestGradClipping:
    def test_clipped_norm_respected(self, small_tim, rng):
        model = MADE(6, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(),
            SGD(model.parameters(), lr=0.1), seed=1,
            config=VQMCConfig(max_grad_norm=0.01),
        )
        result = vqmc.step(batch_size=128)
        assert result.grad_norm <= 0.01 + 1e-12

    def test_small_gradients_untouched(self, small_tim, rng):
        def final_params(clip):
            model = MADE(6, rng=np.random.default_rng(3))
            vqmc = VQMC(
                model, small_tim, AutoregressiveSampler(),
                SGD(model.parameters(), lr=0.1), seed=1,
                config=VQMCConfig(max_grad_norm=clip),
            )
            vqmc.step(batch_size=128)
            return model.flat_parameters()

        assert np.allclose(final_params(1e9), final_params(None))

    def test_validation(self):
        with pytest.raises(ValueError):
            VQMCConfig(max_grad_norm=0.0)


class TestProposalVariants:
    def test_multi_flip_changes_up_to_k_bits(self, rng):
        from repro.models import RBM

        model = RBM(10, rng=rng, init_std=0.1)
        sampler = MetropolisSampler(
            n_chains=4, burn_in=0, proposal="multi_flip", flips=3
        )
        sampler.persistent = True
        x1 = sampler.sample(model, 4, rng)
        assert x1.shape == (4, 10)

    def test_exchange_preserves_magnetisation(self, rng):
        from repro.models import RBM

        model = RBM(10, rng=rng, init_std=0.1)
        sampler = MetropolisSampler(
            n_chains=3, burn_in=50, proposal="exchange", persistent=True
        )
        x1 = sampler.sample(model, 3, rng)
        counts1 = x1.sum(axis=1)
        x2 = sampler.sample(model, 3, rng)
        counts2 = x2.sum(axis=1)
        # Exchange moves conserve the number of 1-bits per chain.
        assert np.array_equal(np.sort(counts1), np.sort(counts2))

    def test_multi_flip_still_samples_correctly(self, rng):
        from repro.models import RBM
        from repro.samplers.diagnostics import total_variation_distance

        model = RBM(4, hidden=3, rng=rng, init_std=0.4)
        sampler = MetropolisSampler(
            n_chains=4, burn_in=300, proposal="multi_flip", flips=2
        )
        x = sampler.sample(model, 20000, rng)
        codes = (x @ (2 ** np.arange(3, -1, -1))).astype(int)
        tv = total_variation_distance(codes, model.exact_distribution())
        assert tv < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            MetropolisSampler(proposal="teleport")
        with pytest.raises(ValueError):
            MetropolisSampler(proposal="multi_flip", flips=0)
