"""Cluster performance model: calibration accuracy and scaling shapes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    MadeAutoCostModel,
    RbmMcmcCostModel,
    calibrate_to_table1,
)
from repro.cluster.perfmodel import TABLE1_MADE_SECONDS, TABLE1_RBM_SECONDS


@pytest.fixture(scope="module")
def calibrated():
    return calibrate_to_table1()


class TestCalibration:
    def test_made_within_20_percent_of_table1(self, calibrated):
        made, _ = calibrated
        for n, t in TABLE1_MADE_SECONDS.items():
            pred = made.training_time(n, 1024, 300)
            assert abs(pred - t) / t < 0.20, f"n={n}: {pred:.2f} vs {t}"

    def test_rbm_within_10_percent_of_table1(self, calibrated):
        _, rbm = calibrated
        for n, t in TABLE1_RBM_SECONDS.items():
            pred = rbm.training_time(n, 1024, 300)
            assert abs(pred - t) / t < 0.10, f"n={n}: {pred:.2f} vs {t}"

    def test_made_much_faster_than_rbm_everywhere(self, calibrated):
        """Table 1's headline: MADE+AUTO ≫ RBM+MCMC at every size."""
        made, rbm = calibrated
        for n in TABLE1_MADE_SECONDS:
            assert made.training_time(n, 1024) < rbm.training_time(n, 1024) / 5


class TestShapes:
    def test_made_time_roughly_linear_in_n(self, calibrated):
        made, _ = calibrated
        t100 = made.training_time(100, 1024)
        t200 = made.training_time(200, 1024)
        t400 = made.training_time(400, 1024)
        assert 1.5 < t200 / t100 < 3.0
        assert 1.5 < t400 / t200 < 3.0

    def test_mcmc_time_scales_with_chain_length(self, calibrated):
        _, rbm = calibrated
        base = rbm.training_time(100, 1024, burn_in=100)
        long = rbm.training_time(100, 1024, burn_in=1000)
        assert long > base
        # Thinning ×k scales the collection phase ≈ ×k (Table 4's time rows).
        t1 = rbm.sampling_time(100, 1024, thin=1)
        t10 = rbm.sampling_time(100, 1024, thin=10)
        assert 5 < t10 / t1 < 11

    def test_weak_scaling_is_flat(self, calibrated):
        """Fig. 3: normalised times ≈ 1 across GPU configurations."""
        made, _ = calibrated
        configs = [(1, 1), (1, 2), (1, 4), (2, 2), (2, 4), (4, 2), (4, 4), (8, 2), (6, 4)]
        table = made.weak_scaling_table(
            (1000, 2000), {1000: 512, 2000: 128}, configs
        )
        for n, times in table.items():
            values = np.array(list(times.values()))
            norm = values / values[-1]  # normalise by the 6×4 config
            assert np.all(np.abs(norm - 1.0) < 0.05), f"n={n}: {norm}"

    def test_allreduce_negligible_vs_sampling(self, calibrated):
        made, _ = calibrated
        samp = made.sampling_time(1000, 512)
        comm = made.allreduce_time(1000, 6, 4)
        assert comm < samp / 100

    def test_component_times_positive(self):
        model = MadeAutoCostModel()
        assert model.sampling_time(50, 16) > 0
        assert model.measurement_time(50, 16) > 0
        assert model.backward_time(50, 16) > 0
        assert model.allreduce_time(50, 1, 1) == 0.0

    def test_rbm_chain_steps_formula(self):
        model = RbmMcmcCostModel(chains=2)
        assert model.chain_steps(100, 1024) == 3 * 100 + 100 + 512
        assert model.chain_steps(100, 1024, burn_in=50, thin=3) == 50 + 3 * 512


class TestSimulate:
    """The straggler/jitter timeline: the allreduce barrier is a ``max``."""

    model = MadeAutoCostModel()

    def test_matches_closed_form_model(self):
        """Unit speeds and no jitter are ``iteration_time`` itself, not an
        approximation of it."""
        for n, mbs, nodes, gpus in [(200, 64, 2, 4), (1000, 128, 6, 4), (50, 16, 1, 1)]:
            times, arrive = self.model.simulate(
                n, mbs, np.ones((nodes, gpus)), iterations=3
            )
            assert times.shape == (3,) and arrive.shape == (3, nodes * gpus)
            assert np.all(times == self.model.iteration_time(n, mbs, nodes, gpus))
            assert np.all(arrive == self.model.compute_time(n, mbs))

    def test_no_idle_when_homogeneous(self):
        _, arrive = self.model.simulate(100, 32, np.ones((1, 4)), iterations=2)
        assert np.all(arrive.max(axis=1, keepdims=True) - arrive == 0.0)

    def test_deterministic_without_jitter(self):
        a, _ = self.model.simulate(50, 16, np.ones((1, 2)), iterations=5)
        b, _ = self.model.simulate(50, 16, np.ones((1, 2)), iterations=5)
        assert np.array_equal(a, b)
        assert np.all(a == a[0])

    def test_one_straggler_gates_the_job(self):
        factors = np.ones((2, 4))
        factors[0, 3] = 2.0  # one 2× slow GPU
        (slow,), _ = self.model.simulate(100, 32, factors)
        # Compute dominates this configuration, so the whole job runs ≈ 2×.
        assert slow / self.model.iteration_time(100, 32, 2, 4) > 1.8

    def test_fast_ranks_idle_at_barrier(self):
        factors = np.array([[1.0, 1.0, 1.0, 3.0]])
        _, arrive = self.model.simulate(100, 32, factors, iterations=2)
        idle = arrive.max(axis=1, keepdims=True) - arrive
        assert np.all(idle[:, 3] == 0.0)  # the straggler never waits
        assert np.all(idle[:, :3] > 0)

    def test_jitter_raises_mean_iteration_time(self):
        """Synchronous steps take the max over ranks, so zero-mean noise
        still *increases* expected wall time (the straggler effect of pure
        variance)."""
        noisy, _ = self.model.simulate(
            100, 32, np.ones((1, 8)), jitter=0.3, iterations=20,
            rng=np.random.default_rng(7),
        )
        assert noisy.mean() > self.model.iteration_time(100, 32, 1, 8)

    def test_timeline_accounting_consistent(self):
        """Every rank's busy + idle is the same wall time, with idle read
        off the iteration time as the docstring says."""
        (wall,), (arrive,) = self.model.simulate(50, 16, np.array([[1.0, 2.0]]))
        comm = self.model.allreduce_time(50, 1, 2)
        idle = wall - comm - arrive
        assert idle[0] > 0 and abs(idle[1]) < 1e-15  # (max + comm) - comm
        assert np.ptp(arrive + idle + comm) < 1e-12

    def test_bad_args(self):
        good = dict(n=10, mbs=4, speed_factors=np.ones((1, 1)))
        for bad in (
            dict(n=0),
            dict(speed_factors=np.ones(3)),  # no (nodes, gpus) layout
            dict(speed_factors=np.array([[0.0]])),
            dict(jitter=-1.0),
            dict(iterations=0),
        ):
            with pytest.raises(ValueError):
                self.model.simulate(**(good | bad))

    def test_virtual_clock_agrees_with_closed_form(self):
        """Second, executable derivation: each rank sleeps its compute time,
        joins a real allreduce on the schedule explorer's thread group and
        sleeps the comm time; the explorer's virtual clock must read what
        the model's ``max`` predicts."""
        import time

        from repro.analysis.explore import run_schedule
        from repro.analysis.scenarios import Scenario

        n, mbs, iters = 100, 32, 3
        factors = np.array([[1.0, 1.5, 1.0, 1.0]])
        compute = self.model.compute_time(n, mbs)
        comm_s = self.model.allreduce_time(n, 1, 4)

        def rank_loop(comm, rank, shared):
            for _ in range(iters):
                time.sleep(factors[0, rank] * compute)
                assert comm.allreduce(np.ones(4))[0] == 4.0
                time.sleep(comm_s)

        result = run_schedule(Scenario("stragglers", "", 4, rank_loop))
        assert result.status == "ok", result.errors
        times, _ = self.model.simulate(n, mbs, factors, iterations=iters)
        assert result.virtual_seconds == pytest.approx(times.sum(), abs=1e-9)
        assert times.sum() == pytest.approx(iters * (1.5 * compute + comm_s))
