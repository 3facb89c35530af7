"""VQMC driver: convergence to exact ground states, callbacks, config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import History, HittingTime, ProgressPrinter, VQMC, VQMCConfig
from repro.core.callbacks import StopTraining
from repro.core.energy import grad_via_autograd, local_energies
from repro.exact import brute_force_max_cut, ground_state
from repro.hamiltonians import MaxCut, TransverseFieldIsing
from repro.models import MADE, RBM
from repro.optim import SGD, Adam, StochasticReconfiguration
from repro.samplers import AutoregressiveSampler, MetropolisSampler


class TestConvergence:
    def test_made_auto_adam_reaches_ground_state(self, small_tim, rng):
        model = MADE(6, hidden=12, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(),
            Adam(model.parameters(), lr=0.02), seed=1,
        )
        vqmc.run(250, batch_size=256)
        exact = ground_state(small_tim).energy
        final = vqmc.evaluate(batch_size=1024)
        assert final.mean < exact + 0.35 * abs(exact) / 6  # within a few %
        # Variational bound holds in expectation; a batch mean may dip below
        # λ_min by Monte-Carlo noise, bounded by a few standard errors.
        assert final.mean > exact - 5 * final.sem

    def test_sr_converges_faster_than_plain_sgd(self, small_tim, rng):
        def train(with_sr):
            model = MADE(6, hidden=12, rng=np.random.default_rng(5))
            sr = StochasticReconfiguration() if with_sr else None
            vqmc = VQMC(
                model, small_tim, AutoregressiveSampler(),
                SGD(model.parameters(), lr=0.1), sr=sr, seed=2,
            )
            vqmc.run(60, batch_size=256)
            return vqmc.evaluate(512).mean

        assert train(True) < train(False) + 0.15

    def test_rbm_mcmc_improves_energy(self, small_tim, rng):
        model = RBM(6, rng=rng)
        sampler = MetropolisSampler(n_chains=2, burn_in=100)
        vqmc = VQMC(model, small_tim, sampler, SGD(model.parameters(), lr=0.05), seed=3)
        first = vqmc.step(batch_size=256).stats.mean
        vqmc.run(60, batch_size=256)
        final = vqmc.evaluate(512).mean
        assert final < first

    def test_maxcut_finds_optimum_small(self, rng):
        ham = MaxCut.random(8, seed=11)
        opt, _ = brute_force_max_cut(ham.adjacency)
        model = MADE(8, hidden=14, rng=rng)
        vqmc = VQMC(
            model, ham, AutoregressiveSampler(), Adam(model.parameters(), lr=0.05),
            sr=None, seed=4,
        )
        vqmc.run(200, batch_size=256)
        x = AutoregressiveSampler().sample(model, 512, np.random.default_rng(0))
        best_cut = ham.cut_value(x).max()
        assert best_cut >= opt - 1e-9  # samples include the optimal cut

    def test_variational_lower_bound_never_violated(self, small_tim, rng):
        """Every evaluation batch mean stays ≥ λ_min up to Monte-Carlo SEM."""
        model = MADE(6, hidden=10, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(),
            Adam(model.parameters()), seed=5,
        )
        exact = ground_state(small_tim).energy
        results = vqmc.run(80, batch_size=256)
        for r in results:
            assert r.stats.mean > exact - 5 * max(r.stats.sem, 1e-12)


class TestStepMechanics:
    def test_closed_form_step_equals_the_tape_step(self, small_tim):
        """The step's closed-form update equals the autograd tape's on the
        same batch: two derivations of one gradient."""
        model = MADE(6, hidden=8, rng=np.random.default_rng(9))
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(),
            SGD(model.parameters(), lr=0.1), seed=7,
            config=VQMCConfig(batch_size=128),
        )
        tape = MADE(6, hidden=8, rng=np.random.default_rng(9))
        x = AutoregressiveSampler().sample(tape, 128, np.random.default_rng(7))
        grad_via_autograd(tape, x, local_energies(tape, small_tim, x))
        SGD(tape.parameters(), lr=0.1).step()
        vqmc.step()
        assert np.allclose(model.flat_parameters(), tape.flat_parameters(), atol=1e-10)

    def test_step_result_fields(self, small_tim, rng):
        model = MADE(6, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(), Adam(model.parameters()), seed=1
        )
        r = vqmc.step(batch_size=64)
        assert r.step == 1
        assert r.stats.count == 64
        assert r.grad_norm > 0
        assert r.step_time > 0
        assert np.isnan(r.acceptance)  # AUTO has no acceptance rate
        r2 = vqmc.step(batch_size=64)
        assert r2.step == 2

    @pytest.mark.parametrize("ansatz,path", [("made", "fused"), ("rbm", "dense")])
    def test_local_energy_path_is_reported(self, small_tim, rng, ansatz, path):
        """Which local-energy kernel ran is on the span, the step result and —
        for the dense fallback — a counter."""
        from repro.obs import Metrics, Tracer

        if ansatz == "made":
            model, sampler = MADE(6, rng=rng), AutoregressiveSampler()
        else:
            model, sampler = RBM(6, rng=rng), MetropolisSampler()
        metrics, tracer = Metrics(), Tracer()
        vqmc = VQMC(
            model, small_tim, sampler, Adam(model.parameters()), seed=1,
            metrics=metrics, tracer=tracer,
        )
        results = [vqmc.step(batch_size=16) for _ in range(3)]
        assert [r.energy_path for r in results] == [path] * 3
        spans = [e for e in tracer.events if e.name == "local_energy"]
        assert [e.attrs["path"] for e in spans] == [path] * 3
        dense_steps = metrics.snapshot()["counters"].get("energy.dense_fallback", 0)
        assert dense_steps == (3 if path == "dense" else 0)

    @pytest.mark.parametrize(
        "method,path",
        [("auto", "incremental"), ("naive", "naive")],
        ids=["kernel", "asked-for-naive"],
    )
    def test_sampling_path_is_reported(self, small_tim, rng, method, path):
        """Which sampling kernel ran, and what it cost in the paper's Fig. 1
        unit, is on the ``sample`` span."""
        from repro.obs import Tracer

        model = MADE(6, rng=rng)
        tracer = Tracer()
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(method=method),
            Adam(model.parameters()), seed=1, tracer=tracer,
        )
        for _ in range(3):
            vqmc.step(batch_size=16)
        spans = [e for e in tracer.events if e.name == "sample"]
        assert [e.attrs["path"] for e in spans] == [path] * 3
        for e in spans:
            if path == "incremental":
                # One 6-site run, swept 1 to 6 times: at least the mask floor.
                assert 1.0 <= e.attrs["sweeps"] <= model.n
                assert e.attrs["pass_equiv"] >= 0.5
                assert 0 <= e.attrs["retraced"] < 16
                assert 0 <= e.attrs["settled"] <= 16 - e.attrs["retraced"]
            else:
                assert e.attrs["sweeps"] is None
                assert e.attrs["retraced"] is None
                assert e.attrs["settled"] is None
                assert e.attrs["pass_equiv"] == float(model.n)

    def test_mismatched_sizes_rejected(self, small_tim, rng):
        model = MADE(5, rng=rng)
        with pytest.raises(ValueError):
            VQMC(model, small_tim, AutoregressiveSampler(), Adam(model.parameters()))

    def test_sr_requires_per_sample_grads(self, small_tim, rng):
        """Every step runs the closed form, with SR or without."""
        class NoGrads(MADE):
            has_per_sample_grads = False

        model = NoGrads(6, rng=rng)
        for sr in (StochasticReconfiguration(), None):
            with pytest.raises(TypeError, match="per-sample"):
                VQMC(
                    model, small_tim, AutoregressiveSampler(),
                    SGD(model.parameters(), lr=0.1), sr=sr,
                )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            VQMCConfig(batch_size=0)
        with pytest.raises(ValueError):
            VQMCConfig(max_grad_norm=0.0)


class TestCallbacks:
    def test_history_records_all_steps(self, small_tim, rng):
        model = MADE(6, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(), Adam(model.parameters()), seed=1
        )
        hist = History()
        vqmc.run(10, batch_size=64, callbacks=[hist])
        assert len(hist) == 10
        arrays = hist.as_arrays()
        assert arrays["energy"].shape == (10,)
        assert np.all(arrays["std"] >= 0)

    def test_hitting_time_stops_early(self, rng):
        ham = MaxCut.random(8, seed=11)
        model = MADE(8, hidden=14, rng=rng)
        vqmc = VQMC(
            model, ham, AutoregressiveSampler(), Adam(model.parameters(), lr=0.05),
            seed=4,
        )
        target = 3.0  # trivially reachable cut
        cb = HittingTime(
            target, score_fn=lambda x: ham.cut_value(x).mean(), eval_batch_size=128
        )
        results = vqmc.run(100, batch_size=128, callbacks=[cb])
        assert cb.hit_step is not None
        assert cb.hit_time is not None and cb.hit_time > 0
        assert len(results) == cb.hit_step

    def test_hitting_time_default_score_is_negative_energy(self, small_tim, rng):
        model = MADE(6, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(), Adam(model.parameters()), seed=2
        )
        cb = HittingTime(target=-1e9, eval_batch_size=64)  # any energy qualifies... no:
        # target -1e9 means score (-E) must exceed -1e9 — immediate hit.
        vqmc.run(5, batch_size=64, callbacks=[cb])
        assert cb.hit_step == 1

    def test_progress_printer(self, small_tim, rng, capsys):
        import io

        model = MADE(6, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(), Adam(model.parameters()), seed=1
        )
        buf = io.StringIO()
        vqmc.run(4, batch_size=32, callbacks=[ProgressPrinter(every=2, stream=buf)])
        out = buf.getvalue()
        assert "step" in out and "E =" in out

    def test_stop_training_exception_ends_run_gracefully(self, small_tim, rng):
        class StopAt3:
            def on_run_begin(self, v):
                pass

            def on_run_end(self, v):
                self.ended = True

            def on_step(self, step, result):
                if step == 3:
                    raise StopTraining

        model = MADE(6, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(), Adam(model.parameters()), seed=1
        )
        cb = StopAt3()
        results = vqmc.run(100, batch_size=32, callbacks=[cb])
        assert len(results) == 3
        assert cb.ended


class TestPhaseClock:
    def test_phase_clock_records_sections(self, small_tim, rng):
        model = MADE(6, rng=rng)
        vqmc = VQMC(
            model, small_tim, AutoregressiveSampler(), Adam(model.parameters()),
            seed=1,
        )
        results = vqmc.run(3, batch_size=32)
        for result in results:
            # Keyed by the tracer's span names; no SR here, so no sr_solve.
            # The gradient phase is split around the energy evaluation (the
            # amplitude forward pass is shared) and sums under one key.
            assert set(result.phase_seconds) == {
                "sample", "gradient", "local_energy", "optimizer",
            }
            assert all(v >= 0.0 for v in result.phase_seconds.values())
            assert sum(result.phase_seconds.values()) <= result.step_time
        # per-step seconds, not a running total shared between results
        assert results[0].phase_seconds is not results[1].phase_seconds
