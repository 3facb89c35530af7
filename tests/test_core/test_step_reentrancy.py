"""Step-loop re-entrancy (StepDriver) and the RNG-sharing / teardown fixes.

Three regressions pinned here, all found while making training servable:

- ``VQMC.evaluate()`` used to draw from the *training* stream, so an
  interleaved evaluation silently changed every subsequent training step
  (and broke the bit-exact checkpoint-resume contract). Evaluation now
  owns a derived fork (``eval_rng``), carried through checkpoints.
- One raising callback in the teardown path used to starve all remaining
  callbacks of ``on_crash``/``on_run_end`` (no flight dump, lost run
  footers) and could mask the original training exception.
- ``_combine_stats`` divided by zero on an empty local-energy batch; it
  now returns the well-defined :meth:`EnergyStats.empty` sentinel.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    VQMC,
    History,
    StepDriver,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.callbacks import Callback, StopTraining
from repro.core.energy import EnergyStats, energy_statistics
from repro.core.vqmc import derive_eval_rng
from repro.models import MADE
from repro.optim import Adam
from repro.samplers import AutoregressiveSampler


def make_vqmc(small_tim, seed=7, model_seed=3):
    model = MADE(6, hidden=8, rng=np.random.default_rng(model_seed))
    return VQMC(
        model, small_tim, AutoregressiveSampler(),
        Adam(model.parameters(), lr=0.01), seed=seed,
    )


class Recorder(Callback):
    """Order-sensitive spy over every lifecycle hook."""

    def __init__(self, name="cb", log=None):
        self.name = name
        self.log = log if log is not None else []

    def on_run_begin(self, vqmc):
        self.log.append((self.name, "begin"))

    def on_step(self, step, result):
        self.log.append((self.name, "step", step))

    def on_crash(self, vqmc, exc):
        self.log.append((self.name, "crash", type(exc).__name__))

    def on_run_end(self, vqmc):
        self.log.append((self.name, "end"))


class Exploder(Recorder):
    """Raises from the requested hooks after recording the call."""

    def __init__(self, hooks, name="boom", log=None):
        super().__init__(name=name, log=log)
        self.hooks = set(hooks)

    def on_step(self, step, result):
        super().on_step(step, result)
        if "on_step" in self.hooks:
            raise RuntimeError(f"{self.name} exploded in on_step")

    def on_crash(self, vqmc, exc):
        super().on_crash(vqmc, exc)
        if "on_crash" in self.hooks:
            raise RuntimeError(f"{self.name} exploded in on_crash")

    def on_run_end(self, vqmc):
        super().on_run_end(vqmc)
        if "on_run_end" in self.hooks:
            raise RuntimeError(f"{self.name} exploded in on_run_end")


# -- eval RNG isolation -----------------------------------------------------------


class TestEvalRngIsolation:
    def test_interleaved_evaluate_leaves_training_bit_exact(self, small_tim):
        """The regression: evaluate() must not consume training draws."""
        plain = make_vqmc(small_tim)
        plain.run(6, batch_size=32)

        interleaved = make_vqmc(small_tim)
        for _ in range(3):
            interleaved.run(2, batch_size=32)
            interleaved.evaluate(batch_size=64)  # must be a pure observer

        np.testing.assert_array_equal(
            plain.model.flat_parameters(), interleaved.model.flat_parameters()
        )

    def test_evaluate_itself_is_reproducible_across_constructions(self, small_tim):
        a = make_vqmc(small_tim).evaluate(batch_size=64)
        b = make_vqmc(small_tim).evaluate(batch_size=64)
        assert a.mean == b.mean and a.std == b.std

    def test_explicit_rng_overrides_eval_stream(self, small_tim):
        vqmc = make_vqmc(small_tim)
        a = vqmc.evaluate(batch_size=64, rng=np.random.default_rng(0))
        b = vqmc.evaluate(batch_size=64, rng=np.random.default_rng(0))
        assert a.mean == b.mean

    def test_derive_eval_rng_is_deterministic_and_nonconsuming(self):
        rng = np.random.default_rng(42)
        before = rng.bit_generator.state
        fork_a = derive_eval_rng(rng)
        fork_b = derive_eval_rng(rng)
        assert rng.bit_generator.state == before  # no draws consumed
        assert fork_a.random() == fork_b.random()
        assert fork_a.bit_generator.state != rng.bit_generator.state

    def test_checkpoint_round_trips_eval_stream(self, small_tim, tmp_path):
        a = make_vqmc(small_tim)
        a.run(3, batch_size=32)
        a.evaluate(batch_size=32)  # advance the eval stream past its fork
        save_checkpoint(a, tmp_path / "ckpt.npz")

        b = make_vqmc(small_tim, seed=999, model_seed=999)
        load_checkpoint(b, tmp_path / "ckpt.npz")
        # The *advanced* eval stream must resume, not a fresh re-derivation.
        ref = a.evaluate(batch_size=64)
        got = b.evaluate(batch_size=64)
        assert ref.mean == got.mean and ref.std == got.std


# -- teardown isolation -----------------------------------------------------------


class TestTeardownIsolation:
    def test_raising_callback_does_not_starve_later_callbacks(self, small_tim):
        """A sink placed *after* the exploder still gets crash + end hooks."""
        log: list = []
        boom = Exploder({"on_crash", "on_run_end"}, name="boom", log=log)
        sink = Recorder(name="sink", log=log)
        vqmc = make_vqmc(small_tim)
        crasher = Exploder({"on_step"}, name="crasher", log=log)

        with pytest.warns(RuntimeWarning, match="boom.*isolated"):
            with pytest.raises(RuntimeError, match="crasher exploded in on_step"):
                vqmc.run(5, batch_size=32, callbacks=[crasher, boom, sink])

        assert ("sink", "crash", "RuntimeError") in log
        assert ("sink", "end") in log

    def test_original_exception_is_never_masked(self, small_tim):
        class Original(RuntimeError):
            pass

        class Stepper(Callback):
            def on_step(self, step, result):
                raise Original("the real failure")

        vqmc = make_vqmc(small_tim)
        boom = Exploder({"on_run_end"})
        with pytest.warns(RuntimeWarning):
            with pytest.raises(Original, match="the real failure"):
                vqmc.run(5, batch_size=32, callbacks=[Stepper(), boom])

    def test_clean_run_still_fails_loudly_on_broken_sink(self, small_tim):
        vqmc = make_vqmc(small_tim)
        log: list = []
        boom = Exploder({"on_run_end"}, name="boom", log=log)
        sink = Recorder(name="sink", log=log)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(RuntimeError, match="boom exploded in on_run_end"):
                vqmc.run(2, batch_size=32, callbacks=[boom, sink])
        assert ("sink", "end") in log  # delivered before the re-raise

    def test_flight_recorder_dumps_despite_earlier_raising_callback(
        self, small_tim, tmp_path
    ):
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(tmp_path, capacity=16, rank=0)
        boom = Exploder({"on_crash", "on_run_end"})
        crasher = Exploder({"on_step"}, name="crasher")
        vqmc = make_vqmc(small_tim)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(RuntimeError, match="crasher"):
                # The exploder sits AHEAD of the recorder: pre-fix, the
                # black box was never written.
                vqmc.run(5, batch_size=32, callbacks=[crasher, boom, recorder])
        assert recorder.dumped, "flight recorder never dumped"
        assert recorder.dumped[0].exists()


# -- empty-batch statistics --------------------------------------------------------


class TestEmptyStats:
    def test_energy_statistics_of_empty_batch(self):
        stats = energy_statistics(np.array([]))
        assert stats.is_empty
        assert stats.count == 0
        assert stats.mean == 0.0 and stats.std == 0.0 and stats.sem == 0.0
        assert "empty" in str(stats)

    def test_empty_sentinel_classmethod(self):
        assert EnergyStats.empty().is_empty
        assert not EnergyStats(mean=1.0, std=0.1, sem=0.01, count=8).is_empty

    def test_combine_stats_zero_samples_is_well_defined(self, small_tim):
        vqmc = make_vqmc(small_tim)
        stats = vqmc._combine_stats(np.array([]))
        assert stats.is_empty  # used to divide by zero


# -- StepDriver semantics ----------------------------------------------------------


class TestStepDriver:
    def test_matches_run_bit_exactly(self, small_tim):
        ref = make_vqmc(small_tim)
        ref.run(5, batch_size=32)

        vqmc = make_vqmc(small_tim)
        driver = StepDriver(vqmc, 5, batch_size=32)
        with driver:
            while not driver.done:
                driver.step_once()
        np.testing.assert_array_equal(
            ref.model.flat_parameters(), vqmc.model.flat_parameters()
        )
        assert driver.steps_done == 5 and driver.done

    def test_lifecycle_hooks_fire_once_in_order(self, small_tim):
        log: list = []
        cb = Recorder(log=log)
        vqmc = make_vqmc(small_tim)
        driver = StepDriver(vqmc, 2, batch_size=32, callbacks=[cb])
        driver.run()
        assert log[0] == ("cb", "begin")
        assert log[-1] == ("cb", "end")
        assert [e for e in log if e[1] == "step"] == [
            ("cb", "step", 1), ("cb", "step", 2)
        ]
        driver.finish()  # idempotent
        assert log.count(("cb", "end")) == 1

    def test_cancel_between_steps_leaves_trainer_restorable(self, small_tim):
        vqmc = make_vqmc(small_tim)
        driver = StepDriver(vqmc, 100, batch_size=32)
        with driver:
            driver.step_once()
            driver.step_once()
            driver.cancel()
            assert driver.done
            assert driver.step_once() is None
        assert driver.cancelled and driver.steps_done == 2
        # The trainer is at a clean step boundary: stepping on resumes the
        # exact trajectory a never-cancelled run would have taken.
        ref = make_vqmc(small_tim)
        ref.run(3, batch_size=32)
        vqmc.step(32)
        np.testing.assert_array_equal(
            ref.model.flat_parameters(), vqmc.model.flat_parameters()
        )

    def test_stop_training_marks_stopped(self, small_tim):
        class StopAt(Callback):
            def on_step(self, step, result):
                if step >= 2:
                    raise StopTraining

        vqmc = make_vqmc(small_tim)
        driver = StepDriver(vqmc, 50, batch_size=32, callbacks=[StopAt()])
        results = driver.run()
        assert driver.stopped and len(results) == 2

    def test_long_lived_driver_retains_no_step_results(self, small_tim):
        """The serve worker and the supervisor step one driver for the life
        of a job and never read its results: memory must not grow with the
        step count."""
        driver = StepDriver(make_vqmc(small_tim), 200, batch_size=4)

        def container_sizes():
            return {
                name: len(value) for name, value in vars(driver).items()
                if hasattr(value, "__len__")
            }

        before = container_sizes()
        with driver:
            last = None
            while not driver.done:
                last = driver.step_once()
        assert driver.steps_done == 200 and last.step == 200
        assert container_sizes() == before

    def test_run_returns_every_result_in_order(self, small_tim):
        results = make_vqmc(small_tim).run(5, batch_size=32)
        assert [r.step for r in results] == [1, 2, 3, 4, 5]

    def test_zero_iteration_run_still_brackets_callbacks(self, small_tim):
        log: list = []
        driver = StepDriver(
            make_vqmc(small_tim), 0, callbacks=[Recorder(log=log)]
        )
        driver.run()
        assert log == [("cb", "begin"), ("cb", "end")]

    def test_step_after_finish_is_an_error(self, small_tim):
        driver = StepDriver(make_vqmc(small_tim), 3, batch_size=32)
        driver.run()
        with pytest.raises(RuntimeError, match="finish"):
            driver.step_once()

    def test_abandoned_with_block_closes_cleanly(self, small_tim):
        log: list = []
        vqmc = make_vqmc(small_tim)
        history = History()
        with StepDriver(
            vqmc, 10, batch_size=32, callbacks=[history, Recorder(log=log)]
        ) as driver:
            driver.step_once()
            driver.step_once()
            # leaving early — an abandoned loop: footer yes, crash no
        assert ("cb", "end") in log
        assert not any(e[1] == "crash" for e in log)
        assert len(history) == 2
