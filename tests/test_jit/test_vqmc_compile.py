"""VQMC.step compiled-path integration: parity, fallback, spans, config."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import VQMC, VQMCConfig
from repro.hamiltonians import TransverseFieldIsing
from repro.jit import TraceError
from repro.models import MADE
from repro.obs import Metrics, Tracer
from repro.optim import SGD, StochasticReconfiguration
from repro.samplers import AutoregressiveSampler


def _driver(compile_mode: str, *, sr: bool = False, metrics=None, tracer=None):
    ham = TransverseFieldIsing.random(6, seed=99)
    model = MADE(6, hidden=8, rng=np.random.default_rng(7))
    vqmc = VQMC(
        model,
        ham,
        AutoregressiveSampler(),
        SGD(model.parameters(), lr=0.05),
        sr=StochasticReconfiguration() if sr else None,
        seed=11,
        config=VQMCConfig(compile=compile_mode),
        metrics=metrics,
        tracer=tracer,
    )
    return vqmc, model


class TestParity:
    @pytest.mark.parametrize("sr", [False, True], ids=["autograd", "per_sample"])
    def test_compiled_matches_interpreted_over_steps(self, sr):
        vq_on, m_on = _driver("on", sr=sr)
        vq_off, m_off = _driver("off", sr=sr)
        for _ in range(5):
            vq_on.step(batch_size=64)
            vq_off.step(batch_size=64)
        np.testing.assert_allclose(
            m_on.flat_parameters(), m_off.flat_parameters(), rtol=1e-9, atol=1e-10
        )

    def test_per_step_override_wins(self):
        tracer = Tracer()
        vq, _ = _driver("on", tracer=tracer)
        vq.step(batch_size=32, compile="off")
        assert vq.compiler.stats["traces"] == 0  # 'off' never traced
        vq.step(batch_size=32)
        assert vq.compiler.stats["traces"] == 1
        # ...and the trace says which plan ran each step's stages.
        ran = [e.name for e in tracer.events if e.attrs and "stage" in e.attrs]
        assert ran == ["jit.interpret"] * 2 + ["jit.replay"] * 2


class TestAutoFallback:
    def test_override_model_falls_back_sticky(self):
        metrics = Metrics()
        vq, model = _driver("auto", metrics=metrics)
        model.log_psi = model.log_psi  # instance override → untraceable
        for _ in range(3):
            vq.step(batch_size=32)
        assert list(vq.compiler.fallbacks) == ["autograd"]
        assert "overrides" in vq.compiler.fallbacks["autograd"]
        assert vq.compiler.stats["traces"] == 0
        # Fallback decided once, then sticky — one counter bump, not three.
        assert metrics.snapshot()["counters"]["jit.fallback"] == 1

    def test_compile_on_surfaces_trace_error(self):
        vq, model = _driver("on")
        model.log_psi = model.log_psi
        with pytest.raises(TraceError):
            vq.step(batch_size=32)


class TestObservability:
    def test_replay_spans_carry_interpreted_phase(self):
        tracer = Tracer()
        vq, _ = _driver("on", tracer=tracer)
        vq.step(batch_size=32)
        replays = [e for e in tracer._events if e.name == "jit.replay"]
        assert replays, "compiled step should emit jit.replay spans"
        assert all(e.attrs.get("phase") == "gradient" for e in replays)
        assert {e.attrs.get("stage") for e in replays} <= {
            "forward", "backward", "per_sample"
        }

    def test_compiled_run_bumps_cache_counters(self):
        metrics = Metrics()
        vq, _ = _driver("on", metrics=metrics)
        for _ in range(3):
            vq.step(batch_size=32)
        counters = metrics.snapshot()["counters"]
        assert counters["jit.trace"] == 1
        assert counters["jit.cache_hit"] == 2
        assert metrics.snapshot()["gauges"]["jit.arena_bytes"] > 0


class TestConfig:
    def test_config_rejects_unknown_compile_mode(self):
        with pytest.raises(ValueError, match="compile"):
            VQMCConfig(compile="sometimes")

    def test_step_rejects_unknown_compile_mode(self):
        vq, _ = _driver("auto")
        with pytest.raises(ValueError, match="compile"):
            vq.step(batch_size=32, compile="bogus")
