"""Exact autoregressive sampling (AUTO) — incremental and naive paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import MADE
from repro.samplers import AutoregressiveSampler
from repro.samplers.diagnostics import total_variation_distance


@pytest.fixture
def made(rng):
    m = MADE(4, hidden=10, rng=rng)
    # Push weights away from init so the distribution is non-trivial.
    for p in m.parameters():
        p.data += rng.normal(size=p.shape) * 0.8
    return m


class TestExactness:
    def test_samples_match_model_distribution(self, made, rng):
        sampler = AutoregressiveSampler()
        x = sampler.sample(made, 20000, rng)
        codes = (x @ (2 ** np.arange(3, -1, -1))).astype(int)
        tv = total_variation_distance(codes, made.exact_distribution())
        assert tv < 0.03

    def test_incremental_matches_naive_bitwise(self, made):
        fast = AutoregressiveSampler(method="incremental")
        slow = AutoregressiveSampler(method="naive")
        x_fast = fast.sample(made, 256, np.random.default_rng(7))
        x_slow = slow.sample(made, 256, np.random.default_rng(7))
        assert np.array_equal(x_fast, x_slow)

    def test_exact_flag(self):
        assert AutoregressiveSampler.exact is True


class TestStats:
    def test_incremental_is_default_and_cheaper_than_n(self, made, rng):
        sampler = AutoregressiveSampler()
        sampler.sample(made, 128, rng)
        stats = sampler.last_stats
        assert stats.extras["fast_path"] == "incremental"
        # The measured cost is the point of the fast path: well below the
        # naive sampler's n full passes.
        assert 0.0 < stats.forward_pass_equivalents < made.n
        assert stats.forward_passes == int(np.ceil(stats.forward_pass_equivalents))
        assert stats.pass_equivalents == stats.forward_pass_equivalents

    def test_naive_path_reports_n_passes(self, made, rng):
        sampler = AutoregressiveSampler(method="naive")
        sampler.sample(made, 128, rng)
        stats = sampler.last_stats
        assert stats.extras["fast_path"] == "naive"
        assert stats.forward_passes == made.n
        assert stats.pass_equivalents == float(made.n)

    def test_incremental_cost_independent_of_batch(self, made, rng):
        sampler = AutoregressiveSampler()
        sampler.sample(made, 1, rng)
        small = sampler.last_stats
        sampler.sample(made, 4096, rng)
        large = sampler.last_stats
        # From B = 4096 a run is one site, swept once: every unmasked weight
        # once per sample, half a dense pass — a constant of the shape.
        assert large.extras["sweeps"] == 1.0
        assert large.forward_pass_equivalents == 0.5
        # At B = 1 the 4 sites are one run, swept 1 to 4 times, each sweep
        # paying its in-run GEMMs again: at least the mask floor.
        assert 1.0 <= small.extras["sweeps"] <= made.n
        assert small.forward_pass_equivalents >= 0.5


class TestValidation:
    def test_rejects_unnormalised_model(self, rng):
        from repro.models import RBM

        with pytest.raises(TypeError):
            AutoregressiveSampler().sample(RBM(4, rng=rng), 8, rng)

    def test_rejects_bad_batch_size(self, made, rng):
        with pytest.raises(ValueError):
            AutoregressiveSampler().sample(made, 0, rng)

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            AutoregressiveSampler(method="warp")

    def test_incremental_method_requires_made(self, rng):
        from repro.models import MeanField

        with pytest.raises(TypeError):
            AutoregressiveSampler(method="incremental").sample(
                MeanField(4, rng=rng), 8, rng
            )


class TestFallback:
    def test_non_made_models_use_model_sample_silently(self, rng, recwarn):
        from repro.models import MeanField

        sampler = AutoregressiveSampler()
        x = sampler.sample(MeanField(4, rng=rng), 16, rng)
        assert x.shape == (16, 4)
        assert sampler.last_stats.extras["fast_path"] == "naive"
        assert not sampler.last_stats.extras["fallback"]  # naive is its path
        assert not any(
            isinstance(w.message, RuntimeWarning) for w in recwarn.list
        )

    def test_made_fallback_warns(self, made, rng, monkeypatch):
        import repro.samplers.autoregressive as auto_mod

        def broken(*args, **kwargs):
            raise NotImplementedError("simulated unsupported stack")

        monkeypatch.setattr(auto_mod, "incremental_sample", broken)
        sampler = AutoregressiveSampler()
        with pytest.warns(RuntimeWarning, match="falling back"):
            x = sampler.sample(made, 16, rng)
        assert x.shape == (16, 4)
        assert sampler.last_stats.extras["fast_path"] == "naive"
        assert sampler.last_stats.extras["fallback"]
