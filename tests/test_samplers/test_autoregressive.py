"""Exact autoregressive sampling (AUTO) — incremental and naive paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.energy import local_energy_path
from repro.distributed.model_parallel import ShardedMADE
from repro.distributed.serial import SerialCommunicator
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE, MeanField, RNNWaveFunction
from repro.samplers import AutoregressiveSampler
from repro.samplers.diagnostics import total_variation_distance

# Nothing in the sampler warns: a RuntimeWarning from it is a bug.
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


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
        fast = AutoregressiveSampler()
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
        with pytest.raises(ValueError):  # the model's type picks the kernel
            AutoregressiveSampler(method="incremental")


class TestDispatch:
    """The model's type alone picks the kernels: every MADE takes them."""

    @pytest.mark.parametrize("strategy", ["cycle", "random"])
    @pytest.mark.parametrize("hidden", [None, 1, (4, 5), (2, 2, 2)])
    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_every_made_takes_the_kernels(self, n, hidden, strategy):
        rng = np.random.default_rng(n)
        model = MADE(n, hidden=hidden, rng=rng, mask_strategy=strategy)
        sampler = AutoregressiveSampler()
        x = sampler.sample(model, 8, rng)
        assert x.shape == (8, n)
        assert sampler.last_stats.extras["fast_path"] == "incremental"
        tim = TransverseFieldIsing.random(n, seed=n)
        assert local_energy_path(model, tim) == "fused"

    @pytest.mark.parametrize(
        "build",
        [
            lambda rng: RNNWaveFunction(4, hidden=3, rng=rng),
            lambda rng: ShardedMADE(4, 6, SerialCommunicator()),
        ],
        ids=["rnn", "sharded-made"],
    )
    def test_other_models_use_model_sample(self, build, rng):
        model = build(rng)
        sampler = AutoregressiveSampler()
        x = sampler.sample(model, 16, rng)
        assert x.shape == (16, 4)
        assert sampler.last_stats.extras["fast_path"] == "naive"


class TestFallback:
    def test_non_made_models_use_model_sample_silently(self, rng):
        sampler = AutoregressiveSampler()
        x = sampler.sample(MeanField(4, rng=rng), 16, rng)
        assert x.shape == (16, 4)
        assert sampler.last_stats.extras["fast_path"] == "naive"
