"""Cross-backend consistency: the same distributed computations must give
identical results on threads and OS processes."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import run_processes, run_threaded


def _sharded_forward(comm, rank):
    from repro.distributed.model_parallel import ShardedMADE

    model = ShardedMADE(6, 10, comm, seed=42)
    x = (np.random.default_rng(5).random((4, 6)) < 0.5).astype(float)
    return model.log_prob_array(x)


def _dp_training(comm, rank):
    from repro.core.vqmc import VQMC
    from repro.hamiltonians import TransverseFieldIsing
    from repro.models import MADE
    from repro.optim import SGD
    from repro.samplers import AutoregressiveSampler
    from repro.utils.rng import spawn_generators

    model = MADE(6, hidden=8, rng=np.random.default_rng(0))
    ham = TransverseFieldIsing.random(6, seed=1)
    vqmc = VQMC(
        model, ham, AutoregressiveSampler(),
        SGD(model.parameters(), lr=0.1),
        comm=comm, seed=spawn_generators(9, comm.size)[rank],
    )
    vqmc.run(3, batch_size=16)
    return model.flat_parameters()


class TestCrossBackend:
    def test_sharded_made_identical_on_both_backends(self):
        from repro.models import MADE

        ref = MADE(6, hidden=10, rng=np.random.default_rng(42))
        x = (np.random.default_rng(5).random((4, 6)) < 0.5).astype(float)
        expect = ref.log_prob(x).data

        for got in run_threaded(_sharded_forward, 3):
            assert np.allclose(got, expect, atol=1e-10)
        for got in run_processes(_sharded_forward, 3, timeout=120):
            assert np.allclose(got, expect, atol=1e-10)

    def test_data_parallel_training_matches_across_backends(self):
        thread_params = run_threaded(_dp_training, 2)
        process_params = run_processes(_dp_training, 2, timeout=120)
        # Same seeds → identical sample streams → identical updates,
        # regardless of the transport underneath.
        assert np.allclose(thread_params[0], process_params[0], atol=1e-12)
        assert np.allclose(thread_params[0], thread_params[1], atol=1e-12)


class TestSamplerBase:
    def test_default_stats_and_acceptance_nan(self):
        from repro.samplers.base import Sampler, SamplerStats

        s = Sampler()
        stats = s.last_stats
        assert isinstance(stats, SamplerStats)
        assert np.isnan(stats.acceptance_rate)  # no proposals yet
        with pytest.raises(NotImplementedError):
            s.sample(None, 1, np.random.default_rng(0))

    def test_acceptance_rate(self):
        from repro.samplers.base import SamplerStats

        stats = SamplerStats(proposals=100, accepted=25)
        assert stats.acceptance_rate == 0.25
