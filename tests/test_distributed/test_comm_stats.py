"""Traffic accounting — verifying the paper's communication-volume claim."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import run_threaded
from repro.distributed.comm import CommStats


class TestCounters:
    def test_ring_allreduce_volume_matches_theory(self):
        """Ring allreduce moves 2·(L−1)/L·d floats per rank: reduce-scatter
        and allgather each send (L−1) chunks of d/L."""
        d, L = 1200, 4

        def worker(comm, rank):
            comm.allreduce(np.zeros(d))
            return comm.stats.snapshot()

        for snap in run_threaded(worker, L):
            expect_bytes = 2 * (L - 1) * (d // L) * 8  # float64 chunks
            assert snap["bytes_sent"] == expect_bytes
            assert snap["bytes_received"] == expect_bytes
            assert snap["messages_sent"] == 2 * (L - 1)

    def test_stats_reset(self):
        def worker(comm, rank):
            comm.allreduce(np.zeros(16))
            comm.stats.reset()
            comm.broadcast(np.zeros(4), root=0)
            return comm.stats.snapshot()

        snaps = run_threaded(worker, 2)
        # After reset only the broadcast remains: one 4-float message each way
        # between the two ranks (root sends, leaf receives).
        assert snaps[0]["bytes_sent"] == 32
        assert snaps[1]["bytes_received"] == 32

    def test_repr(self):
        stats = CommStats()
        assert "sent=0" in repr(stats)


class TestVQMCCommVolume:
    def test_per_step_traffic_scales_with_gradient_length(self):
        """The paper's §4 claim: each data-parallel step communicates O(d)
        floats, d = 2hn + h + n — independent of the batch size."""
        from repro.core.vqmc import VQMC
        from repro.hamiltonians import TransverseFieldIsing
        from repro.models import MADE
        from repro.optim import SGD
        from repro.samplers import AutoregressiveSampler

        def traffic(n, hidden, mbs, L=2):
            def worker(comm, rank):
                model = MADE(n, hidden=hidden, rng=np.random.default_rng(0))
                ham = TransverseFieldIsing.random(n, seed=1)
                vqmc = VQMC(
                    model, ham, AutoregressiveSampler(),
                    SGD(model.parameters(), lr=0.1), comm=comm, seed=rank,
                )
                comm.stats.reset()  # drop the init broadcast
                vqmc.step(batch_size=mbs)
                return comm.stats.bytes_sent, model.num_parameters()

            return run_threaded(worker, L)[0]

        small_bytes, d_small = traffic(n=8, hidden=6, mbs=16)
        large_bytes, d_large = traffic(n=16, hidden=12, mbs=16)
        same_model_bigger_batch, _ = traffic(n=8, hidden=6, mbs=128)

        # Volume grows with d...
        assert large_bytes > small_bytes
        assert large_bytes / small_bytes == pytest.approx(
            d_large / d_small, rel=0.25
        )
        # ...but not with the batch size (the whole point of the scheme).
        assert same_model_bigger_batch == small_bytes
