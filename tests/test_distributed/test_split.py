"""Subcommunicators (MPI_Comm_split semantics) and hierarchical patterns."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import run_threaded
from repro.distributed.comm import SubCommunicator


class TestSplit:
    def test_groups_partition_by_color(self):
        def worker(comm, rank):
            sub = comm.split(color=rank % 2)
            return (sub.size, sub.rank, sub.group)

        results = run_threaded(worker, 6)
        for rank, (size, subrank, group) in enumerate(results):
            assert size == 3
            assert group == [r for r in range(6) if r % 2 == rank % 2]
            assert group[subrank] == rank

    def test_subgroup_allreduce_sums_only_members(self):
        def worker(comm, rank):
            sub = comm.split(color=rank // 2)  # pairs: {0,1}, {2,3}
            return sub.allreduce(np.array([float(rank)]))

        results = run_threaded(worker, 4)
        assert results[0][0] == results[1][0] == 1.0  # 0 + 1
        assert results[2][0] == results[3][0] == 5.0  # 2 + 3

    def test_key_reorders_ranks(self):
        def worker(comm, rank):
            sub = comm.split(color=0, key=-rank)  # reversed order
            return sub.rank

        results = run_threaded(worker, 4)
        assert results == [3, 2, 1, 0]

    def test_subgroup_barrier_and_broadcast(self):
        def worker(comm, rank):
            sub = comm.split(color=rank % 2)
            sub.barrier()
            payload = np.array([float(rank)]) if sub.rank == 0 else np.zeros(1)
            return sub.broadcast(payload, root=0)[0]

        results = run_threaded(worker, 6)
        for rank, got in enumerate(results):
            assert got == float(rank % 2)  # group roots are ranks 0 and 1

    def test_hierarchical_allreduce_equals_global(self):
        """Allreduce within node-groups, allreduce across leaders, broadcast
        down — must equal one global allreduce."""

        def worker(comm, rank):
            data = np.arange(5.0) * (rank + 1)
            expect = comm.allreduce(data.copy())

            node = comm.split(color=rank // 2)  # 2 ranks per "node"
            partial = node.allreduce(data.copy())
            leaders = comm.split(color=0 if node.rank == 0 else 1)
            if node.rank == 0:
                total = leaders.allreduce(partial)
            else:
                total = np.zeros(5)
            total = node.broadcast(total, root=0)
            return np.allclose(total, expect)

        assert all(run_threaded(worker, 4))

    def test_singleton_group(self):
        def worker(comm, rank):
            sub = comm.split(color=rank)  # every rank alone
            sub.barrier()
            return (sub.size, sub.allreduce(np.ones(2))[0])

        for size, val in run_threaded(worker, 3):
            assert size == 1 and val == 1.0

    def test_validation(self):
        class Fake:
            rank = 5
            algorithm = "ring"

        with pytest.raises(ValueError):
            SubCommunicator(Fake(), [0, 1])
        with pytest.raises(ValueError):
            SubCommunicator(Fake(), [5, 5])
