"""Collective algorithms: every algorithm, every op, many world sizes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import run_threaded
from repro.distributed.collectives import _chunks
from repro.distributed.comm import ReduceOp

ALGORITHMS = ("ring", "rec_double", "naive")
WORLD_SIZES = (2, 3, 4, 5, 7, 8)


def _allreduce_worker(comm, rank, alg, op, payload_size):
    comm.algorithm = alg
    arr = np.arange(payload_size, dtype=float) * (rank + 1)
    return comm.allreduce(arr, op=op)


class TestAllreduce:
    @pytest.mark.parametrize("alg", ALGORITHMS)
    @pytest.mark.parametrize("size", WORLD_SIZES)
    def test_sum(self, alg, size):
        results = run_threaded(_allreduce_worker, size, args=(alg, "sum", 17))
        expect = np.arange(17, dtype=float) * sum(range(1, size + 1))
        for r in results:
            assert np.allclose(r, expect)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_max_min_prod(self, alg):
        size = 4
        for op, reducer in (("max", np.maximum), ("min", np.minimum), ("prod", np.multiply)):
            results = run_threaded(_allreduce_worker, size, args=(alg, op, 5))
            expect = np.arange(5, dtype=float)
            acc = expect * 1
            for r in range(2, size + 1):
                acc = reducer(acc, expect * r)
            for res in results:
                assert np.allclose(res, acc)

    @pytest.mark.parametrize("alg", ALGORITHMS)
    def test_mean(self, alg):
        results = run_threaded(_allreduce_worker, 4, args=(alg, "mean", 6))
        expect = np.arange(6, dtype=float) * (1 + 2 + 3 + 4) / 4
        for r in results:
            assert np.allclose(r, expect)

    def test_payload_smaller_than_world(self):
        """Ring allreduce with d < L exercises empty chunks."""
        results = run_threaded(_allreduce_worker, 8, args=("ring", "sum", 3))
        expect = np.arange(3, dtype=float) * 36
        for r in results:
            assert np.allclose(r, expect)

    def test_multidimensional_payload(self):
        def worker(comm, rank):
            arr = np.full((3, 4, 2), float(rank))
            return comm.allreduce(arr)

        results = run_threaded(worker, 4)
        for r in results:
            assert r.shape == (3, 4, 2)
            assert np.allclose(r, 6.0)

    def test_world_size_one_is_identity(self):
        def worker(comm, rank):
            return comm.allreduce(np.arange(4.0))

        (res,) = run_threaded(worker, 1)
        assert np.allclose(res, np.arange(4.0))

    @settings(max_examples=15, deadline=None)
    @given(
        st.sampled_from(ALGORITHMS),
        st.integers(2, 6),
        st.integers(1, 40),
        st.integers(0, 2**31 - 1),
    )
    def test_allreduce_equals_numpy_sum_hypothesis(self, alg, size, d, seed):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(size, d))

        def worker(comm, rank):
            comm.algorithm = alg
            return comm.allreduce(data[rank].copy())

        results = run_threaded(worker, size)
        expect = data.sum(axis=0)
        for r in results:
            assert np.allclose(r, expect, atol=1e-10)


class TestChunks:
    def test_cached_slices_equal_the_linspace_split(self):
        """The ring's chunk bounds (and with them every reduction order) are
        the ``linspace`` split, asked for twice: once fresh, once cached."""
        for n in (0, 1, 2, 3, 5, 17, 100, 1023, 11_158, 300_000):
            for parts in (1, 2, 3, 4, 5, 7, 8, 16):
                bounds = np.linspace(0, n, parts + 1).astype(int)
                expect = [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]
                for _ in range(2):
                    got = _chunks(n, parts)
                    assert isinstance(got, tuple)
                    assert list(got) == expect


class TestOtherCollectives:
    def test_broadcast_from_every_root(self):
        for root in range(4):
            def worker(comm, rank, root=root):
                payload = np.full(5, 7.0) if rank == root else np.zeros(5)
                return comm.broadcast(payload, root=root)

            for r in run_threaded(worker, 4):
                assert np.allclose(r, 7.0)

    def test_allgather_order(self):
        def worker(comm, rank):
            return comm.allgather(np.array([float(rank), float(rank) ** 2]))

        for parts in run_threaded(worker, 5):
            for r, part in enumerate(parts):
                assert np.allclose(part, [r, r**2])

    def test_barrier_runs(self):
        def worker(comm, rank):
            comm.barrier()
            return rank

        assert run_threaded(worker, 6) == list(range(6))


class TestErrors:
    def test_unknown_op(self):
        def worker(comm, rank):
            return comm.allreduce(np.ones(2), op="xor")

        with pytest.raises(ValueError):
            run_threaded(worker, 2)

    def test_unknown_algorithm(self):
        def worker(comm, rank):
            comm.algorithm = "carrier-pigeon"
            return comm.allreduce(np.ones(2))

        with pytest.raises(ValueError):
            run_threaded(worker, 2)

    def test_self_send_rejected(self):
        def worker(comm, rank):
            comm.send(rank, np.ones(1))

        with pytest.raises(ValueError):
            run_threaded(worker, 2)

    def test_peer_out_of_range(self):
        def worker(comm, rank):
            comm.send(99, np.ones(1))

        with pytest.raises(ValueError):
            run_threaded(worker, 2)

    def test_recv_timeout(self):
        from repro.distributed.comm import CommTimeoutError

        def worker(comm, rank):
            if rank == 0:
                comm.recv(1, timeout=0.1)  # nobody sends
            return None

        with pytest.raises(CommTimeoutError):
            run_threaded(worker, 2)

    def test_reduce_op_names(self):
        assert "sum" in ReduceOp.names()
        assert "mean" in ReduceOp.names()
