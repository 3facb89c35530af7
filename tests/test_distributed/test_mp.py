"""Process-backend (fork + socketpairs) integration tests."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.distributed import CommTimeoutError, run_processes
from repro.distributed.comm import OwnedFrame


def _allreduce_worker(comm, rank, alg):
    comm.algorithm = alg
    return comm.allreduce(np.arange(6.0) * (rank + 1))


def _barrier_worker(comm, rank):
    comm.barrier()
    gathered = comm.allgather(np.array([float(rank)]))
    comm.barrier()
    return np.concatenate(gathered)


def _failing_worker(comm, rank):
    if rank == 1:
        raise RuntimeError("boom")
    # Other ranks exit without communicating: collective calls would hang,
    # so this worker does nothing.
    return rank


class TestProcesses:
    @pytest.mark.parametrize("alg", ["ring", "naive"])
    def test_allreduce(self, alg):
        results = run_processes(_allreduce_worker, 3, args=(alg,))
        expect = np.arange(6.0) * 6
        for r in results:
            assert np.allclose(r, expect)

    def test_allgather_and_barrier(self):
        results = run_processes(_barrier_worker, 4)
        for r in results:
            assert np.allclose(r, np.arange(4.0))

    def test_worker_exception_propagates(self):
        with pytest.raises(RuntimeError, match="boom"):
            run_processes(_failing_worker, 2, timeout=30.0)

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            run_processes(_barrier_worker, 0)

    def test_large_payload_does_not_deadlock(self):
        """Simultaneous sends larger than the pipe buffer (64 KiB) would
        deadlock a naive blocking implementation; the eager sender threads
        must absorb them."""

        def worker(comm, rank):
            big = np.full(300_000, float(rank))  # 2.4 MB
            return comm.allreduce(big)[:3]

        results = run_processes(worker, 2, timeout=60.0)
        for r in results:
            assert np.allclose(r, 1.0)


def _wire_cases(rank):
    """Arrays that exercise every part of the frame header, per rank."""
    base = np.arange(24.0).reshape(4, 6) + 100 * rank
    return [
        base,  # float64, 2-D
        np.arange(-3, 4, dtype=np.int64) * (rank + 1),
        np.arange(250, 256, dtype=np.uint8) - rank,
        np.array([True, False, rank == 1]),
        np.array(2.5 + rank),  # 0-d
        np.zeros(0),  # (0,)
        base[1:, ::2],  # non-contiguous slice
        np.asfortranarray(base),
        np.arange(5.0).view(OwnedFrame) - rank,
    ]


def _wire_worker(comm, rank):
    peer = 1 - rank
    sent = _wire_cases(rank)
    for arr in sent:
        comm.send(peer, arr)
    got = [comm.recv(peer, timeout=30.0) for _ in sent]
    owned = [g.flags.writeable and g.flags.owndata for g in got]
    return got, owned, comm.stats.snapshot()


def _burst_messages(rank, n_big):
    """1 MB frames (they overflow the socket buffer, so they spill to the
    drain thread) interleaved with small ones (which must queue behind)."""
    rng = np.random.default_rng(rank)
    msgs = []
    for i in range(n_big):
        msgs.append(rng.normal(size=131_072))
        msgs.append(np.array([float(i), rank]))
    return msgs


def _burst_worker(comm, rank, n_big):
    """Send every message before receiving any, overwriting each buffer as
    soon as its send returns (eager semantics: the caller owns it again)."""
    peer = 1 - rank
    msgs = _burst_messages(rank, n_big)
    for m in msgs:
        comm.send(peer, m)
        m[...] = -1.0
    got = [comm.recv(peer, timeout=30.0) for _ in msgs]
    expect = _burst_messages(peer, n_big)
    return all(g.tobytes() == e.tobytes() for g, e in zip(got, expect))


def _stream_worker(comm, rank, n_big):
    """Rank 1 reads while rank 0 sends, so the socket regains room while a
    spill is still draining: a small send must wait behind it all the same."""
    if rank == 0:
        for m in _burst_messages(0, n_big):
            comm.send(1, m)
        return True
    expect = _burst_messages(0, n_big)
    return all(comm.recv(0, timeout=30.0).tobytes() == e.tobytes() for e in expect)


def _send_then_return_worker(comm, rank):
    """Rank 0 returns straight after a send the kernel cannot take whole;
    rank 1 starts reading only after that."""
    big = np.random.default_rng(7).normal(size=131_072)
    if rank == 0:
        comm.send(1, big)
        comm.send(1, np.array([1.0, 2.0]))
        return None
    time.sleep(0.3)
    first = comm.recv(0, timeout=30.0)
    last = comm.recv(0, timeout=30.0)
    return first.tobytes() == big.tobytes() and last.tolist() == [1.0, 2.0]


def _send_to_exited_worker(comm, rank):
    if rank == 1:
        return None
    time.sleep(0.3)  # rank 1 has exited by now
    comm.send(1, np.ones(3))  # does not raise
    comm.send(1, np.ones(131_072))
    t0 = time.perf_counter()
    try:
        comm.recv(1, timeout=30.0)
    except CommTimeoutError as exc:
        return str(exc), time.perf_counter() - t0
    return None


class TestWireFormat:
    def test_every_dtype_and_layout_round_trips_both_ways(self):
        results = run_processes(_wire_worker, 2, timeout=60.0)
        for rank, (got, owned, stats) in enumerate(results):
            expect = _wire_cases(1 - rank)
            for g, e in zip(got, expect):
                assert type(g) is np.ndarray
                assert g.dtype == e.dtype and g.shape == e.shape
                assert np.array_equal(g, e)
            assert all(owned)  # writable, and the receiver owns the memory
            # Stats count payload bytes, not the frame header.
            assert stats["messages_sent"] == stats["messages_received"] == len(expect)
            assert stats["bytes_sent"] == sum(a.nbytes for a in _wire_cases(rank))
            assert stats["bytes_received"] == sum(a.nbytes for a in expect)

    def test_object_arrays_are_refused(self):
        def worker(comm, rank):
            if rank == 0:
                comm.send(1, np.array([{}, None], dtype=object))
            return rank

        with pytest.raises(RuntimeError, match="cannot send"):
            run_processes(worker, 2, timeout=30.0)


class TestBackpressure:
    def test_burst_of_large_and_small_sends_arrives_in_order(self):
        assert run_processes(_burst_worker, 2, args=(8,), timeout=60.0) == [True, True]

    def test_sends_stay_in_order_while_the_peer_reads(self):
        assert run_processes(_stream_worker, 2, args=(16,), timeout=60.0) == [True, True]

    def test_send_just_before_return_is_delivered(self):
        assert run_processes(_send_then_return_worker, 2, timeout=60.0)[1] is True

    def test_send_to_exited_peer_does_not_raise(self):
        msg, waited = run_processes(_send_to_exited_worker, 2, timeout=60.0)[0]
        assert "peer exited" in msg
        assert waited < 5.0
