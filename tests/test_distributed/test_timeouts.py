"""Recv-timeout contracts, pinned across all three backends.

The resilience layer keys its retry/escalation logic on
:class:`CommTimeoutError` and (for the thread/process backends) on the
exact shape of the timeout message, so these contracts are pinned here:

- serial: point-to-point is meaningless in a world of 1 — recv raises
  immediately (RuntimeError), it never waits.
- threads/mp: recv raises :class:`CommTimeoutError` only after the
  deadline, with the ``"rank {r}: no message from rank {s} within {t}s"``
  message; a closed pipe (dead peer) maps onto the same error type so the
  retry path treats silence and death uniformly — and so does a
  ``run_threaded`` peer whose worker function is over. On both backends
  everything an exited peer sent is still delivered in order, then every
  recv fails at once ("peer exited"), however long the timeout asked for.
  A thread rank that raises also breaks the group's barrier, so a peer
  parked there fails at once too.
"""

from __future__ import annotations

import re
import time

import numpy as np
import pytest

from repro.distributed import CommTimeoutError, SerialCommunicator, run_threaded
from repro.distributed.mp import run_processes

TIMEOUT_MSG = r"rank 1: no message from rank 0 within 0\.2s"


class TestSerial:
    def test_recv_raises_immediately(self):
        comm = SerialCommunicator()
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="world of size 1"):
            comm.recv(0, timeout=30.0)
        assert time.perf_counter() - t0 < 1.0  # no waiting on the timeout

    def test_send_raises_too(self):
        with pytest.raises(RuntimeError):
            SerialCommunicator().send(0, np.ones(1))


def _thread_timeout_worker(comm, rank):
    out = None
    if rank == 1:
        t0 = time.perf_counter()
        try:
            comm.recv(0, timeout=0.2)
        except CommTimeoutError as exc:
            out = time.perf_counter() - t0, str(exc)
    comm.barrier()  # rank 0 is silent, not gone, while rank 1 waits
    return out


def _exited_peer_worker(comm, rank, peer_raises):
    """Rank 0 sends to every peer and exits; each peer gets what was queued,
    then an immediate dead-peer diagnosis instead of the 30 s it asked for."""
    if rank == 0:
        for peer in range(1, comm.size):
            for value in (1.0, 2.0, 3.0):
                comm.send(peer, np.full(2, value))
        if peer_raises:
            raise RuntimeError("rank 0 is done for")
        return None
    time.sleep(0.3)  # let rank 0 finish first
    got = [comm.recv(0, timeout=30.0)[0] for _ in range(3)]
    failures = []
    t0 = time.perf_counter()
    for _ in range(2):  # the marker (or EOF) stays for later receives
        assert comm.poll(0)  # ready, and recv tells why
        try:
            comm.recv(0, timeout=30.0)
        except CommTimeoutError as exc:
            failures.append(str(exc))
    return got, failures, time.perf_counter() - t0


class TestThreads:
    def test_recv_times_out_with_pinned_message(self):
        elapsed, msg = run_threaded(_thread_timeout_worker, 2)[1]
        assert elapsed >= 0.2
        assert re.search(TIMEOUT_MSG, msg)

    def test_timely_message_beats_deadline(self):
        def worker(comm, rank):
            if rank == 0:
                time.sleep(0.05)
                comm.send(1, np.full(1, 5.0))
                return None
            return comm.recv(0, timeout=5.0)

        assert run_threaded(worker, 2)[1][0] == 5.0

    def test_returned_peer_surfaces_as_instant_timeout(self):
        got, failures, waited = run_threaded(_exited_peer_worker, 2, args=(False,))[1]
        assert got == [1.0, 2.0, 3.0]  # queued before the exit: still delivered
        assert len(failures) == 2 and all("peer exited" in f for f in failures)
        assert waited < 1.0  # not the 30 s asked for

    def test_raised_peer_surfaces_as_instant_timeout(self):
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="done for"):
            # rank 1 finishes (instantly) too, so the root cause propagates
            run_threaded(_exited_peer_worker, 2, args=(True,))
        assert time.perf_counter() - t0 < 5.0

    def test_raised_peer_breaks_the_barrier(self):
        """Rank 1 waits in ``barrier()`` for a rank 0 that raises instead:
        the barrier fails at once as a dead peer, and rank 0's error is the
        one that surfaces — long before run_threaded's own timeout."""
        barrier_errors = []

        def worker(comm, rank):
            if rank == 0:
                time.sleep(0.2)  # rank 1 is parked in the barrier by then
                raise RuntimeError("rank 0 is done for")
            try:
                comm.barrier()
            except CommTimeoutError as exc:
                barrier_errors.append(str(exc))
                raise

        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="done for"):
            run_threaded(worker, 2, timeout=60.0)
        assert time.perf_counter() - t0 < 5.0
        assert len(barrier_errors) == 1 and "peer exited" in barrier_errors[0]


def _mp_timeout_worker(comm, rank):
    if rank == 1:
        t0 = time.perf_counter()
        try:
            comm.recv(0, timeout=0.2)
        except CommTimeoutError as exc:
            return time.perf_counter() - t0, str(exc)
        finally:
            comm.send(0, np.zeros(1))  # release rank 0
        return None
    # Silent, not gone, while rank 1 waits: an exited rank 0 would be the
    # dead-peer contract below, not a timeout.
    comm.recv(1, timeout=30.0)
    return None


class TestProcesses:
    def test_recv_times_out_with_pinned_message(self):
        elapsed, msg = run_processes(_mp_timeout_worker, 2, timeout=60.0)[1]
        assert elapsed >= 0.2
        assert re.search(TIMEOUT_MSG, msg)

    def test_dead_peer_surfaces_as_timeout(self):
        """A peer that exits closes its pipes; the EOF must surface as
        CommTimeoutError (an instant timeout) so the resilient retry path
        handles death and silence uniformly. Regression: forked ranks
        inherited every pipe end, so an exited rank's channel stayed open in
        its siblings and a recv on it waited out the whole timeout."""
        for world in (2, 3):
            results = run_processes(
                _exited_peer_worker, world, args=(False,), timeout=60.0
            )
            for got, failures, waited in results[1:]:
                assert got == [1.0, 2.0, 3.0]  # queued before the exit: delivered
                assert len(failures) == 2 and all("peer exited" in f for f in failures)
                assert waited < 5.0  # not the 30 s asked for
