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
  ``run_threaded`` peer whose worker function is over: everything it sent
  is still delivered in order, then every recv fails at once.
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
    if rank == 0:
        for value in (1.0, 2.0, 3.0):
            comm.send(1, np.full(2, value))
        if peer_raises:
            raise RuntimeError("rank 0 is done for")
        return None
    time.sleep(0.1)  # let rank 0 finish first
    got = [comm.recv(0, timeout=30.0)[0] for _ in range(3)]
    failures = []
    t0 = time.perf_counter()
    for _ in range(2):  # the marker stays for later receives
        assert comm.poll(0)  # like a closed pipe: ready, and recv tells why
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


def _mp_timeout_worker(comm, rank):
    if rank == 1:
        t0 = time.perf_counter()
        try:
            comm.recv(0, timeout=0.2)
        except CommTimeoutError as exc:
            return time.perf_counter() - t0, str(exc)
        return None
    return None


def _mp_dead_peer_worker(comm, rank):
    if rank == 0:
        return None  # exits immediately; its pipes close
    time.sleep(0.3)  # let rank 0 die first
    try:
        while True:
            comm.recv(0, timeout=5.0)
    except CommTimeoutError as exc:
        return str(exc)


class TestProcesses:
    def test_recv_times_out_with_pinned_message(self):
        elapsed, msg = run_processes(_mp_timeout_worker, 2, timeout=60.0)[1]
        assert elapsed >= 0.2
        assert re.search(TIMEOUT_MSG, msg)

    def test_dead_peer_surfaces_as_timeout(self):
        """A peer that exits closes its pipes; the EOF must surface as
        CommTimeoutError (an instant timeout) so the resilient retry path
        handles death and silence uniformly."""
        msg = run_processes(_mp_dead_peer_worker, 2, timeout=60.0)[1]
        assert msg is not None
        assert "closed" in msg or "no message" in msg
