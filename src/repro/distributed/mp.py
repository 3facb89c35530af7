"""Process-backed communicator (ranks are OS processes, channels are pipes).

This is the honest analogue of the paper's multi-GPU setup: each rank has
its own address space and model replica; all coordination goes through
explicit messages. Sends are made eager with a per-peer sender thread
(MPI-style eager protocol), so the collective algorithms cannot deadlock on
full pipe buffers even when every rank sends simultaneously.

Entry point: :func:`run_processes` — forks ``world_size`` workers, runs
``fn(comm, rank, *args)`` in each, and returns the per-rank results.
``fn`` and its arguments/results must be picklable under the ``fork`` start
method (module-level functions; closures work on Linux fork).
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
import time
import traceback
from multiprocessing.connection import wait as _conn_wait
from typing import Any, Callable, Sequence

import numpy as np

from repro.distributed.comm import (
    Communicator,
    CommTimeoutError,
    DEFAULT_TIMEOUT,
    OwnedFrame,
    WorkerFailure,
)

__all__ = ["PipeCommunicator", "run_processes"]


class _EagerSender:
    """Background thread draining an outbox queue into a pipe connection."""

    def __init__(self, conn):
        self._conn = conn
        self._outbox: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._drain, daemon=True)
        self._thread.start()

    def _drain(self) -> None:
        while True:
            item = self._outbox.get()
            if item is None:
                return
            try:
                self._conn.send(item)
            except (BrokenPipeError, OSError):
                return

    def send(self, array: np.ndarray) -> None:
        if isinstance(array, OwnedFrame):
            # Ownership was handed over — no copy; strip the marker subclass
            # (a zero-copy view) so pickling takes the plain-ndarray path.
            array = array.view(np.ndarray)
        else:
            array = np.array(array, copy=True)
        self._outbox.put(array)

    def close(self) -> None:
        self._outbox.put(None)
        self._thread.join(timeout=5.0)


class PipeCommunicator(Communicator):
    """Communicator over pairwise ``multiprocessing.Pipe`` connections."""

    def __init__(self, rank: int, size: int, connections: dict[int, Any]):
        self._rank = rank
        self._size = size
        self._conns = connections
        self._senders: dict[int, _EagerSender] = {}

    @property
    def size(self) -> int:
        return self._size

    @property
    def rank(self) -> int:
        return self._rank

    def send(self, dest: int, array: np.ndarray) -> None:
        self._check_peer(dest)
        if dest not in self._senders:
            self._senders[dest] = _EagerSender(self._conns[dest])
        self._count_send(array)
        self._senders[dest].send(array)

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        self._check_peer(source)
        conn = self._conns[source]
        try:
            if not conn.poll(timeout):
                raise CommTimeoutError(
                    f"rank {self._rank}: no message from rank {source} within {timeout}s"
                )
            out = conn.recv()
        except (EOFError, BrokenPipeError, OSError) as exc:
            # Peer process exited and the pipe closed: surface it on the
            # timeout path so the resilience layer's retry/escalation logic
            # applies uniformly (a dead peer is just an instant timeout).
            raise CommTimeoutError(
                f"rank {self._rank}: connection to rank {source} closed "
                f"(peer exited: {exc!r})"
            ) from exc
        self._count_recv(out)
        return out

    def poll(self, source: int, timeout: float = 0.0) -> bool:
        self._check_peer(source)
        try:
            return bool(self._conns[source].poll(timeout))
        except (EOFError, BrokenPipeError, OSError):
            # Closed pipe: report ready so the caller's recv surfaces the
            # dead-peer diagnosis instead of poll masking it as "no data".
            return True

    def close(self) -> None:
        for sender in self._senders.values():
            sender.close()


def _worker(rank, conns, result_conns, fn, args):
    # Fork hands every rank a copy of every pipe end. A pipe reports EOF
    # only once *all* holders of the far end are gone, so keep this rank's
    # own ends and close the rest: then a rank that exits is seen by its
    # peers (and the parent) at once, not when the last sibling exits.
    for other, peer_ends in enumerate(conns):
        if other != rank:
            for conn in peer_ends.values():
                conn.close()
            result_conns[other].close()
    result_conn = result_conns[rank]
    comm = PipeCommunicator(rank, len(conns), conns[rank])
    try:
        result = fn(comm, rank, *args)
        result_conn.send((rank, "ok", result))
    except BaseException:  # noqa: BLE001 — shipped to the parent
        # Ship the full formatted traceback: the exception object itself may
        # not pickle, and the parent needs the root cause with rank
        # attribution, not a bare repr.
        result_conn.send((rank, "error", traceback.format_exc()))
    finally:
        comm.close()
        result_conn.close()


def run_processes(
    fn: Callable[..., Any],
    world_size: int,
    args: Sequence[Any] = (),
    timeout: float = 300.0,
) -> list[Any]:
    """Run ``fn(comm, rank, *args)`` on ``world_size`` processes.

    Returns the per-rank results (rank order). If any rank raised, a
    :class:`WorkerFailure` attributes each remote traceback to its rank —
    and ranks that produce no result while a peer has already failed are
    reported as *wedged* (after a short grace period) instead of burning
    the whole timeout and masking the root cause.
    """
    if world_size < 1:
        raise ValueError(f"world size must be >= 1, got {world_size}")
    ctx = mp.get_context("fork")

    # Pairwise full-duplex pipes: conns[i][j] is rank i's endpoint to rank j.
    conns: list[dict[int, Any]] = [dict() for _ in range(world_size)]
    for i in range(world_size):
        for j in range(i + 1, world_size):
            end_i, end_j = ctx.Pipe(duplex=True)
            conns[i][j] = end_i
            conns[j][i] = end_j

    result_parent, result_children = [], []
    for _ in range(world_size):
        parent_end, child_end = ctx.Pipe(duplex=False)
        result_parent.append(parent_end)
        result_children.append(child_end)

    procs = [
        ctx.Process(
            target=_worker,
            args=(r, conns, result_children, fn, tuple(args)),
            daemon=True,
        )
        for r in range(world_size)
    ]
    for p in procs:
        p.start()
    # Parent closes its copies of the child ends so EOF propagates.
    for child_end in result_children:
        child_end.close()
    for rank_conns in conns:
        for c in rank_conns.values():
            c.close()

    results: list[Any] = [None] * world_size
    failures: dict[int, str] = {}
    conn_to_rank = {id(conn): r for r, conn in enumerate(result_parent)}
    pending = {r: conn for r, conn in enumerate(result_parent)}
    deadline = time.monotonic() + timeout
    grace_deadline: float | None = None
    failure_grace = min(10.0, timeout)
    while pending:
        now = time.monotonic()
        if now >= deadline:
            break
        if failures and grace_deadline is None:
            # Root cause is known; give the survivors a short grace period
            # to report, then stop waiting instead of masking the failure
            # behind the full timeout.
            grace_deadline = now + failure_grace
        if grace_deadline is not None and now >= grace_deadline:
            break
        wait_for = min(deadline, grace_deadline or deadline) - now
        for conn in _conn_wait(list(pending.values()), timeout=max(0.0, min(wait_for, 0.25))):
            rank = conn_to_rank[id(conn)]
            del pending[rank]
            try:
                _, status, payload = conn.recv()
            except (EOFError, OSError):
                failures[rank] = "worker died without reporting a result"
                continue
            if status == "ok":
                results[rank] = payload
            else:
                failures[rank] = payload

    wedged = sorted(pending)
    for p in procs:
        p.join(timeout=0.5 if (failures or wedged) else 10.0)
        if p.is_alive():
            p.terminate()
    if failures:
        raise WorkerFailure(failures, wedged=wedged)
    if wedged:
        raise CommTimeoutError(
            f"ranks {wedged} produced no result within {timeout}s"
        )
    return results
