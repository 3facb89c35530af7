"""Process-backed communicator (ranks are OS processes, channels are sockets).

This is the honest analogue of the paper's multi-GPU setup: each rank has
its own address space and model replica; all coordination goes through
explicit messages over one duplex Unix socketpair per pair of ranks.

Wire format: a message is a header (payload length, ndim, dtype string,
shape) followed by the array's own memory, written with one non-blocking
``sendmsg``. Nothing is pickled and, when the kernel takes the whole frame,
nothing is copied. Sends are eager (MPI-style): the unsent remainder of a
partial write is queued, in order, for a per-peer drain thread that runs
only while that queue is non-empty, and later sends queue behind it — so
the collective algorithms cannot deadlock on full socket buffers even when
every rank sends simultaneously. The receiver reads the header, allocates
the array and reads the payload straight into it.

Entry point: :func:`run_processes` — forks ``world_size`` workers, runs
``fn(comm, rank, *args)`` in each, and returns the per-rank results.
``fn`` and its arguments/results must be picklable under the ``fork`` start
method (module-level functions; closures work on Linux fork).
"""

from __future__ import annotations

import collections
import math
import multiprocessing as mp
import select
import socket
import struct
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

# Header: payload bytes, ndim, len(dtype.str); then dtype.str and the shape.
_PREFIX = struct.Struct("<QBB")
_SEND_FLAGS = socket.MSG_DONTWAIT | socket.MSG_NOSIGNAL


class _Channel:
    """One rank's end of the socket to one peer: framed sends and receives.

    A send writes the whole frame without blocking when the kernel buffer
    has room. Otherwise the remainder is spilled (copied, or referenced for
    an :class:`OwnedFrame`) to a drain thread that exists only until the
    spill queue is empty; while it exists, later sends queue behind it.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._poller = select.poll()
        self._poller.register(sock, select.POLLIN)
        self._lock = threading.Lock()
        self._spill: collections.deque = collections.deque()
        self._drainer: threading.Thread | None = None

    def send(self, array: np.ndarray) -> None:
        owned = isinstance(array, OwnedFrame)
        arr = np.asarray(array)
        if arr.dtype.hasobject or arr.dtype.names is not None:
            raise TypeError(f"cannot send arrays of dtype {arr.dtype}")
        if not arr.flags.c_contiguous:
            arr, owned = arr.copy(), True
        descr = arr.dtype.str.encode()
        header = (
            _PREFIX.pack(arr.nbytes, arr.ndim, len(descr))
            + descr
            + struct.pack(f"<{arr.ndim}q", *arr.shape)
        )
        payload = arr.reshape(-1).view(np.uint8)
        with self._lock:
            sent = 0
            if not self._spill:  # else queue behind the spill, in order
                try:
                    sent = self._sock.sendmsg([header, payload], (), _SEND_FLAGS)
                except BlockingIOError:
                    pass
                except OSError:
                    # Peer exited: drop the message, as a queue to a dead
                    # rank would; the next recv from it reports the exit.
                    return
            if sent < len(header):
                self._spill.append(header[sent:])
                sent = 0
            else:
                sent -= len(header)
            if sent < payload.size:
                rest = payload[sent:]
                self._spill.append(rest if owned else rest.copy())
            if self._spill and self._drainer is None:
                self._drainer = threading.Thread(target=self._drain, daemon=True)
                self._drainer.start()

    def _drain(self) -> None:
        while True:
            try:
                self._sock.sendall(self._spill[0])
                failed = False
            except OSError:
                failed = True  # peer exited: nobody will read the rest
            with self._lock:
                if failed:
                    self._spill.clear()
                else:
                    self._spill.popleft()
                if not self._spill:
                    self._drainer = None
                    return

    def poll(self, timeout: float) -> bool:
        """Is a message (or the peer's exit) ready within ``timeout`` s?"""
        return bool(self._poller.poll(max(0, math.ceil(timeout * 1000))))

    def recv(self, timeout: float) -> np.ndarray | None:
        """Next message, or ``None`` if none begins within ``timeout`` s.

        Raises :exc:`EOFError` / :exc:`OSError` if the peer exited. The
        timeout covers the wait for a message to begin; once its first
        bytes are here the rest is read to the end, so the stream never
        loses its frame boundaries.
        """
        prefix = bytearray(_PREFIX.size)
        try:
            got = self._sock.recv_into(prefix, 0, socket.MSG_DONTWAIT)
        except BlockingIOError:
            if not self.poll(timeout):
                return None
            got = 0
        self._read(memoryview(prefix)[got:])
        nbytes, ndim, dlen = _PREFIX.unpack(prefix)
        tail = bytearray(dlen + 8 * ndim)
        self._read(memoryview(tail))
        out = np.empty(
            struct.unpack_from(f"<{ndim}q", tail, dlen), np.dtype(tail[:dlen].decode())
        )
        if out.nbytes != nbytes:
            raise RuntimeError(f"corrupt frame: header says {nbytes} B, shape {out.nbytes} B")
        self._read(memoryview(out.reshape(-1).view(np.uint8)))
        return out

    def _read(self, view: memoryview) -> None:
        """Fill ``view`` from the socket (blocking); EOFError on exit."""
        while view.nbytes:
            got = self._sock.recv_into(view)
            if not got:
                raise EOFError("socket closed")
            view = view[got:]

    def close(self) -> None:
        """Flush the spill queue (bounded wait), so a message sent just
        before the rank returns is still delivered."""
        drainer = self._drainer
        if drainer is not None:
            drainer.join(timeout=5.0)


class PipeCommunicator(Communicator):
    """Communicator over pairwise duplex socketpairs (one per rank pair)."""

    def __init__(self, rank: int, size: int, connections: dict[int, socket.socket]):
        self._rank = rank
        self._size = size
        self._channels = {peer: _Channel(sock) for peer, sock in connections.items()}

    @property
    def size(self) -> int:
        return self._size

    @property
    def rank(self) -> int:
        return self._rank

    def send(self, dest: int, array: np.ndarray) -> None:
        self._check_peer(dest)
        self._count_send(array)
        self._channels[dest].send(array)

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        self._check_peer(source)
        try:
            out = self._channels[source].recv(timeout=timeout)
        except (EOFError, OSError) as exc:
            # Peer process exited and the socket closed: surface it on the
            # timeout path so the resilience layer's retry/escalation logic
            # applies uniformly (a dead peer is just an instant timeout).
            raise CommTimeoutError(
                f"rank {self._rank}: connection to rank {source} closed "
                f"(peer exited: {exc!r})"
            ) from exc
        if out is None:
            raise CommTimeoutError(
                f"rank {self._rank}: no message from rank {source} within {timeout}s"
            )
        self._count_recv(out)
        return out

    def poll(self, source: int, timeout: float = 0.0) -> bool:
        self._check_peer(source)
        # A closed socket polls readable, so the caller's recv surfaces the
        # dead-peer diagnosis instead of poll masking it as "no data".
        return self._channels[source].poll(timeout)

    def close(self) -> None:
        for channel in self._channels.values():
            channel.close()


def _worker(rank, conns, result_conns, fn, args):
    # Fork hands every rank a copy of every socket end. A socket reads EOF
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

    # Pairwise full-duplex sockets: conns[i][j] is rank i's endpoint to rank j.
    conns: list[dict[int, socket.socket]] = [dict() for _ in range(world_size)]
    for i in range(world_size):
        for j in range(i + 1, world_size):
            end_i, end_j = socket.socketpair()
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
