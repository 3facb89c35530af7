"""Thread-backed communicator.

Ranks are threads inside one process; each ordered pair of ranks has a
dedicated unbounded queue, so sends are eager by construction (they never
block on the peer), which is the property the collective algorithms rely on.

numpy releases the GIL inside BLAS kernels, so thread ranks do overlap in
the compute-heavy sections; for honest process-level parallelism use
:mod:`repro.distributed.mp`.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from typing import Any, Callable, Sequence

import numpy as np

from repro.distributed.comm import (
    Communicator,
    CommTimeoutError,
    DEFAULT_TIMEOUT,
    OwnedFrame,
    RankFailure,
    WorkerFailure,
)

__all__ = ["ThreadCommunicator", "make_thread_group", "run_threaded"]

#: what :func:`run_threaded` leaves in every peer's mailbox when a rank's
#: worker function has returned or raised: nothing more will come from it
_PEER_EXITED = object()


class ThreadCommunicator(Communicator):
    """One rank's endpoint of a thread group (see :func:`make_thread_group`).

    When a ``controller`` (see :mod:`repro.analysis.explore`) is attached,
    every commit point — mailbox put/get, poll, barrier arrival — asks the
    controller for permission first, which is what lets the schedule
    explorer serialize and permute the interleaving deterministically. With
    no controller the hot path is untouched.
    """

    def __init__(
        self,
        rank: int,
        size: int,
        mailboxes: list[list["queue.Queue"]],
        barrier: threading.Barrier,
        controller: "object | None" = None,
    ):
        self._rank = rank
        self._size = size
        self._mailboxes = mailboxes
        self._barrier = barrier
        self._controller = controller

    @property
    def size(self) -> int:
        return self._size

    @property
    def rank(self) -> int:
        return self._rank

    def send(self, dest: int, array: np.ndarray) -> None:
        self._check_peer(dest)
        # Copy: sender may mutate its buffer after send returns (MPI eager
        # semantics), and queues share memory between threads. OwnedFrame
        # buffers are handed over by the resilience layer — no copy needed.
        self._count_send(array)
        if isinstance(array, OwnedFrame):
            array = array.view(np.ndarray)  # ownership handed over: no copy
        else:
            array = np.array(array, copy=True)
        if self._controller is not None:
            self._controller.send_commit(self._rank, dest, array)
        self._mailboxes[dest][self._rank].put(array)

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        self._check_peer(source)
        inbox = self._mailboxes[self._rank][source]
        try:
            if self._controller is not None:
                out = self._controller.recv_commit(
                    self._rank, source, inbox, timeout
                )
            else:
                out = inbox.get(timeout=timeout)
        except queue.Empty:
            raise CommTimeoutError(
                f"rank {self._rank}: no message from rank {source} "
                f"within {timeout}s"
            ) from None
        if out is _PEER_EXITED:
            # Same instant diagnosis as the pipe backend's EOF; the marker
            # goes back (it is the channel's last item) for later receives.
            inbox.put(_PEER_EXITED)
            raise CommTimeoutError(
                f"rank {self._rank}: rank {source} will send nothing more "
                "(peer exited)"
            )
        self._count_recv(out)
        return out

    def poll(self, source: int, timeout: float = 0.0) -> bool:
        self._check_peer(source)
        inbox = self._mailboxes[self._rank][source]
        if self._controller is not None:
            return self._controller.poll_commit(
                self._rank, source, inbox, timeout
            )
        if not inbox.empty():
            return True
        if timeout <= 0.0:
            return False
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if not inbox.empty():
                return True
            time.sleep(0.0005)
        return not inbox.empty()

    def barrier(self) -> None:
        """The group's ``threading.Barrier`` (or the explorer's commit point).

        A barrier that :func:`run_threaded` broke because a rank raised
        fails at once, as a receive from an exited peer does."""
        if self._controller is not None:
            self._controller.barrier_commit(self._rank, self._barrier.parties)
            return
        try:
            self._barrier.wait()
        except threading.BrokenBarrierError:
            raise CommTimeoutError(
                f"rank {self._rank}: a rank raised before reaching the barrier "
                "(peer exited)"
            ) from None


def make_thread_group(
    size: int, controller: "object | None" = None
) -> list[ThreadCommunicator]:
    """Create ``size`` communicators wired into one group.

    Intended for tests that drive all ranks from a thread pool (or even a
    single thread, since sends are eager). Passing a ``controller`` routes
    every commit point through the schedule explorer
    (:mod:`repro.analysis.explore`).
    """
    if size < 1:
        raise ValueError(f"world size must be >= 1, got {size}")
    mailboxes = [[queue.Queue() for _ in range(size)] for _ in range(size)]
    barrier = threading.Barrier(size)
    return [
        ThreadCommunicator(r, size, mailboxes, barrier, controller)
        for r in range(size)
    ]


def run_threaded(
    fn: Callable[..., Any],
    world_size: int,
    args: Sequence[Any] = (),
    timeout: float = 300.0,
) -> list[Any]:
    """Run ``fn(comm, rank, *args)`` on ``world_size`` threads; return results.

    Error propagation: when every rank either finished or failed, the
    lowest failing rank's exception is re-raised unchanged (original type
    and traceback), annotated with any co-failing ranks — except that a
    rank holding a *diagnosis* outranks a rank holding a wedge symptom
    (:class:`CommTimeoutError` / :class:`RankFailure`): when one rank
    times out on a peer and another names the actual divergence, the
    named error is the one worth surfacing. A failure plus
    ranks that never finished — wedged waiting on the failed peer — raises
    :class:`WorkerFailure`, which attributes every traceback to its rank
    instead of hiding the root cause behind a generic timeout. A timeout
    with *no* failed rank stays a :class:`CommTimeoutError`.

    A rank whose ``fn`` has returned or raised marks its outgoing channels,
    so a peer still receiving from it gets everything sent before the exit,
    in order, and then an immediate :class:`CommTimeoutError` instead of
    waiting out its timeout. A rank that *raised* also breaks the group's
    barrier, so a peer waiting there fails the same way; a rank that returned
    does not, since a peer may still be on its way out of the last barrier.
    """
    comms = make_thread_group(world_size)
    mailboxes = comms[0]._mailboxes
    results: list[Any] = [None] * world_size
    errors: list[BaseException | None] = [None] * world_size
    tracebacks: list[str | None] = [None] * world_size

    def target(rank: int) -> None:
        try:
            results[rank] = fn(comms[rank], rank, *args)
        except BaseException as exc:  # noqa: BLE001 — propagated to caller
            errors[rank] = exc
            tracebacks[rank] = traceback.format_exc()
            comms[rank]._barrier.abort()
        finally:
            for peer in range(world_size):
                if peer != rank:
                    mailboxes[peer][rank].put(_PEER_EXITED)

    threads = [
        threading.Thread(target=target, args=(r,), daemon=True)
        for r in range(world_size)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    wedged: list[int] = []
    for rank, t in enumerate(threads):
        t.join(timeout=max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            wedged.append(rank)
    failed = [r for r in range(world_size) if errors[r] is not None]
    if failed:
        if not wedged:
            symptom = (CommTimeoutError, RankFailure)
            primary = next(
                (r for r in failed if not isinstance(errors[r], symptom)),
                failed[0],
            )
            exc = errors[primary]
            if len(failed) > 1 and hasattr(exc, "add_note"):
                exc.add_note(f"[run_threaded] raised on rank {primary}; "
                             f"ranks {failed} all failed")
            raise exc
        raise WorkerFailure(
            {r: tracebacks[r] or repr(errors[r]) for r in failed}, wedged=wedged
        ) from errors[failed[0]]
    if wedged:
        raise CommTimeoutError(
            f"worker threads (ranks {wedged}) did not finish within {timeout}s"
        )
    return results
