"""Communicator interface and reduction operators."""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "ReduceOp",
    "Communicator",
    "CommLayer",
    "SubCommunicator",
    "build_comm",
    "CommStats",
    "CommTimeoutError",
    "ChecksumError",
    "RankFailure",
    "WorkerFailure",
    "OwnedFrame",
]

#: default seconds to wait on a peer before declaring the job wedged
DEFAULT_TIMEOUT = 60.0


class CommTimeoutError(RuntimeError):
    """A peer did not produce an expected message in time (deadlock guard)."""


class ChecksumError(RuntimeError):
    """A framed message failed its payload checksum (corruption in transit).

    Raised (and possibly retried) by
    :class:`repro.distributed.resilient.ResilientCommunicator`.
    """


class RankFailure(RuntimeError):
    """A peer rank is considered failed after retries were exhausted.

    Carries the rank that failed (``rank``, in the failing communicator's
    numbering — translate through ``SubCommunicator.group`` for global
    ranks) and a short ``reason``. The elastic layer
    (:mod:`repro.distributed.elastic`) catches this to shrink the world
    onto the survivors.
    """

    def __init__(self, rank: int, reason: str):
        self.rank = rank
        self.reason = reason
        super().__init__(f"rank {rank} failed: {reason}")


class WorkerFailure(RuntimeError):
    """One or more worker ranks raised inside ``run_threaded``/``run_processes``.

    ``failures`` maps rank -> formatted traceback (or exception repr) so the
    root cause is attributed instead of surfacing as a generic timeout on
    the surviving ranks.
    """

    def __init__(self, failures: dict[int, str], wedged: list[int] | None = None):
        self.failures = dict(failures)
        self.wedged = list(wedged or [])
        parts = [
            f"rank {rank} raised:\n{tb.rstrip()}"
            for rank, tb in sorted(self.failures.items())
        ]
        if self.wedged:
            parts.append(
                f"ranks {self.wedged} produced no result "
                "(likely wedged waiting on a failed peer)"
            )
        super().__init__(
            "distributed run failed in "
            f"{len(self.failures)} worker rank(s):\n" + "\n".join(parts)
        )


class OwnedFrame(np.ndarray):
    """Marker subclass: the sender hands over ownership of this buffer.

    Backends defensively copy outgoing arrays (the caller may mutate its
    buffer after ``send`` returns, MPI eager semantics). The resilience
    layer builds a fresh frame per send anyway, so it tags frames with this
    view type and backends skip the second copy — keeping the fault-free
    overhead of the framing layer to one pass over the payload.
    """


class ReduceOp:
    """Elementwise reduction operators for allreduce."""

    _OPS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
        "sum": lambda a, b: a + b,
        "prod": lambda a, b: a * b,
        "max": np.maximum,
        "min": np.minimum,
    }

    @classmethod
    def get(cls, op: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        if op == "mean":
            # 'mean' is sum followed by division by world size; the caller
            # (Communicator.allreduce) handles the division.
            return cls._OPS["sum"]
        try:
            return cls._OPS[op]
        except KeyError:
            raise ValueError(
                f"unknown reduce op {op!r}; expected one of "
                f"{sorted(cls._OPS) + ['mean']}"
            ) from None

    @classmethod
    def names(cls) -> list[str]:
        return sorted(cls._OPS) + ["mean"]


class CommStats:
    """Traffic counters for one communicator endpoint.

    Filled by the backends' ``send``/``recv``; lets users verify
    communication-volume claims (e.g. the paper's O(hn) floats per
    data-parallel step) empirically: read, do work, diff.

    The resilience layer (:mod:`repro.distributed.resilient`) additionally
    fills the recovery counters (``retries`` …), so fault recovery is
    observable the same way traffic is. Because wrappers
    (:class:`~repro.distributed.resilient.ResilientCommunicator`, fault
    injectors, the comm sanitizer) all delegate ``stats`` to the wrapped
    backend, one :meth:`snapshot` call captures the full comm picture of a
    whole stack: point-to-point traffic (``bytes_sent``/``bytes_received``
    include framing overhead — the wire truth), collective-level payload
    accounting (``collective_calls``/``collective_bytes``), and recovery
    counters.
    """

    __slots__ = (
        "messages_sent",
        "messages_received",
        "bytes_sent",
        "bytes_received",
        # -- collective-level accounting (base Communicator collectives) --
        "collective_calls",
        "collective_bytes",
        # -- resilience counters (ResilientCommunicator) --
        "retries",
        "checksum_errors",
        "duplicates_discarded",
        "timeouts_recovered",
        "rank_failures",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.collective_calls = 0
        self.collective_bytes = 0
        self.retries = 0
        self.checksum_errors = 0
        self.duplicates_discarded = 0
        self.timeouts_recovered = 0
        self.rank_failures = 0

    def snapshot(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:
        return (
            f"CommStats(sent={self.messages_sent} msgs/{self.bytes_sent} B, "
            f"recv={self.messages_received} msgs/{self.bytes_received} B)"
        )


class Communicator:
    """Abstract communicator: point-to-point plus collectives.

    Backends implement ``send``/``recv`` (and may override collectives with
    something smarter); the default collective implementations live in
    :mod:`repro.distributed.collectives` and are algorithm-selectable.
    Backends call :meth:`_count_send`/:meth:`_count_recv` so
    :attr:`stats` tracks traffic uniformly.
    """

    #: collective algorithm: 'ring' | 'rec_double' | 'naive'
    algorithm = "ring"

    #: span recorder for collective latency+bytes; the class-level default
    #: is the shared disabled tracer, so un-instrumented communicators pay
    #: one attribute load per collective. Attach with :meth:`attach_tracer`
    #: on the *outermost* wrapper of a stack (wrappers run the base-class
    #: collective algorithms on themselves, so that is where spans fire).
    tracer: Tracer = NULL_TRACER

    def attach_tracer(self, tracer: Tracer) -> None:
        """Report this communicator's collectives as spans on ``tracer``."""
        self.tracer = tracer

    @property
    def stats(self) -> CommStats:
        existing = getattr(self, "_stats_counters", None)
        if existing is None:
            existing = CommStats()
            # object.__setattr__-free: communicators are plain classes.
            self._stats_counters = existing
        return existing

    def _count_send(self, array: np.ndarray) -> None:
        s = self.stats
        s.messages_sent += 1
        s.bytes_sent += int(np.asarray(array).nbytes)

    def _count_recv(self, array: np.ndarray) -> None:
        s = self.stats
        s.messages_received += 1
        s.bytes_received += int(np.asarray(array).nbytes)

    @property
    def size(self) -> int:
        raise NotImplementedError

    @property
    def rank(self) -> int:
        raise NotImplementedError

    # -- point to point -------------------------------------------------------

    def send(self, dest: int, array: np.ndarray) -> None:
        """Asynchronous (eager) send; must never deadlock against a send
        from the peer."""
        raise NotImplementedError

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        raise NotImplementedError

    def poll(self, source: int, timeout: float = 0.0) -> bool:
        """Is a message from ``source`` ready? (``MPI_Iprobe`` analogue.)

        ``timeout=0`` never blocks. Optional capability: backends that
        cannot probe raise :exc:`NotImplementedError`, and callers that
        merely *optimise* on it (e.g. the comm sanitizer's lazy
        fingerprint drain) must degrade to plain ``recv``.
        """
        raise NotImplementedError

    def barrier(self) -> None:
        """Dissemination barrier over this communicator's *own* ``send`` /
        ``recv``: what a layer does to point-to-point traffic (framing,
        faults, rank translation) applies to barrier traffic too, and a dead
        peer fails a recv instead of wedging a backend-native barrier."""
        token = np.zeros(1)
        distance = 1
        while distance < self.size:
            self.send((self.rank + distance) % self.size, token)
            self.recv((self.rank - distance) % self.size, timeout=DEFAULT_TIMEOUT)
            distance <<= 1

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ValueError(f"peer {peer} out of range for world size {self.size}")
        if peer == self.rank:
            raise ValueError("self-send is not supported")

    # -- collectives (default implementations) ----------------------------------

    def _count_collective(self, nbytes: int) -> int:
        s = self.stats
        s.collective_calls += 1
        s.collective_bytes += nbytes
        return nbytes

    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        from repro.distributed import collectives

        array = np.ascontiguousarray(array, dtype=np.float64)
        nbytes = self._count_collective(array.nbytes)
        with self.tracer.span(
            "comm.allreduce", bytes=nbytes, op=op, algorithm=self.algorithm
        ):
            if self.size == 1:
                out = array.copy()
            elif self.algorithm == "ring":
                out = collectives.ring_allreduce(self, array, op)
            elif self.algorithm == "rec_double":
                out = collectives.recursive_doubling_allreduce(self, array, op)
            elif self.algorithm == "naive":
                out = collectives.naive_allreduce(self, array, op)
            else:
                raise ValueError(
                    f"unknown collective algorithm {self.algorithm!r}"
                )
        if op == "mean":
            out = out / self.size
        return out

    def broadcast(self, array: np.ndarray, root: int = 0) -> np.ndarray:
        from repro.distributed import collectives

        array = np.ascontiguousarray(array, dtype=np.float64)
        nbytes = self._count_collective(array.nbytes)
        with self.tracer.span("comm.broadcast", bytes=nbytes, root=root):
            if self.size == 1:
                return array.copy()
            return collectives.tree_broadcast(self, array, root)

    def allgather(self, array: np.ndarray) -> list[np.ndarray]:
        from repro.distributed import collectives

        array = np.ascontiguousarray(array, dtype=np.float64)
        nbytes = self._count_collective(array.nbytes)
        with self.tracer.span("comm.allgather", bytes=nbytes):
            if self.size == 1:
                return [array.copy()]
            return collectives.ring_allgather(self, array)

    # -- subcommunicators -----------------------------------------------------------

    def split(self, color: int, key: int | None = None) -> "SubCommunicator":
        """MPI_Comm_split: ranks with the same ``color`` form a subgroup,
        ordered by ``key`` (ties broken by parent rank; default: parent
        rank order). Collective — every rank of this communicator must
        call it.

        The subcommunicator reuses the parent's channels with rank
        translation, so parent-level and sub-level traffic must not be
        interleaved concurrently between the same pair of ranks (use one
        context at a time — the hierarchical-collective pattern).
        """
        key = self.rank if key is None else key
        triples = self.allgather(
            np.array([float(color), float(key), float(self.rank)])
        )
        members = sorted(
            (int(k), int(r))
            for c, k, r in (t for t in triples)
            if int(c) == color
        )
        group = [r for _, r in members]
        return SubCommunicator(self, group)


class CommLayer(Communicator):
    """One layer of a communicator stack (assembled by :func:`build_comm`):
    shares ``inner``'s world, traffic counters, ``algorithm`` and tracer,
    and passes point-to-point through; a layer overrides what it changes.
    Collectives and ``barrier`` are the base-class algorithms over the
    layer's own ``send``/``recv``, so spans and ``collective_*`` counters
    fire once, on the layer the caller holds."""

    def __init__(self, inner: Communicator):
        self.inner = inner
        self.algorithm = inner.algorithm
        self.tracer = inner.tracer  # layers stay on the inner timeline

    @property
    def size(self) -> int:
        return self.inner.size

    @property
    def rank(self) -> int:
        return self.inner.rank

    @property
    def stats(self) -> CommStats:
        return self.inner.stats

    def send(self, dest: int, array: np.ndarray) -> None:
        self.inner.send(dest, array)

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        return self.inner.recv(source, timeout=timeout)

    def poll(self, source: int, timeout: float = 0.0) -> bool:
        return self.inner.poll(source, timeout=timeout)


class SubCommunicator(CommLayer):
    """A communicator over a subset of a parent's ranks (rank-translated)."""

    def __init__(self, parent: Communicator, group: list[int]):
        if parent.rank not in group:
            raise ValueError(
                f"rank {parent.rank} is not a member of the group {group}"
            )
        if len(set(group)) != len(group):
            raise ValueError(f"duplicate ranks in group {group}")
        super().__init__(parent)
        self.group = list(group)
        self._rank = self.group.index(parent.rank)

    @property
    def size(self) -> int:
        return len(self.group)

    @property
    def rank(self) -> int:
        return self._rank

    def send(self, dest: int, array: np.ndarray) -> None:
        self._check_peer(dest)
        self.inner.send(self.group[dest], array)

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        self._check_peer(source)
        return self.inner.recv(self.group[source], timeout=timeout)

    def poll(self, source: int, timeout: float = 0.0) -> bool:
        self._check_peer(source)
        return self.inner.poll(self.group[source], timeout=timeout)


def build_comm(backend_comm: Communicator, *, plan=None, retry=None, sanitize=None):
    """Assemble one rank's communicator stack in its only legal order::

        backend → FaultyCommunicator → ResilientCommunicator
                → CommSanitizer → MismatchedCollectiveInjector

    A ``plan``'s (:class:`~repro.distributed.faults.FaultPlan`) op-scoped
    events put the fault injector on the backend, so corruption hits framed
    bytes like a flaky link; its ``mismatch`` events put the collective
    swapper on top, where the sanitizer beneath sees the swap. ``retry`` (a
    :class:`~repro.distributed.resilient.RetryPolicy`) adds checksummed
    retrying framing, below the sanitizer so its fingerprint frames are
    protected like payload. ``sanitize`` (seconds: a :class:`~repro.analysis
    .comm_sanitizer.CommSanitizer`'s progress deadline) adds congruence
    checking. All ``None`` returns ``backend_comm`` itself.
    """
    from repro.distributed.faults import (
        FaultyCommunicator,
        MismatchedCollectiveInjector,
    )

    comm = backend_comm
    events = plan.events if plan is not None else ()
    op_scoped_kinds = {e.kind for e in events if e.index is not None}
    if op_scoped_kinds - {"mismatch"}:
        comm = FaultyCommunicator(comm, plan)
    if retry is not None:
        from repro.distributed.resilient import ResilientCommunicator

        comm = ResilientCommunicator(comm, retry)
    if sanitize is not None:
        from repro.analysis.comm_sanitizer import CommSanitizer

        comm = CommSanitizer(comm, timeout=sanitize)
    if "mismatch" in op_scoped_kinds:
        comm = MismatchedCollectiveInjector(comm, plan)
    return comm
