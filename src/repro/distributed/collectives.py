"""Collective algorithms over point-to-point channels.

These mirror the classic MPI/NCCL algorithms:

- :func:`ring_allreduce` — reduce-scatter + allgather around a ring;
  bandwidth-optimal (each rank moves ``2·(L-1)/L`` of the payload),
  the algorithm NCCL uses for large tensors.
- :func:`recursive_doubling_allreduce` — ``log₂ L`` rounds of pairwise
  exchange; latency-optimal for short vectors; power-of-two world sizes
  (falls back to ring otherwise).
- :func:`naive_allreduce` — gather-to-root + broadcast; reference
  implementation the tests compare the fast paths against.
- :func:`tree_broadcast` — binomial tree, ``log₂ L`` rounds.
- :func:`ring_allgather`.

All functions assume ``comm.send`` is eager (non-blocking w.r.t. the peer's
sends) as documented on :class:`repro.distributed.comm.Communicator`, so
ring steps where every rank sends before receiving cannot deadlock.
"""

# repro-lint: file-disable=dist-recv-timeout -- algorithm building blocks: every hop inherits the backend's DEFAULT_TIMEOUT contract; per-hop deadlines belong to the resilient layer wrapping the communicator, not to the ring/tree steps

from __future__ import annotations

import functools

import numpy as np

from repro.distributed.comm import Communicator, ReduceOp

__all__ = [
    "ring_allreduce",
    "recursive_doubling_allreduce",
    "naive_allreduce",
    "tree_broadcast",
    "ring_allgather",
]


@functools.lru_cache
def _chunks(n_elems: int, parts: int) -> tuple[slice, ...]:
    """Split ``n_elems`` into ``parts`` contiguous near-equal slices.

    Cached: every ring collective asks for the same few splits, and the
    slices (with them every chunk boundary and reduction order) depend on
    nothing else.
    """
    bounds = np.linspace(0, n_elems, parts + 1).astype(int)
    return tuple(slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:]))


def ring_allreduce(comm: Communicator, array: np.ndarray, op: str = "sum") -> np.ndarray:
    """Bandwidth-optimal ring allreduce (reduce-scatter + allgather)."""
    fn = ReduceOp.get(op)
    size, rank = comm.size, comm.rank
    right = (rank + 1) % size
    left = (rank - 1) % size
    shape = array.shape
    buf = array.reshape(-1).copy()
    chunks = _chunks(buf.size, size)

    # Phase 1: reduce-scatter. After step t, rank r holds the partial
    # reduction of chunk (r - t) mod L over t+1 contributors; after L-1
    # steps, rank r owns the fully-reduced chunk (r + 1) mod L.
    for t in range(size - 1):
        send_idx = (rank - t) % size
        recv_idx = (rank - t - 1) % size
        comm.send(right, buf[chunks[send_idx]])
        incoming = comm.recv(left)
        buf[chunks[recv_idx]] = fn(buf[chunks[recv_idx]], incoming)

    # Phase 2: allgather the reduced chunks around the ring.
    for t in range(size - 1):
        send_idx = (rank - t + 1) % size
        recv_idx = (rank - t) % size
        comm.send(right, buf[chunks[send_idx]])
        buf[chunks[recv_idx]] = comm.recv(left)

    return buf.reshape(shape)


def recursive_doubling_allreduce(
    comm: Communicator, array: np.ndarray, op: str = "sum"
) -> np.ndarray:
    """log₂(L) pairwise-exchange allreduce; requires power-of-two L."""
    size, rank = comm.size, comm.rank
    if size & (size - 1):
        return ring_allreduce(comm, array, op)
    fn = ReduceOp.get(op)
    buf = array.copy()
    distance = 1
    while distance < size:
        peer = rank ^ distance
        comm.send(peer, buf)
        buf = fn(buf, comm.recv(peer))
        distance <<= 1
    return buf


def naive_allreduce(comm: Communicator, array: np.ndarray, op: str = "sum") -> np.ndarray:
    """Gather to rank 0, reduce, broadcast back (reference implementation)."""
    fn = ReduceOp.get(op)
    size, rank = comm.size, comm.rank
    if rank == 0:
        buf = array.copy()
        for src in range(1, size):
            buf = fn(buf, comm.recv(src))
    else:
        comm.send(0, array)
        buf = array  # placeholder; overwritten by broadcast
    return tree_broadcast(comm, buf, root=0)


def _tree_peers(rank: int, size: int, root: int) -> tuple[int | None, list[int]]:
    """Parent and children of ``rank`` in a binomial tree rooted at ``root``.

    Works in 'virtual rank' space where the root is rank 0.
    """
    vrank = (rank - root) % size
    # Parent: clear the lowest set bit.
    parent_v = None
    if vrank != 0:
        parent_v = vrank & (vrank - 1)
    children_v = []
    mask = 1
    while mask < size:
        if vrank & (mask - 1) == 0 and vrank | mask != vrank:
            child = vrank | mask
            if child < size:
                children_v.append(child)
        if vrank & mask:
            break
        mask <<= 1
    to_real = lambda v: (v + root) % size  # noqa: E731
    parent = None if parent_v is None else to_real(parent_v)
    return parent, [to_real(c) for c in children_v]


def tree_broadcast(comm: Communicator, array: np.ndarray, root: int = 0) -> np.ndarray:
    """Binomial-tree broadcast: log₂(L) rounds."""
    parent, children = _tree_peers(comm.rank, comm.size, root)
    if parent is not None:
        array = comm.recv(parent)
    for child in children:
        comm.send(child, array)
    return array.copy()


def ring_allgather(comm: Communicator, array: np.ndarray) -> list[np.ndarray]:
    """Each rank contributes one array; all ranks get the full list."""
    size, rank = comm.size, comm.rank
    right = (rank + 1) % size
    left = (rank - 1) % size
    out: list[np.ndarray | None] = [None] * size
    out[rank] = array.copy()
    current = array
    for t in range(size - 1):
        comm.send(right, current)
        current = comm.recv(left)
        out[(rank - t - 1) % size] = current.copy()
    return out  # type: ignore[return-value]
