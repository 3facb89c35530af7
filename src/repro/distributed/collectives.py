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
- :func:`tree_broadcast` / :func:`tree_reduce` — binomial trees,
  ``log₂ L`` rounds.
- :func:`ring_allgather`.
- :func:`pairwise_alltoall` — ``L-1`` shifted pairwise exchanges, each
  block streamed as bounded row frames straight into the stacked result.

All functions assume ``comm.send`` is eager (non-blocking w.r.t. the peer's
sends) as documented on :class:`repro.distributed.comm.Communicator`, so
ring steps where every rank sends before receiving cannot deadlock.
"""

# repro-lint: file-disable=dist-recv-timeout -- algorithm building blocks: every hop inherits the backend's DEFAULT_TIMEOUT contract; per-hop deadlines belong to the resilient layer wrapping the communicator, not to the ring/tree steps

from __future__ import annotations

from itertools import zip_longest

import numpy as np

from repro.distributed.comm import Communicator, OwnedFrame, ReduceOp

__all__ = [
    "ring_allreduce",
    "recursive_doubling_allreduce",
    "naive_allreduce",
    "tree_broadcast",
    "tree_reduce",
    "ring_allgather",
    "pairwise_alltoall",
    "gather",
    "scatter",
]


#: alltoall streams a block as row frames of at most this many bytes, so the
#: copies in flight (the sender's, the pickled one, the receiver's) stay
#: small against the block. Measured on 2 process ranks exchanging 2.9 MB
#: each way: whole-block messages raise a step's peak RSS by a quarter,
#: 512 KiB frames by 1 %; 256 KiB frames cost 3 ms more per exchange (11 vs
#: 7.6 ms) for 0.7 % less.
ALLTOALL_FRAME_BYTES = 1 << 19


def _chunks(n_elems: int, parts: int) -> list[slice]:
    """Split ``n_elems`` into ``parts`` contiguous near-equal slices."""
    bounds = np.linspace(0, n_elems, parts + 1).astype(int)
    return [slice(int(a), int(b)) for a, b in zip(bounds[:-1], bounds[1:])]


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


def tree_reduce(
    comm: Communicator, array: np.ndarray, root: int = 0, op: str = "sum"
) -> np.ndarray | None:
    """Binomial-tree reduce to ``root``; non-root ranks return None."""
    fn = ReduceOp.get(op)
    parent, children = _tree_peers(comm.rank, comm.size, root)
    buf = array.copy()
    # Children in _tree_peers order send after completing their own subtree;
    # receive in reverse order (deepest subtrees complete first).
    for child in reversed(children):
        buf = fn(buf, comm.recv(child))
    if parent is not None:
        comm.send(parent, buf)
        return None
    return buf


def gather(
    comm: Communicator, array: np.ndarray, root: int = 0
) -> list[np.ndarray] | None:
    """Collect one array per rank at ``root`` (rank order); others get None.

    Binomial tree: each subtree leader forwards its accumulated list,
    log₂(L) rounds. Arrays may differ in shape across ranks.
    """
    parent, children = _tree_peers(comm.rank, comm.size, root)
    # Collect own + subtree contributions, keyed by source rank.
    bucket: dict[int, np.ndarray] = {comm.rank: array.copy()}
    for child in reversed(children):
        count = int(comm.recv(child)[0])
        for _ in range(count):
            src = int(comm.recv(child)[0])
            bucket[src] = comm.recv(child)
    if parent is not None:
        comm.send(parent, np.array([float(len(bucket))]))
        for src, payload in bucket.items():
            comm.send(parent, np.array([float(src)]))
            comm.send(parent, payload)
        return None
    return [bucket[r] for r in range(comm.size)]


def scatter(
    comm: Communicator, arrays: list[np.ndarray] | None, root: int = 0
) -> np.ndarray:
    """Distribute ``arrays[r]`` from ``root`` to each rank ``r``.

    Simple root-sends-direct implementation (scatter is latency-bound and
    rare in this workload; a tree variant buys little).
    """
    if comm.rank == root:
        if arrays is None or len(arrays) != comm.size:
            raise ValueError(
                f"root must supply exactly {comm.size} arrays, got "
                f"{None if arrays is None else len(arrays)}"
            )
        for dest in range(comm.size):
            if dest != root:
                comm.send(dest, arrays[dest])
        return np.array(arrays[root], copy=True)
    return comm.recv(root)


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


def _row_frames(block: np.ndarray) -> list[slice]:
    """Row ranges of ``block`` holding at most ``ALLTOALL_FRAME_BYTES`` each
    (at least one row; none for an empty block)."""
    if block.size == 0:
        return []
    rows = max(1, ALLTOALL_FRAME_BYTES // block[0].nbytes)
    return [slice(a, a + rows) for a in range(0, len(block), rows)]


def pairwise_alltoall(comm: Communicator, blocks: list[np.ndarray]) -> np.ndarray:
    """``blocks[p]`` to every rank ``p``; returns what arrived, stacked along
    axis 0 in rank order.

    Row counts travel first (one float per peer), so the result is
    allocated once and every frame lands in its final place. Step ``t``
    sends to ``rank + t`` while receiving from ``rank - t``, frame by
    frame, so neither side queues a whole block.
    """
    size, rank = comm.size, comm.rank
    own = blocks[rank]
    for t in range(1, size):
        dest = (rank + t) % size
        comm.send(dest, np.array([float(len(blocks[dest]))]))
    counts = [len(own)] * size
    for t in range(1, size):
        src = (rank - t) % size
        counts[src] = int(comm.recv(src)[0])
    ends = np.cumsum(counts)
    out = np.empty((ends[-1], *own.shape[1:]))
    out[ends[rank] - counts[rank] : ends[rank]] = own

    for t in range(1, size):
        dest, src = (rank + t) % size, (rank - t) % size
        outgoing = blocks[dest]
        incoming = out[ends[src] - counts[src] : ends[src]]
        for send_rows, recv_rows in zip_longest(
            _row_frames(outgoing), _row_frames(incoming)
        ):
            if send_rows is not None:
                # The frame is this function's own copy, so the backend
                # need not copy it again.
                frame = np.array(outgoing[send_rows], order="C")
                comm.send(dest, frame.view(OwnedFrame))
            if recv_rows is not None:
                incoming[recv_rows] = comm.recv(src)
    return out
