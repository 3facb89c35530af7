"""``Communicator.alltoall``: a row-sharded matrix becomes a column-sharded
one — on every world size, backend and wrapper stack, with equal, unequal
and empty blocks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import CommSanitizer
from repro.distributed import collectives, run_threaded
from repro.distributed.faults import FaultEvent, FaultPlan, FaultyCommunicator
from repro.distributed.mp import run_processes
from repro.distributed.resilient import ResilientCommunicator, RetryPolicy
from repro.distributed.serial import SerialCommunicator
from repro.obs import Tracer

WIDTH = 11

#: per-rank row counts: equal, unequal, and with ranks that hold nothing
ROW_COUNTS = {
    1: ([4], [0]),
    2: ([3, 3], [5, 2], [0, 4]),
    3: ([2, 2, 2], [4, 0, 1]),
    4: ([1, 1, 1, 1], [3, 0, 5, 2], [0, 0, 0, 0]),
}
CASES = [(size, rows) for size, many in ROW_COUNTS.items() for rows in many]


def _local(rank: int, rows: int, width: int = WIDTH) -> np.ndarray:
    """Rank ``rank``'s row shard: every entry names its rank, row and column."""
    r, c = np.meshgrid(np.arange(rows), np.arange(width), indexing="ij")
    return 1e4 * rank + 1e2 * r + c + 0.5


def _bounds(width: int, size: int) -> np.ndarray:
    return np.linspace(0, width, size + 1).astype(int)


def _transpose_sharding(comm, rank, rows, width=WIDTH):
    local = _local(rank, rows[rank], width)
    b = _bounds(width, comm.size)
    return comm.alltoall([local[:, lo:hi] for lo, hi in zip(b[:-1], b[1:])])


def _expected(rank: int, rows, width: int = WIDTH) -> np.ndarray:
    full = np.concatenate([_local(r, n, width) for r, n in enumerate(rows)])
    b = _bounds(width, len(rows))
    return full[:, b[rank] : b[rank + 1]]


def _stack(kind: str, comm, rank: int):
    if kind == "resilient":
        return ResilientCommunicator(comm, RetryPolicy(attempt_timeout=5.0))
    if kind == "faulty":
        # a duplicated frame and a transiently corrupted one, both absorbed
        # by the resilience layer underneath the collective
        plan = FaultPlan([
            FaultEvent(kind="duplicate", rank=0, op="send", index=1),
            FaultEvent(kind="corrupt", rank=1, op="send", index=2, transient=True),
        ])
        return ResilientCommunicator(
            FaultyCommunicator(comm, plan),
            RetryPolicy(attempt_timeout=5.0, backoff_base=0.001),
        )
    if kind == "sanitizer":
        return CommSanitizer(comm, timeout=20.0)
    return comm


def _stacked_worker(comm, rank, rows, kind):
    stack = _stack(kind, comm, rank)
    out = _transpose_sharding(stack, rank, rows)
    again = _transpose_sharding(stack, rank, rows)  # channels left clean
    if kind == "sanitizer":
        stack.barrier()  # flush and verify outstanding fingerprints
    assert np.array_equal(out, again)
    return out


class TestTransposition:
    @pytest.mark.parametrize(
        "size,rows,kind",
        [
            (size, rows, kind)
            for size, rows in CASES
            for kind in ("bare", "resilient", "faulty", "sanitizer")
            if size > 1 or kind != "faulty"  # a world of one has no channel to fault
        ],
    )
    def test_threads(self, size, rows, kind):
        results = run_threaded(_stacked_worker, size, args=(rows, kind))
        for rank, out in enumerate(results):
            assert np.array_equal(out, _expected(rank, rows))

    @pytest.mark.parametrize("size,rows", [(2, [5, 2]), (3, [4, 0, 1])])
    @pytest.mark.parametrize("kind", ["bare", "resilient", "sanitizer"])
    def test_processes(self, size, rows, kind):
        results = run_processes(_stacked_worker, size, args=(rows, kind))
        for rank, out in enumerate(results):
            assert np.array_equal(out, _expected(rank, rows))

    def test_serial_communicator_copies_its_own_block(self):
        block = np.arange(6.0).reshape(2, 3)
        out = SerialCommunicator().alltoall([block])
        assert np.array_equal(out, block) and out is not block

    def test_blocks_larger_than_a_frame_arrive_in_order(self, monkeypatch):
        # 3-row frames: every block takes several, and the two directions
        # of a pair need different numbers of them
        monkeypatch.setattr(collectives, "ALLTOALL_FRAME_BYTES", 3 * 4 * 8)
        rows = [10, 1, 7]
        results = run_threaded(_transpose_sharding, 3, args=(rows, 12))
        for rank, out in enumerate(results):
            assert np.array_equal(out, _expected(rank, rows, 12))

    def test_one_dimensional_blocks(self):
        def worker(comm, rank):
            return comm.alltoall(
                [np.full(rank + p, 10.0 * rank + p) for p in range(comm.size)]
            )

        for rank, out in enumerate(run_threaded(worker, 3)):
            expect = np.concatenate(
                [np.full(src + rank, 10.0 * src + rank) for src in range(3)]
            )
            assert np.array_equal(out, expect)

    def test_sender_may_reuse_its_buffer(self):
        """Frames are copies: overwriting the source after the call returns
        cannot change what a slower peer receives."""

        def worker(comm, rank):
            local = _local(rank, 6)
            b = _bounds(WIDTH, comm.size)
            out = comm.alltoall([local[:, lo:hi] for lo, hi in zip(b[:-1], b[1:])])
            local[:] = -1.0
            comm.barrier()
            return out

        for rank, out in enumerate(run_threaded(worker, 2)):
            assert np.array_equal(out, _expected(rank, [6, 6]))


class TestContract:
    def test_wrong_number_of_blocks(self):
        def worker(comm, rank):
            with pytest.raises(ValueError, match="one array"):
                comm.alltoall([np.zeros((1, 2))])
            return True

        assert all(run_threaded(worker, 2))

    def test_scalar_blocks_are_refused(self):
        with pytest.raises(ValueError, match="one array"):
            SerialCommunicator().alltoall([np.float64(1.0)])

    def test_counted_and_spanned(self):
        """One collective call; ``collective_bytes`` is what went to peers
        (the own block moves nowhere); the span carries the same bytes."""
        rows = [3, 5]

        def worker(comm, rank):
            tracer = Tracer(rank=rank)
            comm.attach_tracer(tracer)
            before = comm.stats.snapshot()
            _transpose_sharding(comm, rank, rows)
            after = comm.stats.snapshot()
            (span,) = [e for e in tracer.events if e.name == "comm.alltoall"]
            return {k: after[k] - before[k] for k in after}, span.attrs["bytes"]

        b = _bounds(WIDTH, 2)
        for rank, (delta, span_bytes) in enumerate(run_threaded(worker, 2)):
            own_width = b[rank + 1] - b[rank]
            to_peers = rows[rank] * (WIDTH - own_width) * 8
            assert delta["collective_calls"] == 1
            assert delta["collective_bytes"] == span_bytes == to_peers
            # wire truth: the row count, then the block in one frame
            assert delta["messages_sent"] == 2
            assert delta["bytes_sent"] == to_peers + 8

    def test_sanitizer_names_a_rank_that_skipped_the_exchange(self):
        from repro.analysis.comm_sanitizer import CollectiveMismatchError

        def worker(comm, rank):
            sane = CommSanitizer(comm, timeout=2.0)
            if rank == 0:
                return sane.alltoall([np.zeros((1, 2)), np.zeros((1, 2))])  # repro-lint: disable=dist-rank-collective -- the seeded divergence under test
            return sane.allreduce(np.zeros(2))  # repro-lint: disable=dist-rank-collective -- the seeded divergence under test

        with pytest.raises(CollectiveMismatchError, match="alltoall"):
            run_threaded(worker, 2)
