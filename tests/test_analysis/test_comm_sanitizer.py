"""CommSanitizer: fingerprint wire format, congruence, e2e mismatch capture."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import CollectiveMismatchError, CollectiveRecord, CommSanitizer
from repro.distributed import (
    FaultEvent,
    FaultPlan,
    MismatchedCollectiveInjector,
    WorkerFailure,
    run_threaded,
)

pytestmark = pytest.mark.analysis

WORLD = 3


class TestCollectiveRecord:
    def _record(self, **overrides):
        base = dict(
            seq=7,
            kind="allreduce",
            op="mean",
            root=-1,
            shape=(4, 5),
            dtype="float64",
            site="src/repro/train.py:42",
        )
        base.update(overrides)
        return CollectiveRecord(**base)

    def test_encode_decode_roundtrip(self):
        from repro.analysis.comm_sanitizer import _stable_hash

        record = self._record()
        frame = record.encode()
        # decode resolves dtype hashes through the name table the sanitizer
        # accumulates; emulate one entry for the round trip.
        back = CollectiveRecord.decode(frame, {_stable_hash("float64"): "float64"})
        assert back == record

    def test_congruent_with_self(self):
        assert self._record().congruent_with(self._record())

    @pytest.mark.parametrize(
        "override",
        [
            {"seq": 8},
            {"kind": "broadcast"},
            {"op": "sum"},
            {"root": 0},
            {"shape": (4, 6)},
            {"dtype": "float32"},
        ],
    )
    def test_incongruent_on_any_field(self, override):
        assert not self._record().congruent_with(self._record(**override))

    def test_call_site_not_part_of_congruence(self):
        a = self._record(site="a.py:1")
        b = self._record(site="b.py:2")
        assert a.congruent_with(b)

    def test_describe_names_kind_op_shape_site(self):
        text = self._record().describe()
        for token in ("allreduce", "op=mean", "shape=(4, 5)", "src/repro/train.py:42"):
            assert token in text


def _train_step(comm, rank, steps=3):
    """A congruent data-parallel step sequence under the sanitizer."""
    sane = CommSanitizer(comm, timeout=10.0)
    out = []
    for step in range(steps):
        grad = np.full(8, float(rank + step))
        out.append(sane.allreduce(grad, op="mean"))
    sane.barrier()
    gathered = sane.allgather(np.array([float(rank)]))
    return out, [float(g[0]) for g in gathered]


def _mismatched_step(comm, rank, plan):
    sane = MismatchedCollectiveInjector(CommSanitizer(comm, timeout=2.0), plan)
    for _ in range(3):
        sane.allreduce(np.ones(4), op="sum")  # MISMATCH-SITE
    return "finished"


class TestCongruentPassThrough:
    def test_collectives_produce_backend_results(self):
        results = run_threaded(_train_step, WORLD)
        for out, gathered in results:
            for step, reduced in enumerate(out):
                expected = np.mean([r + step for r in range(WORLD)])
                np.testing.assert_allclose(reduced, np.full(8, expected))
            assert gathered == [float(r) for r in range(WORLD)]

    def test_records_kept_for_post_mortem(self):
        def worker(comm, rank):
            sane = CommSanitizer(comm)
            sane.allreduce(np.zeros(2))
            sane.barrier()
            return [r.kind for r in sane.records], sane.seq

        for kinds, seq in run_threaded(worker, WORLD):
            assert kinds == ["allreduce", "barrier"]
            assert seq == 2


class TestAllgatherOfRows:
    """``allgather`` is fingerprinted by its trailing dimensions: ranks may
    bring different numbers of rows (a row-sharded matrix is gathered),
    nothing else may differ."""

    def test_unequal_row_counts_are_congruent(self):
        def worker(comm, rank):
            sane = CommSanitizer(comm, timeout=10.0)
            parts = sane.allgather(np.full((rank, 3), float(rank)))  # rank 0 brings none
            sane.barrier()
            return [p.shape for p in parts]

        for shapes in run_threaded(worker, WORLD):
            assert shapes == [(r, 3) for r in range(WORLD)]

    def test_a_different_row_width_is_a_mismatch(self):
        def worker(comm, rank):
            sane = CommSanitizer(comm, timeout=2.0)
            sane.allgather(np.zeros((2, 3 + (rank == 1))))  # the seeded divergence
            sane.barrier()

        with pytest.raises((CollectiveMismatchError, WorkerFailure), match="allgather"):
            run_threaded(worker, WORLD, timeout=60.0)


class TestMismatchDetection:
    def test_injected_mismatch_raises_within_one_step(self):
        plan = FaultPlan(
            [FaultEvent(kind="mismatch", rank=1, index=1, op="collective")]
        )
        with pytest.raises((CollectiveMismatchError, WorkerFailure)) as excinfo:
            run_threaded(_mismatched_step, WORLD, args=(plan,), timeout=60.0)
        message = str(excinfo.value)
        # The diagnostic replaces a world-wide deadlock: it names the
        # diverging collective pair and BOTH call sites.
        assert "diverged" in message
        assert "allreduce" in message and "broadcast" in message
        # Both sides' call sites: the victim's swapped call and the
        # survivor's congruent call both originate at MISMATCH-SITE, and
        # the sanitizer attributes them to this test file, not to the
        # distributed runtime internals.
        assert message.count("test_comm_sanitizer.py") >= 2
        assert "faults.py" not in message

    def test_mismatch_on_first_collective(self):
        plan = FaultPlan(
            [FaultEvent(kind="mismatch", rank=0, index=0, op="collective")]
        )
        with pytest.raises((CollectiveMismatchError, WorkerFailure)) as excinfo:
            run_threaded(_mismatched_step, WORLD, args=(plan,), timeout=60.0)
        assert "collective #0" in str(excinfo.value)

    def test_silent_peer_reported_as_divergence(self):
        def worker(comm, rank):
            sane = CommSanitizer(comm, timeout=1.0)
            if rank == 0:
                return "quit early"  # issues no collective at all
            sane.allreduce(np.ones(2))  # repro-lint note: rank asymmetry is the point
            return "reduced"

        with pytest.raises((CollectiveMismatchError, WorkerFailure)) as excinfo:
            run_threaded(worker, 2, timeout=30.0)
        message = str(excinfo.value)
        assert "issued no collective" in message
        assert "rank 0" in message

    def test_mismatch_through_resilient_stack(self):
        # The production stacking order: sanitizer ABOVE the resilience
        # layer. A wedged hop then surfaces as RankFailure (the resilient
        # layer escalates after its retry budget), not CommTimeoutError —
        # the sanitizer must still convert the divergence into a named
        # mismatch, and the runner must prefer that diagnosis over the
        # wedge symptom raised on other ranks.
        from repro.distributed import ResilientCommunicator

        plan = FaultPlan(
            [FaultEvent(kind="mismatch", rank=2, index=3, op="collective")]
        )

        def worker(comm, rank):
            sane = MismatchedCollectiveInjector(
                CommSanitizer(ResilientCommunicator(comm), timeout=2.0), plan
            )
            for i in range(6):
                sane.allreduce(np.array([float(rank + i)]), op="sum")
            return "finished"

        with pytest.raises((CollectiveMismatchError, WorkerFailure)) as excinfo:
            run_threaded(worker, WORLD, timeout=60.0)
        message = str(excinfo.value)
        assert "collective #3" in message
        assert "allreduce" in message and "broadcast" in message

    def test_shape_mismatch_detected(self):
        def worker(comm, rank):
            sane = CommSanitizer(comm, timeout=5.0)
            payload = np.ones(4 if rank == 0 else 5)
            sane.allreduce(payload)
            return "done"

        with pytest.raises((CollectiveMismatchError, WorkerFailure)) as excinfo:
            run_threaded(worker, 2, timeout=30.0)
        message = str(excinfo.value)
        assert "shape=(4,)" in message and "shape=(5,)" in message


class TestDelegation:
    def test_p2p_and_metadata_pass_through(self):
        def worker(comm, rank):
            sane = CommSanitizer(comm)
            assert sane.size == comm.size
            assert sane.rank == rank
            if rank == 0:
                sane.send(1, np.array([3.25]))
                return 0.0
            if rank == 1:
                return float(sane.recv(0, timeout=10.0)[0])
            return 0.0

        results = run_threaded(worker, WORLD)
        assert results[1] == 3.25
