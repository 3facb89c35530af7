"""Instrumentation hooks: VQMC phases, collectives, sampler, checkpoints,
and the hardened RunLogger/ObsCallback sinks.

The contract under test is coverage + closure: every instrumented code
path emits its named span, spans close even when the instrumented
operation raises (fault-injected collectives included), and the sinks
flush their footers when training dies mid-run.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro.core import VQMC
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.distributed import (
    FaultEvent,
    FaultPlan,
    FaultyCommunicator,
    ResilientCommunicator,
    SerialCommunicator,
    run_threaded,
)
from repro.distributed.faults import InjectedRankCrash
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.obs import ObsCallback, Tracer
from repro.optim import SGD, StochasticReconfiguration
from repro.samplers import AutoregressiveSampler
from repro.utils.runlog import RunLogger

pytestmark = pytest.mark.obs


def _make_vqmc(tracer=None, sr=False, n=6, comm=None, seed=7):
    model = MADE(n, hidden=12, rng=np.random.default_rng(3))
    return VQMC(
        model,
        TransverseFieldIsing.random(n, seed=99),
        AutoregressiveSampler(),
        SGD(model.parameters(), lr=0.05),
        sr=StochasticReconfiguration() if sr else None,
        comm=comm,
        seed=seed,
        tracer=tracer,
    )


class TestVQMCPhases:
    def test_per_sample_phases_present_and_tiled(self):
        tracer = Tracer()
        _make_vqmc(tracer, sr=True).run(3, batch_size=64)
        top = tracer.totals(depth=0)
        assert list(top) == ["step"] and top["step"]["count"] == 3
        phases = tracer.totals(depth=1)
        assert set(phases) == {
            "sample", "local_energy", "gradient", "sr_solve", "optimizer",
        }
        assert len(tracer._stack()) == 0

    def test_autograd_phases_present(self):
        """A plain step (no SR): the gradient phase, no ``sr_solve``."""
        tracer = Tracer()
        _make_vqmc(tracer).run(2, batch_size=64)
        phases = tracer.totals(depth=1)
        assert set(phases) == {"sample", "local_energy", "gradient", "optimizer"}

    def test_no_tracer_means_null_tracer(self):
        vqmc = _make_vqmc(tracer=None)
        assert vqmc.tracer.enabled is False
        vqmc.step(batch_size=32)  # still runs, records nothing
        assert vqmc.tracer.events == []

    def test_step_span_carries_step_and_batch(self):
        tracer = Tracer()
        vqmc = _make_vqmc(tracer)
        vqmc.step(batch_size=32)
        (step,) = [ev for ev in tracer.events if ev.name == "step"]
        assert step.attrs["step"] == 0 and step.attrs["batch"] == 32


class TestSamplerSpans:
    def test_autoregressive_fast_path_is_spanned(self):
        tracer = Tracer()
        _make_vqmc(tracer).step(batch_size=64)
        names = {ev.name for ev in tracer.events}
        # MADE supports incremental sampling, so the fast path must be taken
        assert "sample.incremental" in names
        (ev,) = [e for e in tracer.events if e.name == "sample.incremental"]
        assert ev.attrs["batch"] == 64 and ev.attrs["n"] == 6


class TestCommSpans:
    def test_serial_collectives_spanned_with_bytes(self):
        comm = SerialCommunicator()
        tracer = Tracer()
        comm.attach_tracer(tracer)
        arr = np.ones(100)
        comm.allreduce(arr)
        comm.broadcast(arr)
        (ar,) = [e for e in tracer.events if e.name == "comm.allreduce"]
        assert ar.attrs["bytes"] == arr.nbytes and ar.attrs["op"] == "sum"
        (bc,) = [e for e in tracer.events if e.name == "comm.broadcast"]
        assert bc.attrs["bytes"] == arr.nbytes and bc.attrs["root"] == 0

    def test_collective_payload_accounting_in_stats(self):
        comm = SerialCommunicator()
        arr = np.ones(64)
        comm.allreduce(arr)
        comm.allgather(arr)
        snap = comm.stats.snapshot()
        assert snap["collective_calls"] == 2
        assert snap["collective_bytes"] == 2 * arr.nbytes
        comm.stats.reset()
        assert comm.stats.snapshot()["collective_calls"] == 0

    def test_threads_backend_spans_every_rank(self):
        def worker(comm, rank):
            tracer = Tracer(rank=rank)
            comm.attach_tracer(tracer)
            comm.allreduce(np.ones(32))
            (ev,) = [e for e in tracer.events if e.name == "comm.allreduce"]
            return (len(tracer._stack()), ev.attrs["bytes"], ev.attrs["algorithm"])

        for open_count, nbytes, algorithm in run_threaded(worker, 4):
            assert open_count == 0 and nbytes == 32 * 8
            assert isinstance(algorithm, str) and algorithm

    def test_resilient_wrapper_reports_through_outer_tracer(self):
        def worker(comm, rank):
            resilient = ResilientCommunicator(comm)
            tracer = Tracer(rank=rank)
            resilient.attach_tracer(tracer)
            resilient.allreduce(np.ones(8))
            return sorted({e.name for e in tracer.events})

        for names in run_threaded(worker, 2):
            assert "comm.allreduce" in names

    def test_span_closes_when_injected_fault_kills_the_collective(self):
        plan = FaultPlan([FaultEvent(kind="crash", rank=1, index=0, op="any")])

        def worker(comm, rank):
            faulty = FaultyCommunicator(comm, plan)
            tracer = Tracer(rank=rank)
            faulty.attach_tracer(tracer)
            try:
                faulty.allreduce(np.ones(16))
                outcome = "ok"
            except Exception as exc:  # noqa: BLE001 — recording the kind
                outcome = type(exc).__name__
            spans = [e for e in tracer.events if e.name == "comm.allreduce"]
            return (outcome, len(tracer._stack()), spans[0].attrs if spans else None)

        results = dict()
        t0 = time.perf_counter()
        ranks = run_threaded(worker, 2)
        # the survivor hears of the crashed peer's exit at once; it used to
        # wait out the 60 s default recv timeout
        assert time.perf_counter() - t0 < 5.0
        for rank, (outcome, open_count, attrs) in enumerate(ranks):
            assert open_count == 0, "fault must not leak an open span"
            results[rank] = (outcome, attrs)
        outcome, attrs = results[1]
        assert outcome == InjectedRankCrash.__name__
        # the span closed exceptionally and says so
        assert attrs is not None and attrs["error"] == InjectedRankCrash.__name__


class TestCheckpointSpans:
    def test_save_and_restore_are_spanned(self, tmp_path):
        tracer = Tracer()
        vqmc = _make_vqmc(tracer)
        vqmc.step(batch_size=32)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(vqmc, path)
        load_checkpoint(vqmc, path)
        (save,) = [e for e in tracer.events if e.name == "checkpoint.save"]
        (restore,) = [e for e in tracer.events if e.name == "checkpoint.restore"]
        assert save.attrs["step"] == 1
        assert save.attrs["bytes"] == path.stat().st_size
        assert restore.attrs["bytes"] == path.stat().st_size

    def test_checkpoint_without_tracer_still_works(self, tmp_path):
        vqmc = _make_vqmc(tracer=None)
        save_checkpoint(vqmc, tmp_path / "c.npz")
        load_checkpoint(vqmc, tmp_path / "c.npz")


class TestObsCallback:
    def test_jsonl_stream_and_chrome_file(self, tmp_path):
        tracer = Tracer(rank=0)
        vqmc = _make_vqmc(tracer)
        cb = ObsCallback(tracer, tmp_path)
        vqmc.run(3, batch_size=32, callbacks=[cb])
        records = RunLogger.read(cb.jsonl_path)
        assert records[0]["event"] == "trace_begin"
        steps = [r for r in records if r["event"] == "trace_step"]
        assert len(steps) == 3
        for rec in steps:
            assert rec["step_time"] > 0
            assert rec["phases"]["sample"] > 0
        assert records[-1]["event"] == "trace_end"
        assert records[-1]["span_count"] == len(tracer.events)
        assert cb.chrome_path.exists()
        assert json.loads(cb.chrome_path.read_text())["metadata"]["rank"] == 0

    def test_footer_and_chrome_written_when_training_raises(self, tmp_path):
        tracer = Tracer()
        vqmc = _make_vqmc(tracer)

        class Bomb:
            def on_run_begin(self, vqmc):
                pass

            def on_step(self, step, result):
                raise RuntimeError("mid-run death")

            def on_run_end(self, vqmc):
                pass

        cb = ObsCallback(tracer, tmp_path)
        with pytest.raises(RuntimeError, match="mid-run death"):
            vqmc.run(5, batch_size=32, callbacks=[cb, Bomb()])
        records = RunLogger.read(cb.jsonl_path)
        assert records[-1]["event"] == "trace_end"
        assert cb.chrome_path is not None and cb.chrome_path.exists()

    def test_cross_rank_skew_at_run_end(self, tmp_path_factory):
        outdir = tmp_path_factory.mktemp("skew")

        def worker(comm, rank):
            tracer = Tracer(rank=rank)
            vqmc = _make_vqmc(tracer, comm=comm, seed=100 + rank)
            cb = ObsCallback(tracer, outdir, comm=comm)
            vqmc.run(2, batch_size=32, callbacks=[cb])
            return cb.skew

        for skew in run_threaded(worker, 2):
            assert skew is not None and "sample" in skew
            assert skew["sample"]["skew"] >= 1.0


class TestRunLoggerHardening:
    def test_footer_written_when_run_raises(self, tmp_path):
        vqmc = _make_vqmc()
        logger = RunLogger(tmp_path / "run.jsonl")

        class Bomb:
            def on_run_begin(self, vqmc):
                pass

            def on_step(self, step, result):
                if step >= 2:
                    raise RuntimeError("boom")

            def on_run_end(self, vqmc):
                pass

        with pytest.raises(RuntimeError, match="boom"):
            vqmc.run(10, batch_size=32, callbacks=[logger, Bomb()])
        records = RunLogger.read(tmp_path / "run.jsonl")
        assert records[0]["event"] == "run_begin"
        assert records[-1]["event"] == "run_end"
        assert [r["event"] for r in records].count("step") == 2

    def test_on_run_end_is_idempotent(self, tmp_path):
        vqmc = _make_vqmc()
        logger = RunLogger(tmp_path / "run.jsonl")
        vqmc.run(1, batch_size=32, callbacks=[logger])
        logger.on_run_end(vqmc)  # second delivery: no crash, no extra footer
        records = RunLogger.read(tmp_path / "run.jsonl")
        assert [r["event"] for r in records].count("run_end") == 1

    def test_unserialisable_metadata_degrades_to_repr(self, tmp_path):
        vqmc = _make_vqmc()
        meta = {"arr": np.arange(3), "path": tmp_path}
        logger = RunLogger(tmp_path / "run.jsonl", meta=meta)
        vqmc.run(1, batch_size=32, callbacks=[logger])
        header = RunLogger.read(tmp_path / "run.jsonl")[0]
        assert isinstance(header["arr"], str)  # repr, not a crash
        assert isinstance(header["path"], str)
