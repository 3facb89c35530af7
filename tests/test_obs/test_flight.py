"""Flight recorder: ring buffer, atomic CRC-stamped dumps, crash wiring.

The acceptance contract pinned here:

- the ring buffer holds exactly the last ``capacity`` step frames;
- a crash inside ``VQMC.run`` triggers ``on_crash`` before ``on_run_end``
  and leaves a valid, CRC-verified ``flight.rankNNN.json`` naming the
  exception and the last completed step;
- :func:`load_flight_dump` rejects truncated, tampered, and foreign files;
- a SIGUSR1 delivery dumps and then chains to the previous disposition;
- ``save_checkpoint`` embeds the :class:`HealthMonitor` report when one is
  riding the run.
"""

from __future__ import annotations

import json
import os
import signal

import numpy as np
import pytest

from repro.core import VQMC, VQMCConfig, save_checkpoint, verify_checkpoint
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.obs import (
    FlightDumpError,
    FlightRecorder,
    HealthMonitor,
    StepFrameBuilder,
    flight_file_name,
    load_flight_dump,
)
from repro.optim import SGD, StochasticReconfiguration
from repro.samplers import AutoregressiveSampler

pytestmark = pytest.mark.obs


def _make_vqmc(n=6, seed=7, sr=True):
    from repro.obs import Metrics

    model = MADE(n, hidden=10, rng=np.random.default_rng(3))
    return VQMC(
        model,
        TransverseFieldIsing.random(n, seed=9),
        AutoregressiveSampler(),
        SGD(model.parameters(), lr=0.05),
        sr=StochasticReconfiguration() if sr else None,
        seed=seed,
        config=VQMCConfig(gradient_mode="per_sample"),
        metrics=Metrics(),
    )


class _CrashAt:
    """Raise from on_step once the given step is reached."""

    def __init__(self, step):
        self.step = step

    def on_run_begin(self, vqmc):
        pass

    def on_run_end(self, vqmc):
        pass

    def on_step(self, step, result):
        if step >= self.step:
            raise RuntimeError("synthetic death")


class TestRingBuffer:
    def test_keeps_only_last_capacity_frames(self, tmp_path):
        fr = FlightRecorder(tmp_path, capacity=4, rank=0)
        vqmc = _make_vqmc()
        vqmc.run(7, batch_size=16, callbacks=[fr])
        assert fr.frames_seen == 7
        assert [f["step"] for f in fr.frames] == [4, 5, 6, 7]
        assert fr.last_step == 7

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ValueError, match="capacity"):
            FlightRecorder(tmp_path, capacity=0)

    def test_frames_carry_energy_sr_and_metric_deltas(self, tmp_path):
        fr = FlightRecorder(tmp_path, capacity=8, rank=0)
        vqmc = _make_vqmc()
        vqmc.run(2, batch_size=16, callbacks=[fr])
        frame = fr.frames[-1]
        for key in ("energy", "std", "sem", "grad_norm", "step_time", "phases"):
            assert key in frame, key
        assert frame["sr"]["solver"] in ("cg", "dense")
        assert frame["sr"]["residual"] < 1e-6
        # jit counters move every step -> deltas present, and they are
        # per-step deltas, not cumulative totals
        assert "gauges" in frame and "jit.arena_bytes" in frame["gauges"]
        # which rows the local energies ran on: the frame and the gauge agree
        assert 1 <= frame["distinct_rows"] <= 16
        assert frame["gauges"]["energy.distinct_rows"] == frame["distinct_rows"]


class TestStepFrameBuilder:
    def test_counter_deltas_not_cumulative(self):
        class FakeMetrics:
            def __init__(self):
                self.value = 0.0

            def snapshot(self):
                return {"counters": {"x": self.value}, "gauges": {}, "histograms": {}}

        class FakeResult:
            def __init__(self, vqmc):
                self.vqmc = vqmc

        class FakeVqmc:
            def __init__(self, metrics):
                self.metrics = metrics

        metrics = FakeMetrics()
        builder = StepFrameBuilder()
        vq = FakeVqmc(metrics)
        metrics.value = 5.0
        f1 = builder.build(1, FakeResult(vq))
        metrics.value = 7.0
        f2 = builder.build(2, FakeResult(vq))
        assert f1["metric_deltas"] == {"x": 5.0}
        assert f2["metric_deltas"] == {"x": 2.0}

    def test_nan_scalars_preserved(self):
        class R:
            grad_norm = float("nan")

        frame = StepFrameBuilder().build(3, R())
        assert frame["grad_norm"] != frame["grad_norm"]  # NaN survives


class TestCrashDump:
    def test_crash_produces_verified_dump(self, tmp_path):
        fr = FlightRecorder(tmp_path, capacity=16, rank=None)
        vqmc = _make_vqmc()
        with pytest.raises(RuntimeError, match="synthetic death"):
            vqmc.run(10, batch_size=16, callbacks=[fr, _CrashAt(5)])
        path = tmp_path / flight_file_name(0)
        assert path.exists()
        doc = load_flight_dump(path)  # verifies CRC
        body = doc["body"]
        assert body["reason"] == "RuntimeError"
        assert body["last_step"] == 5
        assert body["events"][-1]["kind"] == "crash"
        assert body["events"][-1]["error"] == "RuntimeError"
        assert [f["step"] for f in body["frames"]] == [1, 2, 3, 4, 5]

    def test_clean_run_dumps_only_when_asked(self, tmp_path):
        fr = FlightRecorder(tmp_path, capacity=8, rank=0)
        vqmc = _make_vqmc()
        vqmc.run(2, batch_size=16, callbacks=[fr])
        assert not (tmp_path / flight_file_name(0)).exists()
        fr2 = FlightRecorder(tmp_path, capacity=8, rank=0, dump_on_end=True)
        _make_vqmc().run(2, batch_size=16, callbacks=[fr2])
        assert (tmp_path / flight_file_name(0)).exists()

    def test_stop_training_is_not_a_crash(self, tmp_path):
        from repro.core.callbacks import HittingTime

        fr = FlightRecorder(tmp_path, capacity=8, rank=0)
        vqmc = _make_vqmc()
        results = vqmc.run(
            8, batch_size=16,
            callbacks=[fr, HittingTime(target=-np.inf, eval_batch_size=16)],
        )
        assert len(results) == 1  # the callback did stop the run
        assert not (tmp_path / flight_file_name(0)).exists()


class TestDumpIntegrity:
    def _dump(self, tmp_path):
        fr = FlightRecorder(tmp_path, capacity=4, rank=2)
        fr.note_event("unit", tag="x")
        return fr.dump(reason="manual")

    def test_round_trip(self, tmp_path):
        path = self._dump(tmp_path)
        assert path.name == "flight.rank002.json"
        doc = load_flight_dump(path)
        assert doc["body"]["rank"] == 2
        assert doc["body"]["events"][0]["tag"] == "x"

    def test_tampered_dump_rejected(self, tmp_path):
        path = self._dump(tmp_path)
        doc = json.loads(path.read_text())
        doc["body"]["rank"] = 99  # flip a byte under the CRC
        path.write_text(json.dumps(doc))
        with pytest.raises(FlightDumpError, match="CRC32 mismatch"):
            load_flight_dump(path)
        load_flight_dump(path, verify=False)  # explicit opt-out still reads

    def test_truncated_and_foreign_rejected(self, tmp_path):
        path = self._dump(tmp_path)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        with pytest.raises(FlightDumpError, match="unreadable"):
            load_flight_dump(path)
        foreign = tmp_path / "flight.rank009.json"
        foreign.write_text('{"hello": 1}')
        with pytest.raises(FlightDumpError, match="missing body/crc32"):
            load_flight_dump(foreign)
        wrong = tmp_path / "flight.rank010.json"
        wrong.write_text('{"schema": "other/9", "crc32": 0, "body": {}}')
        with pytest.raises(FlightDumpError, match="unknown schema"):
            load_flight_dump(wrong)

    def test_dump_is_atomic_no_tmp_left_behind(self, tmp_path):
        self._dump(tmp_path)
        assert not list(tmp_path.glob("*.tmp"))


class TestSignals:
    def test_sigusr1_dumps_then_chains(self, tmp_path):
        fr = FlightRecorder(tmp_path, capacity=4, rank=1)
        chained = []
        previous = signal.signal(signal.SIGUSR1, lambda s, f: chained.append(s))
        try:
            installed = fr.install_signal_handlers(signums=(signal.SIGUSR1,))
            assert installed == [signal.SIGUSR1]
            os.kill(os.getpid(), signal.SIGUSR1)
            doc = load_flight_dump(tmp_path / flight_file_name(1))
            assert doc["body"]["reason"] == f"signal_{int(signal.SIGUSR1)}"
            assert chained == [signal.SIGUSR1]  # previous handler still ran
        finally:
            signal.signal(signal.SIGUSR1, previous)


class TestHealthIntegration:
    def test_dump_embeds_health_report_and_verdict_per_frame(self, tmp_path):
        hm = HealthMonitor()
        fr = FlightRecorder(tmp_path, capacity=8, rank=0, health=hm)
        vqmc = _make_vqmc()
        with pytest.raises(RuntimeError):
            vqmc.run(9, batch_size=16, callbacks=[fr, _CrashAt(4)])
        body = load_flight_dump(tmp_path / flight_file_name(0))["body"]
        assert body["health"]["schema"] == "repro.health/1"
        assert all("health" in f for f in body["frames"])
        assert vqmc.health is hm  # registered for checkpoint embedding

    def test_checkpoint_header_carries_health_report(self, tmp_path):
        hm = HealthMonitor()
        fr = FlightRecorder(tmp_path, capacity=8, rank=0, health=hm)
        vqmc = _make_vqmc()
        vqmc.run(3, batch_size=16, callbacks=[fr])
        ckpt = tmp_path / "ck.npz"
        save_checkpoint(vqmc, ckpt)
        header = verify_checkpoint(ckpt)
        assert header["health"]["verdict"] == "OK"
        assert header["health"]["steps"] == 3

    def test_checkpoint_without_monitor_unchanged(self, tmp_path):
        vqmc = _make_vqmc()
        vqmc.run(1, batch_size=16)
        ckpt = tmp_path / "ck.npz"
        save_checkpoint(vqmc, ckpt)
        assert "health" not in verify_checkpoint(ckpt)
