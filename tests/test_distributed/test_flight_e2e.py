"""Flight-recorder acceptance: injected crash → a black box on every rank.

The ISSUE-9 acceptance criterion pinned here: an injected crash (via
``repro.distributed.faults``) produces a **valid** (CRC-verified) flight
dump on every surviving rank, and ``tools/monitor.py`` reads those dumps
and names the failing rank and the last completed step.

Also covered: the supervisor's epoch-tagged ``shrink`` event lands in the
survivors' dumps, and a serial supervised run leaves its black box too.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.vqmc import VQMC
from repro.distributed import (
    ElasticConfig,
    FaultEvent,
    FaultInjectionCallback,
    FaultPlan,
    RetryPolicy,
    TrainingSupervisor,
    build_comm,
    run_threaded,
)
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.obs import flight_file_name, load_flight_dump
from repro.obs.flight import FlightRecorder
from repro.optim import SGD
from repro.samplers import AutoregressiveSampler

pytestmark = pytest.mark.faults

REPO = Path(__file__).resolve().parents[2]
MONITOR = REPO / "tools" / "monitor.py"

WORLD = 3
ITERATIONS = 6
CRASH_STEP = 4


def _make_vqmc(comm, rank):
    model = MADE(6, hidden=8, rng=np.random.default_rng(3))
    ham = TransverseFieldIsing.random(6, seed=1)
    return VQMC(
        model, ham, AutoregressiveSampler(),
        SGD(model.parameters(), lr=0.05),
        comm=comm, seed=100 + rank,
    )


def _worker(comm, rank, ckpt_dir, flight_dir):
    plan = FaultPlan(
        [FaultEvent(kind="crash", rank=WORLD - 1, step=CRASH_STEP)]
    )
    policy = RetryPolicy(max_attempts=2, backoff_base=0.01, attempt_timeout=0.25)
    vqmc = _make_vqmc(build_comm(comm, plan=plan, retry=policy), rank)
    # Recorder first so the crash-step frame is captured before the fault
    # callback raises on the same step.
    flight = FlightRecorder(flight_dir, capacity=16)
    return TrainingSupervisor(
        vqmc,
        checkpoint_dir=ckpt_dir,
        checkpoint_every=2,
        callbacks=[flight, FaultInjectionCallback(plan, rank)],
        elastic=ElasticConfig(),
    ).run(ITERATIONS, batch_size=16)


class TestInjectedCrashLeavesBlackBoxes:
    @pytest.fixture(scope="class")
    def crashed_run(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("flight_e2e")
        flight_dir = tmp / "flight"
        reports = run_threaded(
            _worker, WORLD,
            args=(str(tmp / "ckpt"), str(flight_dir)),
            timeout=120.0,
        )
        return reports, flight_dir

    def test_every_rank_left_a_valid_dump(self, crashed_run):
        reports, flight_dir = crashed_run
        assert reports[WORLD - 1].crashed
        for rank in range(WORLD):
            doc = load_flight_dump(flight_dir / flight_file_name(rank))
            body = doc["body"]
            assert body["rank"] == rank
            assert body["frames"], f"rank {rank} dumped no frames"

    def test_crashed_rank_records_its_own_death(self, crashed_run):
        _, flight_dir = crashed_run
        body = load_flight_dump(flight_dir / flight_file_name(WORLD - 1))["body"]
        assert body["reason"] == "injected_crash"
        assert body["last_step"] == CRASH_STEP
        kinds = [e["kind"] for e in body["events"]]
        assert "injected_crash" in kinds

    def test_survivors_record_epoch_tagged_shrink(self, crashed_run):
        reports, flight_dir = crashed_run
        for rank in range(WORLD - 1):
            assert reports[rank].completed_steps == ITERATIONS
            body = load_flight_dump(flight_dir / flight_file_name(rank))["body"]
            assert body["reason"] == "rank_failure"
            shrinks = [e for e in body["events"] if e["kind"] == "shrink"]
            assert len(shrinks) == 1
            assert shrinks[0]["failed"] == [WORLD - 1]
            assert shrinks[0]["epoch"] == 1
            assert shrinks[0]["restored_step"] == CRASH_STEP

    def test_monitor_cli_names_failing_rank_and_last_step(self, crashed_run):
        _, flight_dir = crashed_run
        r = subprocess.run(
            [sys.executable, str(MONITOR), "flight", str(flight_dir)],
            capture_output=True, text=True,
        )
        assert r.returncode == 1, r.stdout + r.stderr  # failed rank found
        assert f"failed rank {WORLD - 1}" in r.stdout
        assert f"last completed step {CRASH_STEP}" in r.stdout
        assert f"restored from step {CRASH_STEP}" in r.stdout

        r = subprocess.run(
            [sys.executable, str(MONITOR), "flight", str(flight_dir), "--json"],
            capture_output=True, text=True,
        )
        payload = json.loads(r.stdout)
        failed = payload["failed_ranks"][str(WORLD - 1)]
        assert failed["last_completed_step"] == CRASH_STEP
        assert payload["restored_step"] == CRASH_STEP


class TestSerialRun:
    def test_serial_injected_crash_dumps(self, tmp_path):
        plan = FaultPlan([FaultEvent(kind="crash", rank=0, step=3)])
        vqmc = _make_vqmc(None, 0)
        report = TrainingSupervisor(
            vqmc,
            checkpoint_dir=tmp_path / "ckpt",
            checkpoint_every=2,
            callbacks=[
                FlightRecorder(tmp_path / "flight", rank=0),
                FaultInjectionCallback(plan, 0),
            ],
        ).run(ITERATIONS, batch_size=16)
        assert report.crashed
        body = load_flight_dump(tmp_path / "flight" / flight_file_name(0))["body"]
        assert body["reason"] == "injected_crash"
