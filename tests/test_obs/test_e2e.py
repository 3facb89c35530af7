"""End-to-end observability acceptance: a 4-rank traced training run.

This pins the issue's acceptance criteria directly:

- ``run_threaded`` training with per-rank tracers produces one valid
  Chrome-trace JSON file per rank (plain ``json.loads``, monotone ``ts``);
- ``tools/trace.py summary`` renders a per-phase/per-rank table from those
  files and exits 0;
- the five phase spans tile the step span: every depth-1 span is a phase,
  phases never overlap, and their seconds fit inside each step's
  ``step_time``. (How much of the step they cover is a timing figure, left
  to ``benchmarks/step_profile``'s ``trace.coverage``.)
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import VQMC
from repro.distributed import run_threaded
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.obs import (
    Metrics,
    ObsCallback,
    Tracer,
    load_chrome_trace,
    metrics_file_name,
    trace_file_name,
)
from repro.optim import SGD, StochasticReconfiguration
from repro.samplers import AutoregressiveSampler

pytestmark = pytest.mark.obs

REPO = Path(__file__).resolve().parents[2]
CLI = REPO / "tools" / "trace.py"
WORLD = 4
STEPS = 4
PHASES = {"sample", "local_energy", "gradient", "sr_solve", "optimizer"}


def _worker(comm, rank, outdir):
    model = MADE(8, hidden=14, rng=np.random.default_rng(3))
    tracer = Tracer(rank=rank)
    metrics = Metrics()
    vqmc = VQMC(
        model,
        TransverseFieldIsing.random(8, seed=99),
        AutoregressiveSampler(),
        SGD(model.parameters(), lr=0.05),
        sr=StochasticReconfiguration(),
        comm=comm,
        seed=100 + rank,
        tracer=tracer,
        metrics=metrics,
    )
    cb = ObsCallback(tracer, outdir, comm=comm, metrics=metrics)
    results = vqmc.run(STEPS, batch_size=64, callbacks=[cb])
    step_total = tracer.totals(depth=0)["step"]["total_s"]
    return {
        "phase_names": sorted(tracer.totals(depth=1)),
        "phase_spans": sorted(
            (e.t0_ns, e.t0_ns + e.dur_ns) for e in tracer.events if e.depth == 1
        ),
        "steps": [(r.phase_seconds, r.step_time) for r in results],
        "step_total": step_total,
        "measured_wall": sum(r.step_time for r in results),
        "open_spans": len(tracer._stack()),
        "skew": cb.skew,
    }


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("e2e_traces")
    reports = run_threaded(_worker, WORLD, args=(outdir,), timeout=300.0)
    return outdir, reports


class TestAcceptance:
    def test_every_rank_wrote_a_valid_chrome_trace(self, traced_run):
        outdir, _ = traced_run
        for rank in range(WORLD):
            path = outdir / trace_file_name(rank)
            assert path.exists(), f"missing trace for rank {rank}"
            doc = json.loads(path.read_text())  # raw-stdlib validity
            assert doc["metadata"]["rank"] == rank
            assert doc["metadata"]["dropped_events"] == 0
            spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
            assert all(e["pid"] == rank for e in spans)
            ts = [e["ts"] for e in spans]
            assert ts == sorted(ts), "timestamps must be monotone"
            names = {e["name"] for e in spans}
            assert PHASES <= names and "step" in names
            assert "comm.allreduce" in names, "collectives must be traced"

    def test_phase_spans_tile_the_step_span(self, traced_run):
        _, reports = traced_run
        for rank, report in enumerate(reports):
            assert report["open_spans"] == 0
            assert set(report["phase_names"]) == PHASES  # every depth-1 span
            spans = report["phase_spans"]
            for (_, end), (start, _) in zip(spans, spans[1:]):
                assert start >= end, f"rank {rank}: phase spans overlap"
            for phase_seconds, step_time in report["steps"]:
                assert set(phase_seconds) == PHASES
                assert sum(phase_seconds.values()) <= step_time
            # The step span nests inside the step_time window (the slack is
            # the two clocks' reads, not load).
            assert report["step_total"] <= report["measured_wall"] * 1.02

    def test_cross_rank_skew_report_present(self, traced_run):
        _, reports = traced_run
        for report in reports:
            skew = report["skew"]
            assert skew is not None and set(skew) == PHASES
            for info in skew.values():
                assert info["min"] <= info["median"] <= info["max"]
                assert info["skew"] >= 1.0

    def test_trace_cli_summary_renders_table(self, traced_run):
        outdir, _ = traced_run
        proc = subprocess.run(
            [sys.executable, str(CLI), "summary", str(outdir)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        for phase in PHASES:
            assert phase in proc.stdout
        for rank in range(WORLD):
            assert f"rank{rank} [ms]" in proc.stdout

    def test_trace_cli_summary_json_mode(self, traced_run):
        outdir, _ = traced_run
        proc = subprocess.run(
            [sys.executable, str(CLI), "summary", str(outdir), "--json"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["ranks"] == list(range(WORLD))
        assert PHASES <= set(doc["totals_ms"])
        assert doc["counts"]["step"] == WORLD * STEPS

    def test_trace_cli_validate_passes(self, traced_run):
        outdir, _ = traced_run
        proc = subprocess.run(
            [sys.executable, str(CLI), "validate", str(outdir)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"{WORLD} file(s) valid" in proc.stdout

    def test_trace_cli_merge_produces_one_timeline(self, traced_run, tmp_path):
        outdir, _ = traced_run
        merged = tmp_path / "merged.json"
        proc = subprocess.run(
            [sys.executable, str(CLI), "merge", str(outdir), "-o", str(merged)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        spans = [e for e in load_chrome_trace(merged) if e["ph"] == "X"]
        assert {e["pid"] for e in spans} == set(range(WORLD))

    def test_every_rank_wrote_metrics_snapshot(self, traced_run):
        outdir, _ = traced_run
        for rank in range(WORLD):
            path = outdir / metrics_file_name(rank)
            assert path.exists(), f"missing metrics snapshot for rank {rank}"
            snap = json.loads(path.read_text())
            assert snap["counters"]["sr.solves"] == STEPS

    def test_trace_cli_summary_folds_metrics(self, traced_run):
        outdir, _ = traced_run
        proc = subprocess.run(
            [sys.executable, str(CLI), "summary", str(outdir)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert f"folded metrics ({WORLD} rank snapshot(s))" in proc.stdout
        assert "sr.solves" in proc.stdout

        proc = subprocess.run(
            [sys.executable, str(CLI), "summary", str(outdir), "--json"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        doc = json.loads(proc.stdout)
        # counters add across ranks; gauges keep the worst rank
        assert doc["metrics"]["counters"]["sr.solves"] == WORLD * STEPS

    def test_trace_cli_merge_writes_folded_metrics(self, traced_run, tmp_path):
        outdir, _ = traced_run
        merged = tmp_path / "merged.json"
        proc = subprocess.run(
            [sys.executable, str(CLI), "merge", str(outdir), "-o", str(merged)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        folded = json.loads((tmp_path / "merged.metrics.json").read_text())
        assert folded["counters"]["sr.solves"] == WORLD * STEPS
        assert folded["counters"]["sr.comm_bytes"] > 0

    def test_trace_cli_summary_annotates_batch_ledger(self, traced_run, tmp_path):
        """A BatchLedger JSON log next to the traces adds the per-rank batch
        assignment row (auto-detected, and honoured by --json)."""
        import shutil

        outdir, _ = traced_run
        annotated = tmp_path / "annotated"
        annotated.mkdir()
        for f in outdir.glob("trace.rank*.json"):
            shutil.copy2(f, annotated / f.name)
        ledger = {
            "global_batch": 48,
            "world_size": WORLD,
            "min_chunk": 1,
            "alpha": 0.5,
            "hysteresis": 0.1,
            "rebalances": 2,
            "assignment": [15, 11, 11, 11],
            "history": [],
        }
        (annotated / "ledger.json").write_text(json.dumps(ledger))

        proc = subprocess.run(
            [sys.executable, str(CLI), "summary", str(annotated)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "batch [samples]" in proc.stdout
        assert "15" in proc.stdout
        assert "global_batch=48" in proc.stdout

        proc = subprocess.run(
            [sys.executable, str(CLI), "summary", str(annotated), "--json"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["ledger"]["assignment"] == [15, 11, 11, 11]

    def test_trace_cli_summary_explicit_ledger_flag(self, traced_run, tmp_path):
        outdir, _ = traced_run
        log = tmp_path / "my_ledger.json"
        log.write_text(json.dumps({
            "global_batch": 64, "world_size": WORLD, "rebalances": 0,
            "assignment": [16, 16, 16, 16], "history": [],
        }))
        proc = subprocess.run(
            [sys.executable, str(CLI), "summary", str(outdir),
             "--ledger", str(log)],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "batch [samples]" in proc.stdout
        assert "global_batch=64" in proc.stdout

    def test_trace_cli_missing_path_exits_two(self):
        proc = subprocess.run(
            [sys.executable, str(CLI), "summary", "/nonexistent/trace/dir"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert proc.returncode == 2
        assert "error:" in proc.stderr
