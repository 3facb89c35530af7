"""Smoke test of the step_profile benchmark (not collected by tier-1:
``pyproject.toml`` looks under ``tests/`` only; run it with
``python -m pytest benchmarks/step_profile/test_smoke.py``).

Runs the whole suite once on the ``--smoke`` preset and checks that what it
emits is what BENCHMARK.json declares: no workload or metric missing, none
undeclared, every value with a unit and a sample count, every name legal.
"""

import json
import re
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_suite_emits_exactly_the_declared_names(tmp_path):
    begin = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--smoke", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - begin
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    # the budget is 20 s on a calm host (15 s measured); the limit leaves
    # room for a busy one, where the same work has been seen 1.4x slower
    assert elapsed < 30.0, f"smoke suite took {elapsed:.1f} s"

    result = json.loads((tmp_path / "step_profile.json").read_text())
    assert result["claim"] is None
    runs = result["runs"]
    workloads = [w["name"] for w in BENCH["workloads"]]
    assert sorted({r["workload"] for r in runs}) == sorted(workloads)
    assert len(runs) == 2 * len(workloads)

    for run in runs:
        section = BENCH["per_layer" if run["trace"] else "end_to_end"]
        units = {m["name"]: m["unit"] for m in section}
        assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1, run["header"]
        assert set(run["metrics"]) == set(units), run["header"]
        for name, entry in run["metrics"].items():
            assert NAME.fullmatch(name), name
            assert entry["unit"] == units[name]
            assert isinstance(entry["value"], float) and isinstance(entry["n"], int)
        if not run["trace"]:
            assert all(e["value"] > 0 and e["n"] >= 1 for e in run["metrics"].values())
    assert all(NAME.fullmatch(w) for w in workloads)
