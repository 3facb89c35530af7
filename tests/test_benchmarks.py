"""The benchmark harness infrastructure itself."""

from __future__ import annotations

import pathlib
import sys

import numpy as np
import pytest

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"
sys.path.insert(0, str(BENCH_DIR))


class TestHarnessHelpers:
    def test_mean_std(self):
        from _harness import mean_std

        m, s = mean_std([1.0, 2.0, 3.0])
        assert m == pytest.approx(2.0)
        assert s == pytest.approx(np.std([1, 2, 3]))

    def test_protocol_reexports(self):
        import _harness

        for name in ("build_model", "build_sampler", "build_optimizer",
                     "make_hamiltonian", "train_once", "format_table"):
            assert hasattr(_harness, name)

    def test_paper_dims(self):
        from _harness import PAPER_DIMS

        assert PAPER_DIMS == (20, 50, 100, 200, 500)

    def test_emit_json_envelope(self, tmp_path):
        import json

        from _harness import BENCH_SCHEMA_VERSION, emit_json

        path = emit_json(
            "unit_test", {"results": [{"n": 8, "seconds": 0.5}]}, out_dir=tmp_path
        )
        assert path == tmp_path / "BENCH_unit_test.json"
        doc = json.loads(path.read_text())
        assert doc["benchmark"] == "unit_test"
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION == 2
        assert doc["results"] == [{"n": 8, "seconds": 0.5}]
        for key in ("unix_time", "python", "numpy", "git_sha", "dirty", "hostname"):
            assert key in doc
        # Provenance stamps are real values in a git checkout.
        assert doc["hostname"]
        assert doc["git_sha"] is None or len(doc["git_sha"]) >= 7
        assert (doc["dirty"] is None) == (doc["git_sha"] is None)
        assert doc["dirty"] in (None, True, False)

    def test_dirty_means_the_measured_tree_is_not_the_stamped_commit(
        self, tmp_path, monkeypatch
    ):
        import shutil
        import subprocess

        import _harness

        if shutil.which("git") is None:
            pytest.skip("needs git")

        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        out = tmp_path / "benchmarks" / "out"
        out.mkdir(parents=True)
        (out / "BENCH_x.json").write_text("{}")
        (tmp_path / "code.py").write_text("x = 1\n")
        git("init", "-q")
        git("add", "-A")
        git("commit", "-q", "-m", "seed")
        monkeypatch.setattr(_harness, "__file__", str(tmp_path / "benchmarks" / "_harness.py"))
        assert _harness._git_dirty() is False
        (out / "BENCH_x.json").write_text('{"rerun": 1}')  # a harness's own output
        (out / "BENCH_new.json").write_text("{}")
        assert _harness._git_dirty() is False
        (tmp_path / "code.py").write_text("x = 2\n")
        assert _harness._git_dirty() is True
        git("commit", "-q", "-am", "change")
        (tmp_path / "untracked.py").write_text("")
        assert _harness._git_dirty() is True
        monkeypatch.setattr(_harness, "__file__", str(tmp_path.parent / "nowhere" / "_harness.py"))
        assert _harness._git_dirty() is None and _harness._git_sha() is None

    def test_read_bench_json_backfills_v1(self, tmp_path):
        import json

        from _harness import read_bench_json

        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps({"unix_time": 1.0, "results": []}))
        doc = read_bench_json(legacy)
        assert doc["schema_version"] == 1
        assert doc["git_sha"] is None and doc["hostname"] is None
        assert doc["dirty"] is None
        assert doc["benchmark"] == "old"  # recovered from the file name

    def test_read_bench_json_passes_v2_through(self, tmp_path):
        from _harness import emit_json, read_bench_json

        path = emit_json("rt", {"results": [1]}, out_dir=tmp_path)
        doc = read_bench_json(path)
        assert doc["schema_version"] == 2
        assert doc["results"] == [1]


class TestRunAll:
    def test_discovers_all_harnesses(self):
        import run_all

        names = [p.stem for p in run_all.discover()]
        # Every paper table/figure plus the ablations must be present.
        for required in (
            "bench_table1_training_time",
            "bench_table2_convergence",
            "bench_table3_latent_ablation",
            "bench_table4_mcmc_schemes",
            "bench_table5_hitting_time",
            "bench_table6_raw_scaling",
            "bench_table7_memory_saturated",
            "bench_fig1_sampling_cost",
            "bench_fig2_training_curves",
            "bench_fig3_weak_scaling",
            "bench_fig4_batch_convergence",
            "bench_eq14_parallel_efficiency",
        ):
            assert required in names, f"missing harness {required}"

    def test_run_one_executes_fast_harness(self, tmp_path, monkeypatch):
        import run_all

        monkeypatch.setattr(run_all, "OUT_DIR", tmp_path)
        path = BENCH_DIR / "bench_eq14_parallel_efficiency.py"
        ok, elapsed = run_all.run_one(path)
        assert ok
        out = (tmp_path / f"{path.stem}.txt").read_text()
        assert "Eq. 14/15" in out
        assert "AUTO" in out

    def test_main_filters(self, capsys, tmp_path, monkeypatch):
        import run_all

        monkeypatch.setattr(run_all, "OUT_DIR", tmp_path)
        rc = run_all.main(["nonexistent-harness"])
        assert rc == 1


class TestGraphBuildingHarnesses:
    """Harnesses that build a tensor graph themselves, not through the
    library, break silently when an engine op they spell is removed."""

    def test_sanitizer_graph_overhead_runs(self):
        from bench_sanitizer_overhead import _measure_graph_overhead

        row = _measure_graph_overhead(n_sites=4, hidden=4, batch=8, trials=1)
        assert row["bare_ms"] > 0 and row["sanitized_ms"] > 0
