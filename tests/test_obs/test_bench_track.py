"""Perf-regression observatory: ledger round trip and the PR gate.

``tools/bench_track.py`` turns the committed ``BENCH_*.json`` corpus into
an append-only trajectory ledger and gates changes against it. Pinned
here: ingest is idempotent for unchanged metrics, a regression beyond the
tolerance band exits 1 and names the metric, improvements and in-band
noise pass, and benchmarks with no headline spec are reported untracked
but never fail the gate.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

import pytest

pytestmark = pytest.mark.obs

TOOLS = pathlib.Path(__file__).resolve().parents[2] / "tools"

_spec = importlib.util.spec_from_file_location("bench_track", TOOLS / "bench_track.py")
bench_track = importlib.util.module_from_spec(_spec)
sys.modules.setdefault("bench_track", bench_track)
_spec.loader.exec_module(bench_track)


def _write_bench(out_dir, name, payload):
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(
        {"benchmark": name, "schema_version": 2, "git_sha": "abc1234",
         "hostname": "unit", "unix_time": 1.0, **payload}
    ))
    return path


def _sr_doc(volume=10.0, err=1e-12):
    return {"headline": {"volume_reduction": volume,
                         "cg_rel_err_vs_serial_dense": err}}


class TestMetricExtraction:
    def test_dotted_path_with_trailing_index(self):
        m = bench_track.Metric("x", "results[-1].grad_speedup", "higher", 0.1)
        assert m.extract({"results": [{"grad_speedup": 1.0},
                                      {"grad_speedup": 3.5}]}) == 3.5

    def test_leading_index(self):
        m = bench_track.Metric("x", "results[0].v", "lower", 0.1)
        assert m.extract({"results": [{"v": 0.6}, {"v": 0.5}]}) == 0.6

    def test_band_and_direction(self):
        higher = bench_track.Metric("x", "v", "higher", 0.10)
        assert not higher.regressed(10.0, 9.5)   # within 10% band
        assert higher.regressed(10.0, 8.5)       # below band -> bad
        assert not higher.regressed(10.0, 20.0)  # improvement never regresses
        lower = bench_track.Metric("x", "v", "lower", 0.10, abs_tol=5.0)
        assert not lower.regressed(1.0, 5.0)     # abs_tol dominates tiny base
        assert lower.regressed(1.0, 7.0)

    def test_direction_validated(self):
        with pytest.raises(ValueError, match="higher/lower"):
            bench_track.Metric("x", "v", "sideways", 0.1)

    def test_every_headline_spec_extracts_from_committed_corpus(self):
        out = TOOLS.parent / "benchmarks" / "out"
        seen = set()
        for path in out.glob("BENCH_*.json"):
            doc = bench_track._read_bench(path)
            values, missing = bench_track._headline_values(doc)
            if doc["benchmark"] in bench_track.HEADLINES:
                assert not missing, f"{doc['benchmark']}: missing {missing}"
                seen.add(doc["benchmark"])
        # the committed corpus must cover the declared specs
        assert seen == set(bench_track.HEADLINES)


class TestIngest:
    def test_ingest_then_unchanged_is_noop(self, tmp_path, capsys):
        _write_bench(tmp_path, "sr_distributed", _sr_doc())
        assert bench_track.main(["ingest", "--out-dir", str(tmp_path)]) == 0
        ledger = json.loads((tmp_path / "TRAJECTORY.json").read_text())
        assert ledger["schema"] == bench_track.LEDGER_SCHEMA
        assert len(ledger["entries"]) == 1
        entry = ledger["entries"][0]
        assert entry["git_sha"] == "abc1234"
        assert entry["metrics"]["volume_reduction"] == 10.0
        # second ingest with identical numbers appends nothing
        assert bench_track.main(["ingest", "--out-dir", str(tmp_path)]) == 0
        ledger = json.loads((tmp_path / "TRAJECTORY.json").read_text())
        assert len(ledger["entries"]) == 1
        # changed numbers append a second provenance-stamped entry
        _write_bench(tmp_path, "sr_distributed", _sr_doc(volume=12.0))
        bench_track.main(["ingest", "--out-dir", str(tmp_path)])
        ledger = json.loads((tmp_path / "TRAJECTORY.json").read_text())
        assert len(ledger["entries"]) == 2

    def test_dirty_flag_is_carried_into_the_ledger_and_shown(self, tmp_path, capsys):
        """``git_sha`` names HEAD; a PR's numbers are measured before it is
        committed, on its parent's SHA plus changes. ``dirty`` records that
        instead of leaving it to a convention, and ``show`` marks it."""
        _write_bench(tmp_path, "sr_distributed", _sr_doc())  # predates `dirty`
        bench_track.main(["ingest", "--out-dir", str(tmp_path)])
        _write_bench(tmp_path, "sr_distributed", {**_sr_doc(volume=11.0), "dirty": True})
        bench_track.main(["ingest", "--out-dir", str(tmp_path)])
        _write_bench(tmp_path, "sr_distributed", {**_sr_doc(volume=12.0), "dirty": False})
        bench_track.main(["ingest", "--out-dir", str(tmp_path)])
        ledger = json.loads((tmp_path / "TRAJECTORY.json").read_text())
        assert [e["dirty"] for e in ledger["entries"]] == [None, True, False]
        capsys.readouterr()
        assert bench_track.main(["show", "--out-dir", str(tmp_path)]) == 0
        shown = [[cell.strip() for cell in line.split("|")]
                 for line in capsys.readouterr().out.splitlines()
                 if "volume_reduction" in line]
        assert [cells[3] for cells in shown] == ["abc1234", "abc1234*", "abc1234"]

    def test_untracked_benchmark_skipped(self, tmp_path, capsys):
        _write_bench(tmp_path, "mystery", {"value": 1})
        assert bench_track.main(["ingest", "--out-dir", str(tmp_path)]) == 0
        assert "1 untracked" in capsys.readouterr().out
        ledger = json.loads((tmp_path / "TRAJECTORY.json").read_text())
        assert ledger["entries"] == []


class TestCheckGate:
    def _ingest(self, tmp_path, **kw):
        _write_bench(tmp_path, "sr_distributed", _sr_doc(**kw))
        bench_track.main(["ingest", "--out-dir", str(tmp_path)])

    def test_within_band_passes(self, tmp_path):
        self._ingest(tmp_path)
        _write_bench(tmp_path, "sr_distributed", _sr_doc(volume=9.9))
        assert bench_track.main(["check", "--out-dir", str(tmp_path)]) == 0

    def test_regression_fails_and_names_metric(self, tmp_path, capsys):
        self._ingest(tmp_path)
        _write_bench(tmp_path, "sr_distributed", _sr_doc(volume=5.0))
        assert bench_track.main(["check", "--out-dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REGRESSED" in out
        assert "sr_distributed.volume_reduction" in out

    def test_improvement_passes_and_is_reported(self, tmp_path, capsys):
        self._ingest(tmp_path)
        _write_bench(tmp_path, "sr_distributed", _sr_doc(volume=20.0))
        assert bench_track.main(["check", "--out-dir", str(tmp_path)]) == 0
        assert "improved" in capsys.readouterr().out

    def test_no_baseline_passes(self, tmp_path, capsys):
        _write_bench(tmp_path, "sr_distributed", _sr_doc())
        assert bench_track.main(["check", "--out-dir", str(tmp_path)]) == 0
        assert "no baseline" in capsys.readouterr().out

    def test_untracked_never_fails(self, tmp_path, capsys):
        _write_bench(tmp_path, "mystery", {"value": 1})
        assert bench_track.main(["check", "--out-dir", str(tmp_path)]) == 0
        assert "untracked" in capsys.readouterr().out

    def test_bare_check_flag_alias(self, tmp_path):
        self._ingest(tmp_path)
        assert bench_track.main(["--check", "--out-dir", str(tmp_path)]) == 0

    def test_corrupt_ledger_fails_closed(self, tmp_path, capsys):
        _write_bench(tmp_path, "sr_distributed", _sr_doc())
        (tmp_path / "TRAJECTORY.json").write_text('{"schema": "other", "x": 1}')
        assert bench_track.main(["check", "--out-dir", str(tmp_path)]) == 1
        assert "not a repro.bench-trajectory/1" in capsys.readouterr().err

    def test_json_output(self, tmp_path, capsys):
        self._ingest(tmp_path)
        capsys.readouterr()  # drop the ingest banner
        _write_bench(tmp_path, "sr_distributed", _sr_doc(err=1.0))
        assert bench_track.main(
            ["check", "--out-dir", str(tmp_path), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert any("cg_rel_err" in r for r in payload["regressions"])


class TestRepoLedgerIsCurrent:
    def test_committed_ledger_matches_corpus(self):
        """The gate the CI step runs must pass on the committed tree."""
        assert bench_track.main(["check"]) == 0
