#!/usr/bin/env python3
"""Perf-regression observatory over the committed ``BENCH_*.json`` corpus.

Every benchmark harness emits a machine-readable envelope
(``benchmarks/out/BENCH_<name>.json``, see ``benchmarks/_harness.emit_json``).
This tool turns those one-off snapshots into an enforced time series:

- ``ingest``  — normalise each benchmark's *headline metrics* (the spec
  below) into ``benchmarks/out/TRAJECTORY.json``, a provenance-stamped
  append-only ledger (one entry per benchmark per change: git SHA and
  whether the tree was dirty, hostname, timestamp, metrics). Re-ingesting
  unchanged results is a no-op, so the ledger only grows when the numbers
  move.
- ``check``   — gate a PR: compare the current ``BENCH_*.json`` files
  against each benchmark's latest ledger entry and fail (exit 1) when a
  metric regressed beyond its tolerance band
  (``max(rel_tol · |baseline|, abs_tol)`` in the *bad* direction —
  improvements always pass and are reported as such). ``--check`` as a
  bare flag is an alias so CI can run ``tools/bench_track.py --check``.
- ``show``    — render the trajectory of one or all benchmarks.

Headline metrics are declared per benchmark in :data:`HEADLINES` with a
direction (``higher``/``lower`` = which way is good) and a relative
tolerance sized to how the number is produced: deterministic counts
(communication volume, pass equivalents) get tight bands; wall-clock
measurements on shared CI runners get generous ones. Unknown
``BENCH_*.json`` files are reported as *untracked*, never failed — adding
a benchmark before adding its spec must not break the gate.

Exit codes: 0 ok, 1 regression / corrupt ledger, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "out"
LEDGER_NAME = "TRAJECTORY.json"

#: trajectory-ledger schema identifier
LEDGER_SCHEMA = "repro.bench-trajectory/1"


class Metric:
    """One headline metric: where it lives in the envelope and how much it
    may regress before the gate trips."""

    def __init__(self, name: str, path: str, direction: str,
                 rel_tol: float, abs_tol: float = 0.0):
        if direction not in ("higher", "lower"):
            raise ValueError(f"direction must be higher/lower, got {direction}")
        self.name = name
        self.path = path  # dotted keys; [i] = list element i ([-1]: the last)
        self.direction = direction
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol

    def extract(self, doc: dict):
        node = doc
        for part in self.path.split("."):
            key, *indices = part.split("[")
            if key:
                node = node[key]
            for index in indices:
                node = node[int(index.rstrip("]"))]
        return float(node)

    def band(self, baseline: float) -> float:
        return max(self.rel_tol * abs(baseline), self.abs_tol)

    def regressed(self, baseline: float, current: float) -> bool:
        delta = current - baseline
        bad = -delta if self.direction == "higher" else delta
        return bad > self.band(baseline)


# Tolerance tiers: DET = deterministic (counts, byte volumes, analytic
# ratios) — anything beyond float noise is a real change; TIME = wall-clock
# on shared runners — generous; PCT = overhead percentages derived from
# paired timings — noisy in the extreme, gate only on blowups.
DET, TIME, PCT = 0.02, 0.60, 2.0

# Not gated on purpose: ``sanitizer_overhead`` (its paired-timing percentage
# ranges −10 … +16 % run to run on one host, so any band either flaps or
# catches nothing). Its bench still writes BENCH_sanitizer_overhead.json,
# which ``check`` lists as untracked.
HEADLINES: dict[str, list[Metric]] = {
    "obs_overhead": [
        Metric("enabled_overhead_pct", "step.enabled_overhead_pct", "lower", PCT,
               abs_tol=5.0),
        Metric("instrumented_overhead_pct", "step.instrumented_overhead_pct",
               "lower", PCT, abs_tol=5.0),
        Metric("enabled_ns_per_span", "span_cost.enabled_ns_per_span", "lower", TIME,
               abs_tol=2000.0),
    ],
    "fault_recovery": [
        Metric("comm_overhead_pct", "overhead_pct", "lower", PCT, abs_tol=10.0),
    ],
    "sr_distributed": [
        Metric("volume_reduction", "headline.volume_reduction", "higher", DET),
        Metric("cg_rel_err", "headline.cg_rel_err_vs_serial_dense", "lower", DET,
               abs_tol=1e-9),
    ],
    "explore_coverage": [
        Metric("interleavings_per_s", "interleavings_per_s", "higher", TIME),
    ],
    "elastic_scaling": [
        Metric("recovered_fraction", "straggler.recovered_fraction", "higher", 0.25),
    ],
    "fig1_sampling_cost": [
        # bs = 4096: runs of one site, the mask floor
        Metric("auto_incremental_pass_equivalents",
               "results[-1].auto_incremental_pass_equivalents", "lower", DET),
        # bs = 64: whole-block runs, so this gates what the sweeps cost
        Metric("auto_incremental_pass_equivalents_bs64",
               "results[0].auto_incremental_pass_equivalents", "lower", DET),
    ],
    "server_throughput": [
        Metric("throughput_ratio", "headline.throughput_ratio", "higher", TIME),
        Metric("queries_per_second", "headline.queries_per_second", "higher", TIME),
    ],
    "table1_training_time": [
        Metric("made_auto_seconds", "results[-1].made_auto_seconds", "lower", TIME),
    ],
}


def _read_bench(path: pathlib.Path) -> dict:
    """Backfill-tolerant envelope reader (v1 files lack git_sha/hostname,
    older v2 ones ``dirty``); mirrors ``benchmarks/_harness.read_bench_json``
    without importing the harness (which pulls in the full training stack)."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a benchmark envelope")
    doc.setdefault("benchmark", path.stem[len("BENCH_"):])
    doc.setdefault("schema_version", 1)
    for key in ("git_sha", "dirty", "hostname"):
        doc.setdefault(key, None)
    return doc


def _bench_files(out_dir: pathlib.Path) -> list[pathlib.Path]:
    if not out_dir.is_dir():
        raise FileNotFoundError(f"no benchmark output directory {out_dir}")
    return sorted(out_dir.glob("BENCH_*.json"))


def _load_ledger(out_dir: pathlib.Path) -> dict:
    path = out_dir / LEDGER_NAME
    if not path.exists():
        return {"schema": LEDGER_SCHEMA, "entries": []}
    ledger = json.loads(path.read_text(encoding="utf-8"))
    if ledger.get("schema") != LEDGER_SCHEMA or "entries" not in ledger:
        raise ValueError(f"{path}: not a {LEDGER_SCHEMA} ledger")
    return ledger


def _latest(ledger: dict, benchmark: str) -> dict | None:
    hit = None
    for entry in ledger["entries"]:
        if entry["benchmark"] == benchmark:
            hit = entry
    return hit


def _headline_values(doc: dict) -> tuple[dict[str, float], list[str]]:
    """Extract the declared metrics; missing paths are reported, not fatal
    (an old envelope predating a metric must not break ingestion)."""
    values, missing = {}, []
    for metric in HEADLINES.get(doc["benchmark"], []):
        try:
            values[metric.name] = metric.extract(doc)
        except (KeyError, IndexError, TypeError, ValueError):
            missing.append(metric.name)
    return values, missing


def cmd_ingest(args: argparse.Namespace) -> int:
    out_dir = pathlib.Path(args.out_dir)
    ledger = _load_ledger(out_dir)
    appended, unchanged, untracked = [], [], []
    for path in _bench_files(out_dir):
        doc = _read_bench(path)
        name = doc["benchmark"]
        if name not in HEADLINES:
            untracked.append(name)
            continue
        values, missing = _headline_values(doc)
        previous = _latest(ledger, name)
        if previous is not None and previous["metrics"] == values:
            unchanged.append(name)
            continue
        ledger["entries"].append(
            {
                "benchmark": name,
                "schema_version": doc["schema_version"],
                "git_sha": doc["git_sha"],
                "dirty": doc["dirty"],
                "hostname": doc["hostname"],
                "unix_time": doc.get("unix_time"),
                "metrics": values,
                **({"missing_metrics": missing} if missing else {}),
            }
        )
        appended.append(name)
    ledger_path = out_dir / LEDGER_NAME
    ledger_path.write_text(json.dumps(ledger, indent=2) + "\n", encoding="utf-8")
    print(
        f"[bench-track] {ledger_path.name}: +{len(appended)} entr"
        f"{'y' if len(appended) == 1 else 'ies'} "
        f"({', '.join(appended) if appended else 'none'}), "
        f"{len(unchanged)} unchanged, {len(untracked)} untracked"
    )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.utils.tables import format_table

    out_dir = pathlib.Path(args.out_dir)
    try:
        ledger = _load_ledger(out_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows, regressions, untracked = [], [], []
    for path in _bench_files(out_dir):
        doc = _read_bench(path)
        name = doc["benchmark"]
        if name not in HEADLINES:
            untracked.append(name)
            continue
        baseline = _latest(ledger, name)
        values, _ = _headline_values(doc)
        for metric in HEADLINES[name]:
            current = values.get(metric.name)
            base = (
                baseline["metrics"].get(metric.name)
                if baseline is not None
                else None
            )
            if current is None or base is None:
                rows.append([name, metric.name, base, current, "-", "no baseline"])
                continue
            band = metric.band(base)
            if metric.regressed(base, current):
                status = "REGRESSED"
                regressions.append(
                    f"{name}.{metric.name}: {base:.4g} -> {current:.4g} "
                    f"({metric.direction} is better, band ±{band:.4g})"
                )
            elif (current - base if metric.direction == "higher"
                  else base - current) > band:
                status = "improved"
            else:
                status = "ok"
            rows.append(
                [name, metric.name, f"{base:.4g}", f"{current:.4g}",
                 f"±{band:.3g}", status]
            )
    if args.json:
        print(json.dumps(
            {"regressions": regressions, "untracked": untracked,
             "checked": len(rows)}, indent=2))
    else:
        print(format_table(
            ["benchmark", "metric", "baseline", "current", "band", "status"],
            rows, title="bench observatory: current vs. trajectory baseline"))
        if untracked:
            print(f"\nuntracked (no headline spec): {', '.join(untracked)}")
        if regressions:
            print("\nREGRESSIONS:")
            for line in regressions:
                print(f"  {line}")
        else:
            print("\nno regressions beyond tolerance bands")
    return 1 if regressions else 0


def cmd_show(args: argparse.Namespace) -> int:
    from repro.utils.tables import format_table

    ledger = _load_ledger(pathlib.Path(args.out_dir))
    rows = []
    for entry in ledger["entries"]:
        if args.benchmark and entry["benchmark"] != args.benchmark:
            continue
        # "sha*": measured on a tree that was not that commit (its parent's
        # SHA plus uncommitted changes — how every PR's numbers are taken).
        sha = (entry.get("git_sha") or "-") + ("*" if entry.get("dirty") else "")
        for metric, value in sorted(entry["metrics"].items()):
            rows.append(
                [entry["benchmark"], metric, f"{value:.5g}",
                 sha, entry.get("hostname") or "-"]
            )
    print(format_table(
        ["benchmark", "metric", "value", "git", "host"],
        rows, title="bench trajectory ledger"))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # CI convenience: `tools/bench_track.py --check` == `... check`.
    if argv and argv[0] == "--check":
        argv[0] = "check"
    parser = argparse.ArgumentParser(
        prog="tools/bench_track.py",
        description="track and gate the BENCH_*.json perf trajectory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_ingest = sub.add_parser("ingest", help="fold fresh results into the ledger")
    p_ingest.add_argument("--out-dir", default=str(OUT_DIR))
    p_ingest.set_defaults(fn=cmd_ingest)

    p_check = sub.add_parser("check", help="gate: current results vs. baseline")
    p_check.add_argument("--out-dir", default=str(OUT_DIR))
    p_check.add_argument("--json", action="store_true", help="JSON output")
    p_check.set_defaults(fn=cmd_check)

    p_show = sub.add_parser("show", help="print the ledger")
    p_show.add_argument("benchmark", nargs="?", default=None)
    p_show.add_argument("--out-dir", default=str(OUT_DIR))
    p_show.set_defaults(fn=cmd_show)

    args = parser.parse_args(argv)
    # repro.utils.tables import happens inside the commands; bootstrap first.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    if str(src) not in sys.path:
        try:
            import repro.utils.tables  # noqa: F401
        except ImportError:
            sys.path.insert(0, str(src))
    try:
        return args.fn(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
