"""Compare two step_profile result files, metric by metric.

    python3 benchmarks/step_profile/compare.py A/step_profile.json B/step_profile.json

``A`` is the parent (or the first of two runs of one commit), ``B`` the
change. One row per (end-to-end metric, workload): both medians, the
change in the direction that counts as worse, the bound BENCHMARK.json
fixes for the metric, the run-to-run spread (distance between the first
and third quartile over the median, the larger of the two sides) and a
verdict:

- ``regressed``  — B's median is worse than A's by more than the bound;
- ``unresolved`` — the spread is wider than the bound, so the runs cannot
  tell, unless every run of B reads better than every run of A;
- ``ok``         — otherwise.

Below that, the per-layer values that depend on the seed alone
(``SEED_DETERMINED``) are checked to repeat exactly between the files.
Exits 1 when a metric regressed or such a value differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

#: per-layer values fixed by the seed: they repeat exactly between two runs
#: of one commit, and a change that moves them changed the arithmetic
SEED_DETERMINED = (
    "converge.steps_to_target", "vqmc.energy_final", "comm.calls", "comm.bytes", "sr.cg_iters",
)


def load(path: str) -> dict:
    return json.loads(Path(path).read_text())


def by_metric(result: dict, trace: int) -> dict[tuple[str, str], list[float]]:
    values = defaultdict(list)
    for run in result["runs"]:
        if run["trace"] == trace:
            for metric, entry in run["metrics"].items():
                values[(run["workload"], metric)].append(entry["value"])
    return values


def spread(values: list[float]) -> float | None:
    """Interquartile distance over the median; None below two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return abs((q3 - q1) / statistics.median(values))


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """Returns ``(worse_by, widest_spread, verdict)``; ``worse_by`` is the
    share of A's median by which B's median is worse (negative: better)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / abs(med_a)
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    widest = max(spreads) if spreads else None
    if widest is not None and widest > bound:
        all_better = max(b) < min(a) if better == "lower" else min(b) > max(a)
        return worse_by, widest, "ok" if all_better else "unresolved"
    return worse_by, widest, "regressed" if worse_by > bound else "ok"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    a, b = (load(p) for p in argv)
    status = 0
    end_a, end_b = by_metric(a, 0), by_metric(b, 0)
    print(f"{'workload':18s} {'metric':12s} {'A median':>12s} {'B median':>12s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload in (w["name"] for w in bench["workloads"]):
        for m in bench["end_to_end"]:
            key = (workload, m["name"])
            if key not in end_a or key not in end_b:
                continue
            worse_by, widest, word = verdict(end_a[key], end_b[key], m["better"], m["bound"])
            status |= word == "regressed"
            shown = "n/a" if widest is None else f"{100 * widest:.1f}%"
            print(f"{workload:18s} {m['name']:12s} {statistics.median(end_a[key]):12.4f} "
                  f"{statistics.median(end_b[key]):12.4f} {100 * worse_by:+8.1f}% "
                  f"{100 * m['bound']:5.0f}% {shown:>7s}  {word}")

    def seeded(result: dict) -> dict:
        return {
            (run["workload"], run["seed"], name): run["metrics"][name]["value"]
            for run in result["runs"] if run["trace"] == 1 for name in SEED_DETERMINED
        }

    layer_a, layer_b = seeded(a), seeded(b)
    differing = [k for k in sorted(layer_a.keys() & layer_b.keys()) if layer_a[k] != layer_b[k]]
    print(f"\nseed-determined values compared: {len(layer_a.keys() & layer_b.keys())}, "
          f"differing: {len(differing)}")
    for workload, seed, name in differing:
        status = 1
        print(f"  {workload} seed={seed} {name}: {layer_a[workload, seed, name]!r} "
              f"!= {layer_b[workload, seed, name]!r}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
