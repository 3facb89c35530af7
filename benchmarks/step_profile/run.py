"""step_profile — the repo's benchmark: where does a VQMC step's time go?

One measured run (what the regression driver calls)::

    python3 benchmarks/step_profile/run.py --workload tim256 --seed 0 \
        --seconds 12 --trace 0

measures one workload for ``--seconds`` and prints, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` — the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
the per-layer ledger with ``--trace 1``.

The whole suite, for people::

    python3 benchmarks/step_profile/run.py --all [--seed S] [--repeats R] \
        [--smoke] [--out DIR]

runs every workload in its own child process, untraced and then traced,
prints every metric by name with its unit and sample count, and writes
``DIR/step_profile.json`` for ``compare.py``.

See README.md in this directory for the workloads, the layer map and how
the metrics are expected to interact.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: two ranks (or two client
# threads beside a server) on this 2-vCPU class of host must not each
# spawn a BLAS pool, and a single-threaded GEMM is what the cost model
# is calibrated against.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / "_work"
#: set-ups per run; ``setup_s`` is their median
SETUP_REPS = 3


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program(t0: float) -> float:
    """Put the program under test on the path and load it; returns the
    seconds that took (part of ``setup_s``: a user waits for imports too)."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    try:
        import workloads  # noqa: F401
    except ImportError as exc:
        sys.exit(f"step_profile: cannot load the program under test from {ROOT / 'src'}: {exc}")
    return time.perf_counter() - t0


def run_one(args: argparse.Namespace) -> int:
    """One measured run of one workload; the driver's contract."""
    t0 = time.perf_counter()
    bench = declared()
    import_s = _import_program(t0)
    import host
    import workloads

    trace = bool(args.trace)
    probe = host.SpeedProbe()
    import_s /= probe()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    result = workloads.run_workload(
        args.workload, args.seed, args.seconds, trace,
        1 if args.smoke else SETUP_REPS, workdir, probe, smoke=args.smoke,
    )
    if trace and result.spans:
        WORK.mkdir(parents=True, exist_ok=True)
        (WORK / f"trace_{args.workload}.json").write_text(json.dumps(result.spans))

    section = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in section}
    values = dict(result.values)
    if not trace:
        value, n = values["setup_s"]
        values["setup_s"] = (value + import_s, n)
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise SystemExit(f"step_profile: metrics not declared in BENCHMARK.json: {undeclared}")
    if not trace and set(units) - set(values):
        raise SystemExit(f"step_profile: metrics not measured: {sorted(set(units) - set(values))}")

    info = host.provenance(ROOT, args.seed)
    print(f"# step_profile {args.workload} trace={int(trace)} seconds={args.seconds} "
          + " ".join(f"{k}={v}" for k, v in info.items()))
    if info["load_warning"]:
        print(f"# WARNING: 1-min load {info['load1']} > nproc/2: timings will be noisy")
    for note in result.notes:
        print(f"# {note}")
    valid = not trace or _trace_valid(values)
    for name in units:
        # a layer that a workload does not use did no work: its row reads 0
        value, n = values.get(name, (0.0, 0))
        flag = "" if valid or name.startswith("trace.") else "  INVALID"
        print(f"{name:28s} {value:>16.6g} {units[name]:8s} n={n}{flag}")
    print("# samples " + json.dumps({name: values.get(name, (0.0, 0))[1] for name in units}))
    print(json.dumps({
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": {
            name: {"value": float(values.get(name, (0.0, 0))[0]), "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if result.correct else 1


def _trace_valid(values: dict) -> bool:
    """Per-layer rows count only when the mirror reproduced the driver,
    tiled the step and did not slow it (serve16 has no step to tile)."""
    if values["trace.faithful"][0] != 1.0:
        return False
    if "trace.coverage" not in values:
        return True
    return values["trace.coverage"][0] >= 0.9 and values["trace.overhead_pct"][0] <= 5.0


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each run in its own child process, one at a time."""
    bench = declared()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload:
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else (0.25 if args.smoke else bench["run_seconds"])
    runs, status = [], 0
    for repeat in range(args.repeats):
        for name in names:
            for trace in (0, 1):
                cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed + repeat), "--seconds", str(seconds),
                       "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
                lines = proc.stdout.strip().splitlines()
                sys.stdout.write("\n".join(lines[:-1]) + "\n")
                if proc.returncode != 0:
                    status = 1
                    sys.stdout.write(f"# FAILED (exit {proc.returncode}): {name} trace={trace}\n{proc.stderr}")
                if not lines or not lines[-1].startswith("{"):
                    continue
                counts = json.loads(lines[-2].removeprefix("# samples "))
                run = json.loads(lines[-1])
                for metric, entry in run["metrics"].items():
                    entry["n"] = counts[metric]
                runs.append({"workload": name, "seed": args.seed + repeat,
                             "trace": trace, "header": lines[0], **run})
    _print_derived(runs)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "step_profile.json").write_text(json.dumps(
            {"claim": None, "seconds": seconds, "smoke": args.smoke, "runs": runs}, indent=1))
    return status


def _print_derived(runs: list[dict]) -> None:
    """Figures that need two workloads of one invocation."""
    def p50(name: str) -> list[float]:
        return [r["metrics"]["op_ms_p50"]["value"] for r in runs
                if r["workload"] == name and not r["trace"]]

    serial, parallel = p50("sr64"), p50("dp2_sr64")
    if serial and parallel:
        import statistics
        a, b = statistics.median(serial), statistics.median(parallel)
        print(f"# dp_speedup = sr64.op_ms_p50 / dp2_sr64.op_ms_p50 = {a:.3f} / {b:.3f} = {a / b:.3f}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--all", action="store_true", help="run the whole suite")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="with --all: runs per workload, on seeds seed..seed+R-1")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, whole suite < 20 s")
    parser.add_argument("--out", help="with --all: directory for step_profile.json")
    args = parser.parse_args()
    if args.all:
        return run_all(args)
    if not args.workload or args.seconds is None:
        parser.error("give --workload and --seconds, or --all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
