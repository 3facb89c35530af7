"""Shared machinery for the benchmark harnesses.

Every ``bench_*.py`` in this directory regenerates one table or figure from
the paper. Each file works in two modes:

- as a pytest-benchmark suite (``pytest benchmarks/ --benchmark-only``):
  micro-benchmarks of the operation the experiment times, at a scale that
  finishes in milliseconds;
- as a standalone script (``python benchmarks/bench_tableX_*.py``):
  regenerates the full table. The default preset is *reduced* (smaller
  dimensions / iterations / seeds so a CPU finishes in minutes); pass
  ``--paper`` for the paper's exact parameters (V100-cluster scale — only
  sensible for the analytic-model harnesses).

The experimental protocol itself (§5.1 architectures, optimiser settings,
MCMC defaults) lives in :mod:`repro.experiments.protocol`; this module just
re-exports it and adds harness-side conveniences (CLI, table helpers).
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import time
from pathlib import Path

import numpy as np

from repro.experiments.protocol import (  # noqa: F401 — re-exported
    TrainOutcome,
    build_model,
    build_optimizer,
    build_sampler,
    make_hamiltonian,
    train_once,
)
from repro.utils.tables import format_table  # noqa: F401 — re-exported

__all__ = [
    "PAPER_DIMS",
    "OUT_DIR",
    "build_model",
    "build_sampler",
    "build_optimizer",
    "make_hamiltonian",
    "train_once",
    "TrainOutcome",
    "parse_args",
    "format_table",
    "mean_std",
    "emit_json",
    "read_bench_json",
    "BENCH_SCHEMA_VERSION",
]

#: envelope schema: v2 added git_sha + hostname provenance stamps
BENCH_SCHEMA_VERSION = 2

PAPER_DIMS = (20, 50, 100, 200, 500)

OUT_DIR = Path(__file__).parent / "out"


def _git(*args: str) -> str | None:
    """Stripped stdout of ``git <args>`` in this checkout, or None outside one."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _git_sha() -> str | None:
    """Short commit SHA of the working tree, or None outside a checkout."""
    return _git("rev-parse", "--short", "HEAD") or None


def _git_dirty() -> bool | None:
    """Whether the measured code differs from ``git_sha`` (``git status
    --porcelain`` non-empty), or None outside a checkout. ``benchmarks/out``
    is left out: the harnesses' own outputs would make every run but a
    session's first read dirty."""
    status = _git("status", "--porcelain", "--", ":/", ":(exclude,top)benchmarks/out")
    return None if status is None else bool(status)


def emit_json(name: str, payload: dict, out_dir: Path | str | None = None) -> Path:
    """Write ``BENCH_<name>.json`` next to the text outputs.

    Every harness emits its measurements in this machine-readable envelope
    so the perf trajectory of the hot paths (sampling / local-energy
    throughput, training time) can be tracked commit over commit instead of
    parsed out of formatted tables. ``payload`` carries the
    benchmark-specific fields (typically a ``results`` row list); the
    envelope adds provenance: schema version, wall timestamp, interpreter
    and numpy versions, and — since schema v2 — the git SHA and hostname,
    so ``tools/bench_track.py`` can attribute every trajectory point to a
    commit and a machine, and ``dirty``: whether the tree that was measured
    *is* that commit (a PR's numbers are taken before it is committed, so
    its ``git_sha`` is its parent's — ``dirty`` says so).
    """
    out = Path(out_dir) if out_dir is not None else OUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    doc = {
        "benchmark": name,
        "schema_version": BENCH_SCHEMA_VERSION,
        "unix_time": round(time.time(), 3),  # repro-lint: disable=det-wall-clock -- provenance timestamp in the output envelope, never an input to any computation
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(),
        "dirty": _git_dirty(),
        "hostname": platform.node(),
        **payload,
    }
    path = out / f"BENCH_{name}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"[json] wrote {path}")
    return path


def read_bench_json(path: str | Path) -> dict:
    """Load a ``BENCH_*.json`` envelope, backfilling pre-v2 files.

    The committed corpus still contains schema-v1 documents (no
    ``git_sha`` / ``hostname``) and v2 ones from before ``dirty``; those keys
    are normalised to ``None`` so readers (the bench observatory, tests)
    never need per-version paths.
    """
    path = Path(path)
    doc = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: not a benchmark envelope")
    doc.setdefault("benchmark", path.stem.removeprefix("BENCH_"))
    doc.setdefault("schema_version", 1)
    for key in ("git_sha", "dirty", "hostname"):
        doc.setdefault(key, None)
    return doc


def parse_args(description: str) -> argparse.Namespace:
    """Standard CLI for all harnesses: --paper for full parameters."""
    parser = argparse.ArgumentParser(description=description)
    parser.add_argument(
        "--paper",
        action="store_true",
        help="use the paper's full parameters (V100-cluster scale; the "
        "measured harnesses will be very slow on CPU)",
    )
    parser.add_argument("--seeds", type=int, default=None, help="override #seeds")
    parser.add_argument("--iters", type=int, default=None, help="override #iterations")
    return parser.parse_args()


def mean_std(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())
