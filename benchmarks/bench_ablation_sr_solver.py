"""Ablation — stochastic-reconfiguration solver: d×d against N×N.

Both solvers are direct: the dense path builds the d×d Fisher matrix
(O(Nd² + d³)); the sample-space path (`solver='cg'`) builds the N×N Gram
matrix, factorises it and applies Woodbury's identity (O(N²d + N³) on an
array `O`). This bench locates the crossover empirically and verifies the
two agree on the natural-gradient direction.

The Gram arm times the one product that dominates the sample-space solve
both ways on the same MADE batch: from layer statistics
(`FactoredO.gram()`: thin GEMMs, Hadamard products and explicit features
for the staircase edge only — no N×d object) against materialising `O` and
multiplying it out (`O Oᵀ`, N²d), on the `sr64` model over a grid of batch
sizes and at three more widths.

The distributed arm measures the claim that motivated the
communicator-aware engine (`repro.optim.sr`): with `solver='cg'` no SR step
moves the d×d moment matrix the dense path must (O(d²)). Counted exactly
from `CommStats.collective_bytes` (ground truth, not a model): one
allgather of this rank's rows of `O`, `N_r·d` floats for an array (the
layers' factors of a MADE are `N_r·2(n + h)`; `tests/test_optim/
test_sr_factored.py` counts those). Checked against the serial big-batch
dense solve. Emits `BENCH_sr_distributed.json`.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _harness import emit_json, format_table, parse_args  # noqa: E402

from repro.distributed import run_threaded  # noqa: E402
from repro.models.made import MADE  # noqa: E402
from repro.optim import StochasticReconfiguration  # noqa: E402

#: the step profile's sr64 model (MADE, h = 5 ln²n = 86, paper d = 11 158, 5 654 stored)
SR64_N = 64


def _one_solve(d: int, solver: str, batch: int = 256, seed: int = 0) -> tuple[float, str]:
    rng = np.random.default_rng(seed)
    o = rng.normal(size=(batch, d))
    g = rng.normal(size=d)
    sr = StochasticReconfiguration(diag_shift=1e-3, solver=solver)
    t0 = time.perf_counter()
    sr.natural_gradient(o, g)
    return time.perf_counter() - t0, sr.last_solve.solver


def _best_ms(fn, reps: int) -> float:
    fn()  # warm: block plan, BLAS
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def run_gram_arm(shapes, reps: int = 5) -> list[dict]:
    """``O Oᵀ`` of one MADE batch from layer statistics and from the dense
    matrix (its build included: that is what the dense route pays)."""
    rows = []
    for n, batch in shapes:
        model = MADE(n, rng=np.random.default_rng(n))
        x = (np.random.default_rng(batch).random((batch, n)) < 0.5).astype(np.float64)
        o = model.log_psi_and_grads(x)[1]

        def dense_gram():
            dense = np.asarray(o)
            return dense @ dense.T

        err = np.max(np.abs(o.gram() - dense_gram())) / np.max(np.abs(o.gram()))
        rows.append({
            "n": n, "h": model.hidden, "N": batch, "d": o.shape[1],
            "layers_ms": _best_ms(o.gram, reps),
            "dense_ms": _best_ms(dense_gram, reps),
            "o_bytes": batch * o.shape[1] * 8,
            "rel_err": float(err),
        })
    return rows


def bench_sr_dense_small(benchmark):
    rng = np.random.default_rng(0)
    o = rng.normal(size=(256, 200))
    g = rng.normal(size=200)
    sr = StochasticReconfiguration(solver="dense")
    benchmark(lambda: sr.natural_gradient(o, g))


def bench_sr_cg_small(benchmark):
    rng = np.random.default_rng(0)
    o = rng.normal(size=(256, 200))
    g = rng.normal(size=200)
    sr = StochasticReconfiguration(solver="cg")
    benchmark(lambda: sr.natural_gradient(o, g))


def bench_sr_cg_large(benchmark):
    rng = np.random.default_rng(0)
    o = rng.normal(size=(256, 4000))
    g = rng.normal(size=4000)
    sr = StochasticReconfiguration(solver="cg")
    benchmark(lambda: sr.natural_gradient(o, g))


# -- distributed arm ----------------------------------------------------------


def _distributed_solve(o: np.ndarray, g: np.ndarray, world: int, solver: str):
    """One distributed SR solve over `world` thread ranks sharding `o`.

    Returns (solution, per-rank collective bytes, seconds, solver). Every
    rank computes the identical solution; rank 0's view is returned.
    """
    shards = np.array_split(o, world)

    def worker(comm, rank):
        sr = StochasticReconfiguration(diag_shift=1e-3, solver=solver)
        t0 = time.perf_counter()
        sol = sr.natural_gradient(shards[rank], g, comm=comm)
        elapsed = time.perf_counter() - t0
        info = sr.last_solve
        return sol, info.comm_bytes, elapsed, info.solver

    return run_threaded(worker, world)[0]


def run_distributed_arm(dims, world: int, batch: int) -> list[dict]:
    """Comm-volume + parity table: distributed dense vs distributed
    sample-space solve, both against the serial big-batch dense solve."""
    results = []
    for d in dims:
        rng = np.random.default_rng(d)
        o = rng.normal(size=(batch, d))
        g = rng.normal(size=d)
        ref = StochasticReconfiguration(
            diag_shift=1e-3, solver="dense"
        ).natural_gradient(o, g)
        ref_norm = np.linalg.norm(ref)

        sol_c, bytes_c, t_c, solver = _distributed_solve(o, g, world, "cg")
        err_c = float(np.linalg.norm(sol_c - ref) / ref_norm)
        row = {
            "d": d,
            "world": world,
            "batch": batch,
            "solver": solver,
            "cg_bytes_per_rank": bytes_c,
            "cg_seconds": t_c,
            "cg_rel_err": err_c,
            "dxd_bytes": d * d * 8,
        }
        if d <= 1500:  # the dense d×d allreduce gets slow fast — cap it
            sol_d, bytes_d, t_d, _ = _distributed_solve(o, g, world, "dense")
            row["dense_bytes_per_rank"] = bytes_d
            row["dense_seconds"] = t_d
            row["dense_rel_err"] = float(np.linalg.norm(sol_d - ref) / ref_norm)
            row["bytes_ratio"] = bytes_d / bytes_c
        results.append(row)
    return results


def main() -> None:
    args = parse_args(__doc__.splitlines()[0])
    dims = (100, 300, 1000, 3000)
    rows = []
    for d in dims:
        t_dense = min(_one_solve(d, "dense", seed=s)[0] for s in range(3))
        t_cg, solver = min(_one_solve(d, "cg", seed=s) for s in range(3))
        # agreement
        rng = np.random.default_rng(9)
        o = rng.normal(size=(256, d))
        g = rng.normal(size=d)
        sd = StochasticReconfiguration(diag_shift=1e-3, solver="dense")
        sc = StochasticReconfiguration(diag_shift=1e-3, solver="cg")
        err = np.max(np.abs(sd.natural_gradient(o, g) - sc.natural_gradient(o, g)))
        rows.append([d, t_dense * 1e3, t_cg * 1e3, solver, t_dense / t_cg, f"{err:.1e}"])
    print(format_table(
        ["d", "dense (ms)", "N×N (ms)", "solver", "dense/N×N", "max |Δdirection|"],
        rows,
        title="SR solver ablation (B = 256 samples)",
    ))
    print("\nBoth are direct solves; 'auto' takes the smaller system "
          "(dense iff d <= N).")

    # -- Gram arm: layer statistics against the dense product -------------------
    shapes = [(SR64_N, batch) for batch in (128, 256, 512, 1024)]
    shapes += [(12, 32), (256, 64), (1000, 64)]
    grams = run_gram_arm(shapes)
    print()
    print(format_table(
        ["n", "h", "N", "d", "layers (ms)", "O + O·Oᵀ (ms)", "dense/layers", "O (MB)", "rel err"],
        [[r["n"], r["h"], r["N"], r["d"], r["layers_ms"], r["dense_ms"],
          r["dense_ms"] / r["layers_ms"], r["o_bytes"] / 1e6, f"{r['rel_err']:.1e}"]
         for r in grams],
        title="Gram matrix of one MADE batch (serial, one BLAS thread if pinned)",
    ))
    print(
        "\nLayer statistics cost O(N²·(n + h)) plus the staircase edge's "
        "explicit features\nand never hold more than a few N×256 "
        "temporaries; the dense route is N²·d and\nmust hold O."
    )

    # -- distributed arm: comm volume is the story, not flops ------------------
    world = 4
    dist_dims = (100, 300, 1000, 3000) if args.paper else (100, 300, 1000, 2500)
    dist = run_distributed_arm(dist_dims, world=world, batch=256)
    table = []
    for r in dist:
        table.append([
            r["d"],
            r["solver"],
            f"{r['cg_bytes_per_rank'] / 1e3:.1f}",
            f"{r.get('dense_bytes_per_rank', r['dxd_bytes']) / 1e3:.1f}",
            f"{r.get('dense_bytes_per_rank', r['dxd_bytes']) / r['cg_bytes_per_rank']:.1f}×",
            f"{r['cg_rel_err']:.1e}",
        ])
    print()
    print(format_table(
        ["d", "solver", "N×N kB/rank", "dense kB/rank", "dense/N×N", "rel err vs serial dense"],
        table,
        title=f"Distributed SR comm volume per solve (L = {world} thread ranks)",
    ))
    print(
        "\nThe sample-space solve allgathers this rank's N_r rows of O — "
        "N_r·d floats for\nan array, N_r·2(n + h) for a MADE's layer "
        "factors — in 1 collective, and every\nrank then solves the same "
        "N×N system. Dense must move the d×d moment matrix —\nO(d²). Both "
        "match the serial big-batch dense solve."
    )
    # Acceptance floor: every sample-space row moved exactly its rows, and
    # at the largest d that undercuts the d×d matrix by a wide margin while
    # still matching the dense direction.
    for r in dist:
        rows_0 = len(np.array_split(np.arange(r["batch"]), world)[0])
        assert r["cg_bytes_per_rank"] == rows_0 * r["d"] * 8, (
            f"d={r['d']}: moved {r['cg_bytes_per_rank']} B, "
            f"one allgather of {rows_0} rows predicts {rows_0 * r['d'] * 8} B"
        )
    big = dist[-1]
    assert big["cg_bytes_per_rank"] < big["dxd_bytes"] / 10, (
        f"CG comm volume {big['cg_bytes_per_rank']} B is not ≪ d×d "
        f"{big['dxd_bytes']} B"
    )
    assert big["cg_rel_err"] < 1e-6, (
        f"distributed CG diverged from serial dense: {big['cg_rel_err']:.2e}"
    )
    emit_json("sr_distributed", {
        "preset": "paper" if args.paper else "reduced",
        "world": world,
        "headline": {
            "d": big["d"],
            "cg_bytes_per_rank": big["cg_bytes_per_rank"],
            "dxd_bytes": big["dxd_bytes"],
            "volume_reduction": big["dxd_bytes"] / big["cg_bytes_per_rank"],
            "cg_rel_err_vs_serial_dense": big["cg_rel_err"],
        },
        "results": dist,
        "gram": grams,
    })


if __name__ == "__main__":
    main()
