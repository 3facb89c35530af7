"""Ablation — stochastic-reconfiguration solver: dense vs matrix-free CG.

DESIGN.md calls out the solver crossover as a design choice: the dense
path builds the d×d Fisher matrix (O(Bd² + d³)); the CG path only does
O(Bd)-cost matvecs. This bench locates the crossover empirically and
verifies the two solvers agree on the natural-gradient direction.

The coordinate arm times the one CG loop in both of its coordinate systems
on the same (N, d, k) inputs — sample space pays one N²d Gram product and
then iterates on (N+1)-vectors, parameter space streams the N×d matrix
twice per iteration — which is where `SAMPLE_ROWS_PER_ITERATION` comes
from. It reaches below the public API (the rule picks one space per
input; measuring the rule needs both).

The distributed arm measures the claim that motivated the
communicator-aware engine (`repro.optim.sr`): with `solver='cg'` no SR step
moves the d×d moment matrix the dense path must (O(d²)). Two regimes, both
counted exactly from `CommStats.collective_bytes` (ground truth, not a
model): parameter-space CG (N ≥ d, or a budget small against N) allreduces
the (d+1) centring vector and one d-vector per iteration, `d+1 + k·d`
floats; sample-space CG moves the centring vector, the column blocks a
rank owes its peers, one (N+1)² Gram matrix and one d-vector,
`d+1 + N_r·(d − d/L) + (N+1)² + d` floats whatever k — more than
parameter space when `N_r·(1 − 1/L) > k`, in 4 collectives instead of
k + 1. Both are checked against the serial big-batch dense solve,
including at d beyond `dense_threshold`. Emits `BENCH_sr_distributed.json`.
"""

from __future__ import annotations

import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _harness import emit_json, format_table, parse_args  # noqa: E402

from repro.distributed import run_threaded  # noqa: E402
from repro.optim import StochasticReconfiguration  # noqa: E402
from repro.optim import sr as sr_module  # noqa: E402

#: parameter count of the step profile's sr64 workload (MADE, n = 64)
SR64_D = 11_158


def _one_solve(d: int, solver: str, batch: int = 256, seed: int = 0) -> tuple[float, str]:
    rng = np.random.default_rng(seed)
    o = rng.normal(size=(batch, d))
    g = rng.normal(size=d)
    sr = StochasticReconfiguration(diag_shift=1e-3, solver=solver)
    t0 = time.perf_counter()
    sr.natural_gradient(o, g)
    return time.perf_counter() - t0, sr.last_solve.space


def _solve_in(space: str, o: np.ndarray, g: np.ndarray, budget: int) -> float:
    """Seconds of one budgeted CG solve forced into ``space``."""
    sr = StochasticReconfiguration(diag_shift=1e-3, solver="cg", cg_maxiter=budget)
    t0 = time.perf_counter()
    mean, total = sr._mean(o, None)
    if space == "sample":
        sr._solve_in_sample_space(o, mean, total, g, None)
    else:
        matvec = sr._matvec_from(o - mean, total, None)
        sr_module._cg(matvec, np.dot, g, sr.cg_tol, budget)
    return time.perf_counter() - t0


def run_coordinate_arm(d: int, batches, budgets, reps: int = 2) -> list[dict]:
    """Sample- vs parameter-space CG on identical inputs, and what the rule
    picks: the crossover behind ``SAMPLE_ROWS_PER_ITERATION``."""
    rows = []
    rng = np.random.default_rng(d)
    g = rng.normal(size=d)
    for n in batches:
        o = rng.normal(size=(n, d))
        for k in budgets:
            seconds = {
                space: min(_solve_in(space, o, g, k) for _ in range(reps))
                for space in ("sample", "parameter")
            }
            sr = StochasticReconfiguration(solver="cg", cg_maxiter=k)
            sr.natural_gradient(o, g)
            rows.append({
                "N": n, "d": d, "k": k,
                "sample_ms": seconds["sample"] * 1e3,
                "parameter_ms": seconds["parameter"] * 1e3,
                "rows_per_iteration": n / k,
                "space": sr.last_solve.space,
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

    Returns (solution, per-rank collective bytes, CG iterations, seconds,
    space). Every rank computes the identical solution; rank 0's view is
    returned.
    """
    shards = np.array_split(o, world)

    def worker(comm, rank):
        sr = StochasticReconfiguration(
            diag_shift=1e-3, solver=solver, cg_maxiter=500
        )
        t0 = time.perf_counter()
        sol = sr.natural_gradient(shards[rank], g, comm=comm)
        elapsed = time.perf_counter() - t0
        info = sr.last_solve
        return sol, info.comm_bytes, info.iterations, elapsed, info.space

    return run_threaded(worker, world)[0]


def run_distributed_arm(dims, world: int, batch: int) -> list[dict]:
    """Comm-volume + parity table: distributed dense vs distributed CG,
    both against the serial big-batch dense solve."""
    results = []
    for d in dims:
        rng = np.random.default_rng(d)
        o = rng.normal(size=(batch, d))
        g = rng.normal(size=d)
        ref = StochasticReconfiguration(
            diag_shift=1e-3, solver="dense"
        ).natural_gradient(o, g)
        ref_norm = np.linalg.norm(ref)

        sol_c, bytes_c, iters, t_c, space = _distributed_solve(o, g, world, "cg")
        err_c = float(np.linalg.norm(sol_c - ref) / ref_norm)
        row = {
            "d": d,
            "world": world,
            "batch": batch,
            "space": space,
            "cg_iterations": iters,
            "cg_bytes_per_rank": bytes_c,
            "cg_seconds": t_c,
            "cg_rel_err": err_c,
            "dxd_bytes": d * d * 8,
        }
        if d <= 1500:  # the dense d×d allreduce gets slow fast — cap it
            sol_d, bytes_d, _, t_d, _ = _distributed_solve(o, g, world, "dense")
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
        t_cg, space = min(_one_solve(d, "cg", seed=s) for s in range(3))
        # agreement
        rng = np.random.default_rng(9)
        o = rng.normal(size=(256, d))
        g = rng.normal(size=d)
        sd = StochasticReconfiguration(diag_shift=1e-3, solver="dense")
        sc = StochasticReconfiguration(diag_shift=1e-3, solver="cg")
        err = np.max(np.abs(sd.natural_gradient(o, g) - sc.natural_gradient(o, g)))
        rows.append([d, t_dense * 1e3, t_cg * 1e3, space, t_dense / t_cg, f"{err:.1e}"])
    print(format_table(
        ["d", "dense (ms)", "CG (ms)", "space", "dense/CG", "max |Δdirection|"],
        rows,
        title="SR solver ablation (B = 256 samples)",
    ))
    print("\nThe 'auto' mode switches to CG above d = 2000 — consistent with "
          "the crossover above.")

    # -- coordinate arm: where does the Gram product pay for itself? ------------
    batches = (128, 256, 512, 1024)
    coords = run_coordinate_arm(SR64_D, batches, budgets=(8, 32))
    print()
    print(format_table(
        ["N", "k", "sample (ms)", "parameter (ms)", "N/k", "rule picks"],
        [[r["N"], r["k"], r["sample_ms"], r["parameter_ms"],
          r["rows_per_iteration"], r["space"]] for r in coords],
        title=f"CG coordinates at d = {SR64_D} (serial, fixed budget k)",
    ))
    print(
        "\nSample space is the smaller problem while N/k stays under the "
        "break-even\n(≈ 24–40 rows per iteration with one BLAS thread, ≈ 16 "
        "with two, on this class\nof host); the rule takes it up to "
        f"N/k = {sr_module.SAMPLE_ROWS_PER_ITERATION}, and never when N ≥ d."
    )

    # -- distributed arm: comm volume is the story, not flops ------------------
    world = 4
    dist_dims = (100, 300, 1000, 3000) if args.paper else (100, 300, 1000, 2500)
    dist = run_distributed_arm(dist_dims, world=world, batch=256)
    table = []
    for r in dist:
        table.append([
            r["d"],
            r["space"],
            r["cg_iterations"],
            f"{r['cg_bytes_per_rank'] / 1e3:.1f}",
            f"{r.get('dense_bytes_per_rank', r['dxd_bytes']) / 1e3:.1f}",
            f"{r.get('dense_bytes_per_rank', r['dxd_bytes']) / r['cg_bytes_per_rank']:.1f}×",
            f"{r['cg_rel_err']:.1e}",
        ])
    print()
    print(format_table(
        ["d", "space", "CG iters", "CG kB/rank", "dense kB/rank", "dense/CG", "rel err vs serial dense"],
        table,
        title=f"Distributed SR comm volume per solve (L = {world} thread ranks)",
    ))
    print(
        "\nParameter-space CG allreduces the (d+1) centring vector + one "
        "d-vector per\niteration — O(d·iters). Sample-space CG moves the "
        "centring vector, N_r·(d − d/L)\nfloats of column blocks, one "
        "(N+1)² Gram matrix and one d-vector — independent\nof the "
        "iteration count, in 4 collectives. Dense must move the d×d moment "
        "matrix —\nO(d²). All match the serial big-batch dense solve, "
        "including beyond the\ndense_threshold crossover."
    )
    # Acceptance floor: every CG row moved exactly its regime's volume, and
    # at the largest d that undercuts the d×d matrix by a wide margin while
    # still matching the dense direction.
    for r in dist:
        d, n = r["d"], r["batch"]
        if r["space"] == "parameter":
            floats = (d + 1) + r["cg_iterations"] * d
        else:  # rank 0's shard and column block
            n_0 = len(np.array_split(np.arange(n), world)[0])
            own = int(np.linspace(0, d, world + 1).astype(int)[1])
            floats = (d + 1) + n_0 * (d - own) + (n + 1) ** 2 + d
        assert r["cg_bytes_per_rank"] == floats * 8, (
            f"d={d} ({r['space']} space): moved {r['cg_bytes_per_rank']} B, "
            f"regime predicts {floats * 8} B"
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
        "coordinates": coords,
    })


if __name__ == "__main__":
    main()
