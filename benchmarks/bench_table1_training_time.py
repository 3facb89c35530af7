"""Table 1 — training time, RBM+MCMC vs MADE+AUTO on TIM (300 iters, 1 GPU).

Paper's claim: MADE+AUTO's wall time is ~linear in n (n sequential sampling
passes) and 10–50× below RBM+MCMC, whose chain length k + bs/c grows with n.

pytest-benchmark part: times *one* training iteration of each method at a
small size — the quantity Table 1 sums 300× over.

Script part: regenerates the table at a reduced preset (measured on this
CPU) and, for the paper's exact dimensions, prints the calibrated
cost-model prediction next to the published numbers.
"""

from __future__ import annotations

import sys

import numpy as np

sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
from _harness import emit_json, format_table, parse_args, train_once  # noqa: E402

from repro.core import VQMC  # noqa: E402
from repro.hamiltonians import TransverseFieldIsing  # noqa: E402
from repro.models import MADE, RBM  # noqa: E402
from repro.optim import Adam  # noqa: E402
from repro.samplers import AutoregressiveSampler, MetropolisSampler  # noqa: E402


def _make_vqmc(arch: str, n: int = 20):
    rng = np.random.default_rng(0)
    ham = TransverseFieldIsing.random(n, seed=1)
    if arch == "made":
        model = MADE(n, rng=rng)
        sampler = AutoregressiveSampler()
    else:
        model = RBM(n, rng=rng)
        sampler = MetropolisSampler(n_chains=2)
    return VQMC(model, ham, sampler, Adam(model.parameters()), seed=2)


def bench_made_auto_iteration(benchmark):
    vqmc = _make_vqmc("made")
    benchmark(lambda: vqmc.step(batch_size=256))


def bench_rbm_mcmc_iteration(benchmark):
    vqmc = _make_vqmc("rbm")
    benchmark(lambda: vqmc.step(batch_size=256))


def main() -> None:
    args = parse_args(__doc__.splitlines()[0])
    iterations = args.iters or (300 if args.paper else 30)
    dims = (20, 50, 100, 200, 500) if args.paper else (20, 50, 100)
    batch = 1024 if args.paper else 256

    rows = []
    records = []
    for n in dims:
        ham = TransverseFieldIsing.random(n, seed=1)
        made = train_once(ham, "made", "auto", "adam", iterations, batch, seed=0)
        rbm = train_once(ham, "rbm", "mcmc", "adam", iterations, batch, seed=0)
        # Fig. 1's hardware-independent cost: forward passes per iteration
        # (n for the naive AUTO sampler; the incremental kernel the driver
        # actually runs measures 0.5 pass-equivalents once its runs are one
        # site long, more at small batches, where its fixed-point
        # sweeps repeat the in-run GEMMs — ``samplers.pass_equiv`` in
        # benchmarks/step_profile).
        auto_passes = n
        mcmc_passes = (3 * n + 100) + batch // 2 + 1
        rows.append([
            n,
            rbm.train_seconds, made.train_seconds,
            mcmc_passes, auto_passes, mcmc_passes / auto_passes,
        ])
        records.append({
            "n": n,
            "iterations": iterations,
            "batch_size": batch,
            "rbm_mcmc_seconds": rbm.train_seconds,
            "made_auto_seconds": made.train_seconds,
            "mcmc_passes_per_iter": mcmc_passes,
            "auto_naive_passes_per_iter": auto_passes,
        })
    print(format_table(
        ["n", "RBM&MCMC (s)", "MADE&AUTO (s)",
         "MCMC passes/iter", "AUTO passes/iter", "pass ratio"],
        rows,
        title=f"Table 1 (measured, {iterations} iters, bs={batch}, CPU)",
    ))
    emit_json("table1_training_time", {
        "preset": "paper" if args.paper else "reduced",
        "results": records,
    })
    print(
        "\nNote: on a GPU every forward pass costs a near-constant kernel\n"
        "launch, so wall time tracks the pass count and MADE+AUTO wins by the\n"
        "pass ratio (the paper's Table 1). This CPU substrate is flop-bound,\n"
        "so measured seconds instead track total flops; the calibrated V100\n"
        "model below reproduces the paper's wall-clock ordering."
    )

    # Calibrated V100 model vs the published numbers at full scale.
    from repro.cluster import calibrate_to_table1
    from repro.cluster.perfmodel import TABLE1_MADE_SECONDS, TABLE1_RBM_SECONDS

    made_model, rbm_model = calibrate_to_table1()
    rows = []
    for n in (20, 50, 100, 200, 500):
        rows.append([
            n,
            TABLE1_RBM_SECONDS[n], rbm_model.training_time(n, 1024),
            TABLE1_MADE_SECONDS[n], made_model.training_time(n, 1024),
        ])
    print()
    print(format_table(
        ["n", "RBM paper", "RBM model", "MADE paper", "MADE model"],
        rows,
        title="Table 1 (paper vs calibrated V100 cost model, 300 iters)",
    ))


if __name__ == "__main__":
    main()
