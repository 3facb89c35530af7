"""Eq. 14 / Eq. 15 — closed-form parallel efficiency, MCMC vs AUTO.

The paper's §4 analysis: MCMC speedup over L units is affine, a + bL, with
slope b = nj/(k + (n−1)j + 1) → 0 as burn-in k grows; AUTO efficiency is
≈ L whenever n or mbs is large. This harness prints both curves and a
measured sanity check: the per-rank forward-pass count of our actual
samplers matches the formula's accounting.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _harness import format_table, parse_args  # noqa: E402

from repro.cluster import auto_parallel_efficiency, mcmc_parallel_efficiency  # noqa: E402
from repro.cluster.efficiency import mcmc_slope  # noqa: E402


def bench_efficiency_formulas(benchmark):
    benchmark(
        lambda: [
            mcmc_parallel_efficiency(L, 64, 400) for L in range(1, 49)
        ]
        + [auto_parallel_efficiency(L, 1000, 170, 512) for L in range(1, 49)]
    )


def main() -> None:
    parse_args(__doc__.splitlines()[0])
    Ls = (1, 2, 4, 8, 16, 24, 48)
    samples_per_unit = 64

    rows = []
    for k in (0, 100, 400, 1600, 10**4):
        rows.append(
            [f"MCMC k={k}"]
            + [mcmc_parallel_efficiency(L, samples_per_unit, k) for L in Ls]
            + [mcmc_slope(samples_per_unit, k)]
        )
    rows.append(
        ["AUTO (n=1000)"]
        + [auto_parallel_efficiency(L, 1000, 170, 512) for L in Ls]
        + [1.0]
    )
    print(format_table(
        ["scheme"] + [f"L={L}" for L in Ls] + ["slope b"],
        rows,
        title=f"Eq. 14/15: speedup over 1 unit ({samples_per_unit} samples/unit)",
    ))

    # Sanity check against the real samplers' bookkeeping.
    from repro.models import MADE, RBM
    from repro.samplers import AutoregressiveSampler, MetropolisSampler

    n, bs = 30, 64
    rng = np.random.default_rng(0)
    made = MADE(n, rng=rng)
    # The formula counts Algorithm 1's passes, so measure Algorithm 1; the
    # default sampler runs the blocked kernel, which reports pass-equivalents.
    auto = AutoregressiveSampler(method="naive")
    auto.sample(made, bs, rng)
    auto_passes = auto.last_stats.forward_passes
    assert auto_passes == n, (auto_passes, n)
    kernel = AutoregressiveSampler()
    kernel.sample(made, bs, rng)
    rbm = RBM(n, rng=rng)
    mcmc = MetropolisSampler(n_chains=2)
    mcmc.sample(rbm, bs, rng)
    print(
        f"\nMeasured forward passes (n={n}, bs={bs}): "
        f"AUTO = {auto_passes} (formula: n = {n}; the "
        f"incremental kernel: {kernel.last_stats.pass_equivalents:g} "
        f"pass-equivalents), "
        f"MCMC = {mcmc.last_stats.forward_passes} "
        f"(formula: 1 + k + bs/c = {1 + 3*n+100 + bs//2})"
    )
    print(
        "\nExpected shape: MCMC speedup stays affine with slope shrinking as\n"
        "burn-in k grows (b → 0); AUTO tracks the ideal speedup L."
    )


if __name__ == "__main__":
    main()
