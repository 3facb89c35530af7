"""Ablation — what breaks weak scaling in practice: stragglers and jitter.

The paper's Figure 3 shows flat weak scaling on a healthy homogeneous
cluster. Synchronous data parallelism is only as fast as its slowest rank,
so this harness evaluates the cost model's barrier (the max over per-rank
arrival times, ``MadeAutoCostModel.simulate``) to quantify the two
real-world failure modes Fig. 3's homogeneous cluster hides:

1. a single straggler GPU (thermal throttling, bad host): job slowdown
   tracks the straggler's slowdown almost 1:1, independent of L;
2. per-step compute jitter: even zero-mean noise inflates the mean
   iteration time as E[max of L draws], growing with L — a genuine
   (if mild) weak-scaling penalty invisible in Fig. 3's averages.
"""

from __future__ import annotations

import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _harness import format_table, parse_args  # noqa: E402

from repro.cluster import MadeAutoCostModel  # noqa: E402


def bench_straggler_timeline(benchmark):
    model = MadeAutoCostModel()
    benchmark(lambda: model.simulate(500, 64, np.ones((6, 4)), jitter=0.1,
                                     iterations=5))


def main() -> None:
    parse_args(__doc__.splitlines()[0])
    n, mbs = 1000, 128
    model = MadeAutoCostModel()

    # ---- 1. single straggler -------------------------------------------------
    rows = []
    for n_nodes, gpn in ((1, 4), (2, 4), (6, 4)):
        base = model.iteration_time(n, mbs, n_nodes, gpn)
        for slow in (1.25, 1.5, 2.0):
            factors = np.ones((n_nodes, gpn))
            factors[0, 0] = slow
            (wall,), (arrive,) = model.simulate(n, mbs, factors)
            rows.append([
                f"{n_nodes}x{gpn}", f"{slow:.2f}x",
                wall / base,
                float(np.mean(arrive.max() - arrive[1:])) * 1e3,
            ])
    print(format_table(
        ["config", "straggler", "job slowdown", "mean idle of healthy ranks (ms)"],
        rows,
        title=f"Single-straggler ablation (TIM n={n}, mbs={mbs})",
        precision=3,
    ))

    # ---- 2. jitter vs L --------------------------------------------------------
    rows = []
    base = model.iteration_time(n, mbs)
    for L in (1, 4, 8, 16, 24):
        noisy, _ = model.simulate(
            n, mbs, np.ones((max(1, L // 4), min(L, 4))),
            jitter=0.2, iterations=30, rng=np.random.default_rng(1),
        )
        rows.append([L, noisy.mean() / base])
    print()
    print(format_table(
        ["ranks L", "mean iter time vs 1-rank noiseless"],
        rows,
        title="Jitter ablation (σ = 0.2 lognormal per phase)",
        precision=3,
    ))
    print(
        "\nExpected shape: job slowdown ≈ straggler slowdown at every L\n"
        "(synchronous barrier); jitter penalty grows with L as E[max]."
    )


if __name__ == "__main__":
    main()
