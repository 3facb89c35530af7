"""Human-readable scaling report for a problem/cluster combination.

Combines the calibrated cost model, the memory model, the parallelism
planner and the straggler timeline into one text report — the "should I
ask for more GPUs" answer sheet. Exposed as ``python -m repro plan``.
"""

from __future__ import annotations

import io

import numpy as np

from repro.cluster.device import DGX_NODE, ClusterSpec
from repro.cluster.efficiency import auto_parallel_efficiency, mcmc_parallel_efficiency
from repro.cluster.memory import MemoryModel
from repro.cluster.perfmodel import MadeAutoCostModel, RbmMcmcCostModel
from repro.cluster.planner import plan_parallelism
from repro.models.made import default_hidden_size, made_num_parameters
from repro.utils.tables import format_table

__all__ = ["scaling_report"]


def scaling_report(
    n: int,
    global_batch: int = 1024,
    iterations: int = 300,
    hidden: int | None = None,
    cluster: ClusterSpec | None = None,
    top_plans: int = 3,
) -> str:
    """Return the report text for a TIM-style problem of dimension ``n``."""
    if n < 1 or global_batch < 1:
        raise ValueError("n and global_batch must be positive")
    cluster = cluster or ClusterSpec(node=DGX_NODE)
    h = hidden if hidden is not None else default_hidden_size(n)
    made = MadeAutoCostModel(device=cluster.node.device, cluster=cluster)
    rbm = RbmMcmcCostModel(device=cluster.node.device, cluster=cluster)
    mem = MemoryModel(device=cluster.node.device)

    out = io.StringIO()
    w = out.write
    w(f"Scaling report — TIM n={n}, MADE h={h}, global batch {global_batch}, "
      f"{iterations} iterations\n")
    w(f"Cluster: {cluster.nodes} nodes × {cluster.node.gpus} × "
      f"{cluster.node.device.name}\n\n")

    # -- single-device picture ---------------------------------------------------
    d = made_num_parameters(n, h)
    try:
        max_mbs = mem.max_mini_batch(n, h)
        mem_line = f"memory-saturating mini-batch 2^{int(np.log2(max_mbs))}"
    except ValueError:
        mem_line = "does not fit on one device"
    w("Single device:\n")
    w(f"  parameters d = {d}; {mem_line}\n")
    w(f"  MADE+AUTO: {made.training_time(n, global_batch, iterations):.1f} s"
      f" ({made.iteration_time(n, global_batch)*1e3:.1f} ms/iter)\n")
    w(f"  RBM+MCMC : {rbm.training_time(n, global_batch, iterations):.1f} s"
      f" (chain k+bs/c = {rbm.chain_steps(n, global_batch)})\n\n")

    # -- recommended plans -----------------------------------------------------------
    plans = plan_parallelism(
        n, global_batch, hidden=h, cluster=cluster, cost_model=made,
        memory_model=mem,
    )[:top_plans]
    rows = [
        [f"{p.data_ranks}xDP · {p.model_shards}xMP", p.mini_batch,
         p.iteration_time * 1e3, p.dp_comm_time * 1e6, p.mp_comm_time * 1e6,
         "yes" if p.memory_ok else "NO"]
        for p in plans
    ]
    w(format_table(
        ["plan", "mbs", "iter (ms)", "DP comm (µs)", "MP comm (µs)", "fits"],
        rows, title="Recommended execution plans",
    ))
    w("\n\n")

    # -- parallel efficiency ------------------------------------------------------------
    best = plans[0]
    ls = sorted({1, 2, 4, 8, cluster.total_gpus})
    rows = [
        ["AUTO (Eq. 15)"] + [
            f"{auto_parallel_efficiency(L, n, h, max(1, global_batch // L)):.2f}"
            for L in ls
        ],
        ["MCMC (Eq. 14, k=3n+100)"] + [
            f"{mcmc_parallel_efficiency(L, max(1, global_batch // L), 3 * n + 100):.2f}"
            for L in ls
        ],
    ]
    w(format_table(["sampler"] + [f"L={L}" for L in ls], rows,
                   title="Speedup over one device"))
    w("\n\n")

    # -- robustness ------------------------------------------------------------------------
    L = best.data_ranks * best.model_shards
    gpn = min(L, cluster.node.gpus)
    nodes = max(1, L // gpn)
    factors = np.ones((nodes, gpn))
    (base,), _ = made.simulate(n, best.mini_batch, factors, hidden=h)
    factors[0, 0] = 1.5
    (slow,), _ = made.simulate(n, best.mini_batch, factors, hidden=h)
    w("Robustness (the best plan's iteration timeline):\n")
    w(f"  homogeneous iteration: {base*1e3:.2f} ms\n")
    w(f"  with one 1.5x straggler: {slow*1e3:.2f} ms "
      f"({slow / base:.2f}x — synchronous steps are gated by "
      "the slowest rank)\n")
    return out.getvalue()
