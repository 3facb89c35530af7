"""Parallelism planner: choose a data/model-parallel split from cost models.

Given a problem (n, hidden), a cluster, and a *global* batch requirement,
enumerate the feasible (data_ranks × model_shards) grids over the cluster's
GPUs and score each with the calibrated cost models:

- per-iteration compute: MADE forward/backward flops over the local batch
  and local shard;
- data-parallel communication: one hierarchical allreduce of the (sharded)
  gradient per step;
- model-parallel communication: one (batch × n) logit allreduce per forward
  pass — n passes for sampling plus the measurement/backward passes — over
  the shard group;
- memory feasibility: the per-device share of model + batch must fit.

The planner's qualitative outputs reproduce the practitioner rules the
paper implies: pure data parallelism until the model (or its activations)
stops fitting; shard only as much as memory requires, because
model-parallel traffic scales with the batch while data-parallel traffic
does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cluster.comm_model import allreduce_time, hierarchical_allreduce_time
from repro.cluster.device import DGX_NODE, ClusterSpec
from repro.cluster.memory import MemoryModel
from repro.cluster.perfmodel import MadeAutoCostModel
from repro.models.made import default_hidden_size, made_num_parameters

__all__ = ["ParallelPlan", "plan_parallelism"]


@dataclass(frozen=True)
class ParallelPlan:
    """One candidate execution grid with its predicted per-iteration time."""

    data_ranks: int
    model_shards: int
    mini_batch: int  # per data-rank batch
    iteration_time: float
    compute_time: float
    dp_comm_time: float
    mp_comm_time: float
    memory_ok: bool

    @property
    def total_gpus(self) -> int:
        return self.data_ranks * self.model_shards

    def __str__(self) -> str:
        return (
            f"{self.data_ranks}×DP · {self.model_shards}×MP "
            f"(mbs={self.mini_batch}): {self.iteration_time*1e3:.2f} ms/iter "
            f"[compute {self.compute_time*1e3:.2f}, DP comm "
            f"{self.dp_comm_time*1e3:.3f}, MP comm {self.mp_comm_time*1e3:.3f}]"
        )


def _divisors(x: int) -> list[int]:
    return [d for d in range(1, x + 1) if x % d == 0]


def plan_parallelism(
    n: int,
    global_batch: int,
    hidden: int | None = None,
    cluster: ClusterSpec | None = None,
    cost_model: MadeAutoCostModel | None = None,
    memory_model: MemoryModel | None = None,
) -> list[ParallelPlan]:
    """Enumerate and rank execution plans (best first).

    Only feasible plans (batch divisible, memory fits) are returned; if
    *no* plan fits memory, the infeasible ones are returned with
    ``memory_ok=False`` so the caller can see by how much.
    """
    if n < 1 or global_batch < 1:
        raise ValueError("n and global_batch must be positive")
    cluster = cluster or ClusterSpec(node=DGX_NODE)
    cost = cost_model or MadeAutoCostModel(device=cluster.node.device,
                                           cluster=cluster)
    mem = memory_model or MemoryModel(device=cluster.node.device)
    h = hidden if hidden is not None else default_hidden_size(n)
    total_gpus = cluster.total_gpus

    plans: list[ParallelPlan] = []
    for shards in _divisors(cluster.node.gpus):  # shard within a node (NVLink)
        for data_ranks in range(1, total_gpus // shards + 1):
            if global_batch % data_ranks:
                continue
            mbs = global_batch // data_ranks
            h_local = int(np.ceil(h / shards))

            # Memory: each device holds 1/shards of the weights but the full
            # per-rank batch activations.
            model_bytes = mem.model_bytes(n, h) / shards
            batch_bytes = mbs * mem.bytes_per_sample(n, h_local)
            memory_ok = model_bytes + batch_bytes <= mem.device.mem_bytes

            # Compute over the local shard & local batch.
            compute = cost.compute_time(n, mbs, hidden=h_local)
            # DP allreduce of the local-shard gradient across data ranks.
            d_local = made_num_parameters(n, h_local)
            n_nodes = max(1, int(np.ceil(data_ranks * shards / cluster.node.gpus)))
            gpn = min(data_ranks * shards, cluster.node.gpus) // shards or 1
            dp_comm = hierarchical_allreduce_time(d_local, n_nodes, gpn, cluster)
            # MP allreduce of (mbs × n) logits once per forward pass:
            # n sampling passes + 1 measurement + 2 backward-ish passes.
            if shards > 1:
                per_pass = allreduce_time(
                    mbs * n, shards,
                    cluster.node.intra_bw_bytes, cluster.node.intra_latency_s,
                )
                mp_comm = (n + 3) * per_pass
            else:
                mp_comm = 0.0

            plans.append(
                ParallelPlan(
                    data_ranks=data_ranks,
                    model_shards=shards,
                    mini_batch=mbs,
                    iteration_time=compute + dp_comm + mp_comm,
                    compute_time=compute,
                    dp_comm_time=dp_comm,
                    mp_comm_time=mp_comm,
                    memory_ok=memory_ok,
                )
            )

    feasible = [p for p in plans if p.memory_ok]
    pool = feasible if feasible else plans
    return sorted(pool, key=lambda p: (p.iteration_time, p.total_gpus))
