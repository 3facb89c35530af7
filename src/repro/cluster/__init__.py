"""Analytic model of a multi-GPU cluster (the paper's testbed substitute).

The weak-scaling experiments (Fig. 3, Tables 6–7) ran on up to 6 nodes × 4
NVIDIA V100s. Offline and CPU-only, we reproduce them with a calibrated
cost model rather than silicon:

- :mod:`repro.cluster.device` — device/node/cluster specs (V100 defaults).
- :mod:`repro.cluster.perfmodel` — per-iteration time for MADE+AUTO and
  RBM+MCMC built from the paper's own §4 complexity analysis
  (n forward passes of O(hn) each; k + bs/c chain steps for MCMC), with two
  scalar constants (per-kernel launch overhead, achieved FLOP rate)
  calibrated against the paper's measured Table 1 row; its ``simulate``
  is the same iteration with stragglers and jitter (the allreduce barrier
  waits for the slowest rank).
- :mod:`repro.cluster.memory` — activation-memory model → the
  memory-saturating mini-batch ladder of Table 7.
- :mod:`repro.cluster.comm_model` — hierarchical (NVLink ring + InfiniBand
  ring) allreduce time.
- :mod:`repro.cluster.efficiency` — the paper's closed-form parallel
  efficiencies: Eq. 14 (MCMC, a + bL) and Eq. 15 (AUTO, ≈ L).

The model's qualitative predictions (normalised weak-scaling times ≈ 1,
time linear in n, MCMC efficiency slope decaying with burn-in) are
cross-validated against real multiprocess runs in the test suite.
"""

from repro.cluster.device import DeviceSpec, NodeSpec, ClusterSpec, V100, DGX_NODE
from repro.cluster.perfmodel import (
    MadeAutoCostModel,
    RbmMcmcCostModel,
    calibrate_to_table1,
)
from repro.cluster.memory import MemoryModel
from repro.cluster.comm_model import allreduce_time, hierarchical_allreduce_time
from repro.cluster.efficiency import mcmc_parallel_efficiency, auto_parallel_efficiency
from repro.cluster.planner import ParallelPlan, plan_parallelism
from repro.cluster.report import scaling_report

__all__ = [
    "ParallelPlan",
    "plan_parallelism",
    "scaling_report",
    "DeviceSpec",
    "NodeSpec",
    "ClusterSpec",
    "V100",
    "DGX_NODE",
    "MadeAutoCostModel",
    "RbmMcmcCostModel",
    "calibrate_to_table1",
    "MemoryModel",
    "allreduce_time",
    "hierarchical_allreduce_time",
    "mcmc_parallel_efficiency",
    "auto_parallel_efficiency",
]
