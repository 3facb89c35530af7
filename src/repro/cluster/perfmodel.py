"""Per-iteration time models for MADE+AUTO and RBM+MCMC training.

Both models follow the paper's §4 accounting. One VQMC iteration is:

  sampling  →  local-energy measurement  →  backward  →  allreduce

and each network forward pass costs a fixed *kernel/dispatch overhead*
``t₀`` plus ``flops / effective_rate``. These two scalars are the only free
constants; :func:`calibrate_to_table1` fits them to the paper's measured
single-GPU times (Table 1), after which the model reproduces the *shape* of
every scaling table:

- Table 1 / Table 5-style: time linear in n for MADE (n sequential
  sampling passes), affine in the chain length for MCMC.
- Fig. 3 / Table 7: normalised weak-scaling times ≈ 1 across GPU
  configurations, because the only L-dependent term (hierarchical
  allreduce of d = 2hn + h + n floats) is microseconds against
  hundreds of milliseconds of sampling.

The allreduce is a barrier, so on an inhomogeneous cluster the iteration
ends when the *slowest* rank has arrived:
:meth:`MadeAutoCostModel.simulate` is that ``max`` over per-rank speed
factors and lognormal jitter — what breaks weak scaling in practice
(``benchmarks/bench_ablation_stragglers.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.comm_model import hierarchical_allreduce_time
from repro.cluster.device import DGX_NODE, ClusterSpec, DeviceSpec, V100
from repro.models.made import default_hidden_size, made_num_parameters
from repro.utils.rng import init_rng

__all__ = [
    "MadeAutoCostModel",
    "RbmMcmcCostModel",
    "calibrate_to_table1",
    "TABLE1_MADE_SECONDS",
    "TABLE1_RBM_SECONDS",
]

#: Paper Table 1 — training time (s) for 300 iterations, one GPU, bs = 1024.
TABLE1_MADE_SECONDS = {20: 2.85, 50: 5.74, 100: 10.63, 200: 20.45, 500: 49.62}
TABLE1_RBM_SECONDS = {20: 135.64, 50: 154.25, 100: 189.91, 200: 249.40, 500: 456.68}


def _forward_flops(n: int, h: int, batch: int) -> float:
    """One forward pass: two (batch×n)(n×h)-shaped GEMMs ≈ 4 h n flops/sample."""
    return 4.0 * h * n * batch


@dataclass(frozen=True)
class MadeAutoCostModel:
    """Iteration-time model for MADE + exact autoregressive sampling."""

    device: DeviceSpec = V100
    cluster: ClusterSpec = ClusterSpec(node=DGX_NODE)

    # -- component times (single device) ----------------------------------------

    def sampling_time(self, n: int, mbs: int, hidden: int | None = None) -> float:
        """Algorithm 1: n sequential forward passes over the local batch."""
        h = hidden if hidden is not None else default_hidden_size(n)
        per_pass = self.device.kernel_overhead_s + _forward_flops(
            n, h, mbs
        ) / self.device.effective_flops
        return n * per_pass

    def measurement_time(self, n: int, mbs: int, hidden: int | None = None) -> float:
        """Local energies: one batched forward over all (n+1)·mbs neighbours."""
        h = hidden if hidden is not None else default_hidden_size(n)
        flops = _forward_flops(n, h, mbs * (n + 1))
        return 4 * self.device.kernel_overhead_s + flops / self.device.effective_flops

    def backward_time(self, n: int, mbs: int, hidden: int | None = None) -> float:
        """Backprop ≈ 2× one forward over the local batch."""
        h = hidden if hidden is not None else default_hidden_size(n)
        return (
            4 * self.device.kernel_overhead_s
            + 2.0 * _forward_flops(n, h, mbs) / self.device.effective_flops
        )

    def allreduce_time(self, n: int, n_nodes: int, gpus_per_node: int,
                       hidden: int | None = None) -> float:
        d = made_num_parameters(n, hidden)
        return hierarchical_allreduce_time(d, n_nodes, gpus_per_node, self.cluster)

    # -- aggregates ------------------------------------------------------------------

    def _compute_phases(
        self, n: int, mbs: int, hidden: int | None
    ) -> tuple[float, float, float]:
        return (
            self.sampling_time(n, mbs, hidden),
            self.measurement_time(n, mbs, hidden),
            self.backward_time(n, mbs, hidden),
        )

    def compute_time(self, n: int, mbs: int, hidden: int | None = None) -> float:
        """A rank's time to the allreduce: sampling + measurement + backward."""
        return sum(self._compute_phases(n, mbs, hidden))

    def iteration_time(
        self,
        n: int,
        mbs: int,
        n_nodes: int = 1,
        gpus_per_node: int = 1,
        hidden: int | None = None,
    ) -> float:
        return self.compute_time(n, mbs, hidden) + self.allreduce_time(
            n, n_nodes, gpus_per_node, hidden
        )

    def simulate(
        self,
        n: int,
        mbs: int,
        speed_factors: np.ndarray,
        hidden: int | None = None,
        jitter: float = 0.0,
        iterations: int = 1,
        rng: np.random.Generator | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Synchronous iterations on an inhomogeneous cluster.

        ``speed_factors`` is laid out as the cluster is — shape
        ``(n_nodes, gpus_per_node)``, one multiplier on compute time per
        rank (1.0 nominal, 2.0 a 2× straggler); ``jitter`` is the σ of
        lognormal noise drawn per rank and compute phase each iteration
        from ``rng`` (default: seed 0). Rank r reaches the allreduce at
        ``f_r · Σ(phase · noise)`` and the barrier releases at the
        slowest arrival.

        Returns ``(iteration_times, arrive)`` of shapes ``(T,)`` and
        ``(T, L)``, ranks in node-major order:
        ``iteration_times = arrive.max(axis=1) + allreduce_time(…)``, and
        rank r idles ``arrive.max(axis=1) - arrive[:, r]`` at the barrier.
        All-ones factors without jitter give :meth:`iteration_time` exactly.
        """
        if n < 1 or mbs < 1:
            raise ValueError("n and mbs must be positive")
        factors = np.asarray(speed_factors, dtype=np.float64)
        if factors.ndim != 2 or factors.size == 0:
            raise ValueError(
                "speed_factors must have shape (n_nodes, gpus_per_node), "
                f"got {factors.shape}"
            )
        if np.any(factors <= 0):
            raise ValueError("speed factors must be positive")
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        phases = np.array(self._compute_phases(n, mbs, hidden))
        noise = np.ones((iterations, factors.size, 3))
        if jitter > 0:
            noise = init_rng(rng).lognormal(0.0, jitter, size=noise.shape)
        arrive = (noise * phases).sum(axis=2) * factors.ravel()
        comm = self.allreduce_time(n, *factors.shape, hidden)
        return arrive.max(axis=1) + comm, arrive

    def training_time(
        self,
        n: int,
        mbs: int,
        iterations: int = 300,
        n_nodes: int = 1,
        gpus_per_node: int = 1,
        hidden: int | None = None,
    ) -> float:
        return iterations * self.iteration_time(n, mbs, n_nodes, gpus_per_node, hidden)

    def weak_scaling_table(
        self,
        dims: tuple[int, ...],
        mbs_by_dim: dict[int, int],
        configs: list[tuple[int, int]],
        iterations: int = 300,
    ) -> dict[int, dict[tuple[int, int], float]]:
        """Training time for each (dimension, GPU configuration) pair —
        the raw data behind Fig. 3 / Table 7."""
        out: dict[int, dict[tuple[int, int], float]] = {}
        for n in dims:
            out[n] = {
                cfg: self.training_time(
                    n, mbs_by_dim[n], iterations, n_nodes=cfg[0], gpus_per_node=cfg[1]
                )
                for cfg in configs
            }
        return out


@dataclass(frozen=True)
class RbmMcmcCostModel:
    """Iteration-time model for RBM + random-walk Metropolis–Hastings."""

    device: DeviceSpec = V100
    cluster: ClusterSpec = ClusterSpec(node=DGX_NODE)
    chains: int = 2

    def chain_steps(self, n: int, batch: int, burn_in: int | None = None,
                    thin: int = 1) -> int:
        """Fig. 1's k + thin·bs/c sequential MH steps."""
        k = burn_in if burn_in is not None else 3 * n + 100
        return k + thin * int(np.ceil(batch / self.chains))

    def sampling_time(
        self, n: int, batch: int, hidden: int | None = None,
        burn_in: int | None = None, thin: int = 1,
    ) -> float:
        """Each MH step is one forward over the c chains — overhead-bound
        (the c×n activations are microscopic next to the launch cost)."""
        h = hidden if hidden is not None else n
        steps = self.chain_steps(n, batch, burn_in, thin)
        per_step = self.device.kernel_overhead_s + _forward_flops(
            n, h, self.chains
        ) / self.device.effective_flops
        return steps * per_step

    def measurement_time(self, n: int, batch: int, hidden: int | None = None) -> float:
        h = hidden if hidden is not None else n
        flops = _forward_flops(n, h, batch * (n + 1))
        return 4 * self.device.kernel_overhead_s + flops / self.device.effective_flops

    def backward_time(self, n: int, batch: int, hidden: int | None = None) -> float:
        h = hidden if hidden is not None else n
        return (
            4 * self.device.kernel_overhead_s
            + 2.0 * _forward_flops(n, h, batch) / self.device.effective_flops
        )

    def iteration_time(
        self, n: int, batch: int, hidden: int | None = None,
        burn_in: int | None = None, thin: int = 1,
    ) -> float:
        return (
            self.sampling_time(n, batch, hidden, burn_in, thin)
            + self.measurement_time(n, batch, hidden)
            + self.backward_time(n, batch, hidden)
        )

    def training_time(
        self, n: int, batch: int, iterations: int = 300,
        hidden: int | None = None, burn_in: int | None = None, thin: int = 1,
    ) -> float:
        return iterations * self.iteration_time(n, batch, hidden, burn_in, thin)


def calibrate_to_table1(
    batch: int = 1024, iterations: int = 300
) -> tuple[MadeAutoCostModel, RbmMcmcCostModel]:
    """Fit (kernel overhead, achieved FLOP fraction) to the paper's Table 1.

    A coarse grid + refinement least-squares in log-space over the five
    measured dimensions, independently for the MADE and RBM rows. Returns
    models whose devices carry the calibrated constants.
    """

    def fit(times: dict[int, float], make_model) -> DeviceSpec:
        dims = sorted(times)
        target = np.log([times[n] for n in dims])

        def loss(overhead: float, frac: float) -> float:
            dev = replace(V100, kernel_overhead_s=overhead, achieved_fraction=frac)
            model = make_model(dev)
            pred = np.log(
                [model.training_time(n, batch, iterations) for n in dims]
            )
            return float(((pred - target) ** 2).sum())

        best = (np.inf, None)
        for overhead in np.geomspace(1e-5, 2e-3, 40):
            for frac in np.geomspace(0.01, 1.0, 30):
                l = loss(overhead, frac)
                if l < best[0]:
                    best = (l, (overhead, frac))
        overhead, frac = best[1]
        return replace(V100, kernel_overhead_s=overhead, achieved_fraction=frac)

    made_dev = fit(TABLE1_MADE_SECONDS, lambda dev: MadeAutoCostModel(device=dev))
    rbm_dev = fit(TABLE1_RBM_SECONDS, lambda dev: RbmMcmcCostModel(device=dev))
    return MadeAutoCostModel(device=made_dev), RbmMcmcCostModel(device=rbm_dev)
