"""Hardware specifications for the simulated cluster.

Defaults model the paper's testbed: NVIDIA Tesla V100 (32 GB) GPUs, 4 per
node with NVLink, nodes connected by InfiniBand — up to the paper's largest
configuration, 6 × 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["DeviceSpec", "NodeSpec", "ClusterSpec", "V100", "DGX_NODE"]


@dataclass(frozen=True)
class DeviceSpec:
    """One accelerator.

    Attributes
    ----------
    peak_flops:
        Peak throughput for the arithmetic used (fp32 here).
    mem_bytes:
        Device memory capacity.
    achieved_fraction:
        Fraction of peak the small GEMMs of this workload sustain —
        batched (bs × n) @ (n × h) products are far from the GEMM roofline.
    kernel_overhead_s:
        Fixed per-forward-pass cost (kernel launches + Python dispatch).
        Dominates when matrices are small; this is why Table 1's MADE times
        scale almost exactly linearly with n (n sequential passes).
    """

    name: str
    peak_flops: float
    mem_bytes: float
    achieved_fraction: float = 0.10
    kernel_overhead_s: float = 2.4e-4

    @property
    def effective_flops(self) -> float:
        return self.peak_flops * self.achieved_fraction


@dataclass(frozen=True)
class NodeSpec:
    """A multi-GPU node with an intra-node interconnect."""

    device: DeviceSpec
    gpus: int = 4
    intra_bw_bytes: float = 150e9  # NVLink per-direction aggregate
    intra_latency_s: float = 5e-6


@dataclass(frozen=True)
class ClusterSpec:
    """Multiple nodes over an inter-node fabric."""

    node: NodeSpec
    nodes: int = 6
    inter_bw_bytes: float = 12.5e9  # 100 Gb/s InfiniBand
    inter_latency_s: float = 2e-6

    @property
    def total_gpus(self) -> int:
        return self.nodes * self.node.gpus


V100 = DeviceSpec(
    name="V100-32GB",
    peak_flops=15.7e12,  # fp32
    mem_bytes=32 * 2**30,
)

DGX_NODE = NodeSpec(device=V100, gpus=4)
