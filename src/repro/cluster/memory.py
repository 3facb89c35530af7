"""Device-memory model → memory-saturating mini-batch sizes (Table 7 row).

The dominant per-sample allocation in a training iteration is the
local-energy measurement: every sample expands into its ``n`` single-flip
neighbours, giving an ``(mbs, n+1, n)`` configuration tensor plus the
``(mbs·(n+1), h)`` hidden activations of the batched forward pass — i.e.
**quadratic in n per sample**, which is why the feasible mini-batch drops
from 2¹⁹ at n = 20 to 2² at n = 10 000 (Table 7) while the model itself
(``2hn + h + n`` parameters) stays tiny.

``bytes_per_sample = overhead · 4 · (c_sq n² + n h)``; the framework
``overhead`` factor (autograd buffers, fragmentation, CUDA context) is
calibrated so the predicted ladder matches the paper's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cluster.device import DeviceSpec, V100
from repro.models.made import default_hidden_size, made_num_parameters

__all__ = ["MemoryModel", "PAPER_MBS_LADDER"]

#: the paper's Table 7 mini-batch sizes, keyed by problem dimension
PAPER_MBS_LADDER: dict[int, int] = {
    20: 2**19,
    50: 2**17,
    100: 2**15,
    200: 2**13,
    500: 2**11,
    1000: 2**9,
    2000: 2**7,
    5000: 2**4,
    10000: 2**2,
}


@dataclass(frozen=True)
class MemoryModel:
    """Predicts the largest power-of-two mini-batch a device can hold."""

    device: DeviceSpec = V100
    overhead: float = 9.5  # framework multiplier (calibrated to Table 7)
    bytes_per_float: float = 4.0

    def bytes_per_sample(self, n: int, hidden: int | None = None) -> float:
        h = hidden if hidden is not None else default_hidden_size(n)
        raw = self.bytes_per_float * (n * n + n * h)
        return self.overhead * raw

    def model_bytes(self, n: int, hidden: int | None = None) -> float:
        return self.bytes_per_float * made_num_parameters(n, hidden)

    def max_mini_batch(self, n: int, hidden: int | None = None) -> int:
        """Largest power-of-two mbs with model + batch memory ≤ capacity."""
        budget = self.device.mem_bytes - self.model_bytes(n, hidden)
        if budget <= 0:
            raise ValueError(f"model with n={n} does not fit on {self.device.name}")
        mbs = budget / self.bytes_per_sample(n, hidden)
        if mbs < 1:
            raise ValueError(
                f"not even one sample fits for n={n} on {self.device.name}"
            )
        return 2 ** int(math.floor(math.log2(mbs)))

    def ladder(self, dims: tuple[int, ...] = tuple(PAPER_MBS_LADDER)) -> dict[int, int]:
        """Predicted mbs ladder over the paper's problem sizes."""
        return {n: self.max_mini_batch(n) for n in dims}
