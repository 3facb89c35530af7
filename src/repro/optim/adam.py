"""Adam (Kingma & Ba 2015) — the paper's default optimiser (lr 0.01)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    def __init__(
        self,
        params: Sequence[Parameter],
        lr: float = 0.01,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        self.betas = (b1, b2)
        self.eps = eps
        # The moments and two scratch vectors in the parameters' flat layout:
        # a step allocates nothing, so it faults in no fresh pages.
        self._m = np.zeros(self._size)
        self._v = np.zeros(self._size)
        self._scratch = np.empty((2, self._size))
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self._t
        bc2 = 1.0 - b2**self._t
        theta = self._parameters()
        grad, runs = self._gradient()
        for run in runs:  # one, over every entry, unless a grad is None
            g, m, v = grad[run], self._m[run], self._v[run]
            a, b = self._scratch[:, run]
            # m = b1·m + (1−b1)·g;  v = b2·v + (1−b2)·g²;
            # θ −= lr·(m/bc1) / (√(v/bc2) + eps) — the same roundings, in place.
            m *= b1
            np.multiply(g, 1.0 - b1, out=a)
            m += a
            v *= b2
            np.square(g, out=a)
            a *= 1.0 - b2
            v += a
            np.divide(m, bc1, out=a)
            a *= self.lr
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            theta[run] -= a
            self._flush_subnormal(m, a)
        self._stepped()

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "betas": self.betas,
            "eps": self.eps,
            "m": self._split(self._m),
            "v": self._split(self._v),
            "t": self._t,
        }

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        self.betas = state["betas"]
        self.eps = state["eps"]
        self._join(state["m"], self._m)
        self._join(state["v"], self._v)
        self._t = state["t"]
