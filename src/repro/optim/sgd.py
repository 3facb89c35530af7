"""Stochastic gradient descent with optional classical momentum."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter
from repro.optim.base import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """``θ ← θ - lr · g`` (paper default lr for SGD: 0.1)."""

    def __init__(
        self, params: Sequence[Parameter], lr: float = 0.1, momentum: float = 0.0
    ):
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum
        #: in the parameters' flat layout, from the first momentum step on
        self._velocity: np.ndarray | None = None
        self._scratch = np.empty(self._size)

    def step(self) -> None:
        if self.momentum != 0.0 and self._velocity is None:
            self._velocity = np.zeros(self._size)
        theta = self._parameters()
        grad, runs = self._gradient()
        for run in runs:  # one, over every entry, unless a grad is None
            direction = grad[run]
            if self.momentum != 0.0:
                direction = self._velocity[run]
                direction *= self.momentum
                direction += grad[run]
            scaled = self._scratch[run]
            np.multiply(self.lr, direction, out=scaled)
            theta[run] -= scaled
        self._stepped()

    def state_dict(self) -> dict:
        return {
            "lr": self.lr,
            "momentum": self.momentum,
            "velocity": None if self._velocity is None else self._split(self._velocity),
        }

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
        self.momentum = state["momentum"]
        if state["velocity"] is None:
            self._velocity = None
        else:
            if self._velocity is None:
                self._velocity = np.zeros(self._size)
            self._join(state["velocity"], self._velocity)
