"""Optimiser base class (reads ``.grad`` buffers, updates ``.data`` in place)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter, joined, pack

__all__ = ["Optimizer"]

#: The smallest normal float64: a state entry below it is subnormal (or 0).
_TINY = np.finfo(np.float64).tiny


class Optimizer:
    """Base class over a flat list of parameters.

    The parameters' ``data`` are consecutive views of one contiguous float64
    vector (:func:`~repro.nn.module.pack`), and a subclass keeps its state as
    vectors of the same layout, so an update is one set of ufunc calls over
    all of it. :meth:`step` skips a parameter whose ``grad`` is ``None``, as
    ``torch.optim`` does: its value does not move and its state (moments,
    velocity) does not decay.
    """

    def __init__(self, params: Sequence[Parameter], lr: float):
        params = list(params)
        if not params:
            raise ValueError("optimizer got an empty parameter list")
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = params
        self.lr = lr
        self._flat = pack(params)
        self._views = [p.data for p in params]
        #: each parameter's slice of the flat vector
        self._slots: list[slice] = []
        for p in params:
            start = self._slots[-1].stop if self._slots else 0
            self._slots.append(slice(start, start + p.size))
        self._size = self._slots[-1].stop  # the flat vector's length
        self._gathered: np.ndarray | None = None

    def _parameters(self) -> np.ndarray:
        """The flat vector the parameters' ``data`` are views of (packed
        anew if something rebound one of them since)."""
        if any(p.data is not view for p, view in zip(self.params, self._views)):
            self._flat = pack(self.params)
            self._views = [p.data for p in self.params]
        return self._flat

    def _gradient(self) -> tuple[np.ndarray, list[slice]]:
        """``(g, runs)``: the gradient as one vector in the flat layout, and
        the runs of it to update — the slices over consecutive parameters
        that have a gradient. A step's gradient bound by
        :meth:`~repro.nn.module.Module.set_flat_grad` is read where it lies,
        as one run; separate arrays (a backward pass) are copied into place."""
        grads = [p.grad for p in self.params]
        if all(g is not None for g in grads):
            g = joined(grads)
            if g is not None:
                return g, [slice(0, g.size)]
        if self._gathered is None:
            self._gathered = np.empty(self._size)
        g, runs = self._gathered, []
        for grad, slot in zip(grads, self._slots):
            if grad is None:
                continue
            g[slot] = np.ravel(grad)
            if runs and runs[-1].stop == slot.start:
                runs[-1] = slice(runs[-1].start, slot.stop)
            else:
                runs.append(slot)
        return g, runs

    def _stepped(self) -> None:
        """Declare the in-place write to every parameter that had a gradient."""
        for p in self.params:
            if p.grad is not None:
                p.bump_version()

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Per-parameter copies of a flat state vector (the state-dict form)."""
        return [flat[slot].reshape(p.shape).copy() for p, slot in zip(self.params, self._slots)]

    def _join(self, parts, out: np.ndarray) -> None:
        """Write per-parameter state arrays into the flat vector ``out``."""
        for part, slot in zip(parts, self._slots):
            out[slot] = np.ravel(part)

    @staticmethod
    def _flush_subnormal(state: np.ndarray, scratch: np.ndarray) -> None:
        """Set the entries of a decaying state vector below the smallest
        normal float to 0, with ``scratch`` (same length) as work space.

        Under a zero gradient (every sample the same) a momentum decays
        geometrically into the subnormal range, where arithmetic is many
        times slower; an update from an entry that small cannot move a
        parameter of normal size."""
        np.abs(state, out=scratch)
        np.copyto(state, 0.0, where=scratch < _TINY)

    def zero_grad(self) -> None:
        for p in self.params:
            p.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def state_dict(self) -> dict:
        return {"lr": self.lr}

    def load_state_dict(self, state: dict) -> None:
        self.lr = state["lr"]
