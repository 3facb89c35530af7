"""Module/Parameter system (a small ``torch.nn.Module`` equivalent).

Parameters register themselves by attribute assignment; ``parameters()``
walks the module tree in deterministic (attribute insertion) order, which
matters for the distributed code: every rank must flatten parameters in the
same order for allreduce to average corresponding entries.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["Parameter", "Module"]


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable leaf (``requires_grad=True``)."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for layers and models.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes in
    ``__init__``; this base class tracks them for ``parameters()``,
    ``state_dict()`` and ``zero_grad()``.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_modules", {})

    def __setattr__(self, key: str, value) -> None:
        if isinstance(value, Parameter):
            self._params[key] = value
        elif isinstance(value, Module):
            self._modules[key] = value
        object.__setattr__(self, key, value)

    # -- traversal ------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for key, p in self._params.items():
            yield (f"{prefix}{key}", p)
        for key, mod in self._modules.items():
            yield from mod.named_parameters(prefix=f"{prefix}{key}.")

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def num_parameters(self) -> int:
        """Number of stored scalar parameters: the flat vector's length.

        A masked layer stores only the weights its mask connects, so for a
        MADE this is the connected count, about half of the paper's dense
        ``d = 2hn + h + n`` (:func:`repro.models.made.made_num_parameters`).
        """
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # -- (de)serialisation ------------------------------------------------------

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: "
                    f"{p.data.shape} vs {state[name].shape}"
                )
            p.data[...] = state[name]  # repro-lint: disable=ag-tensor-mutation -- checkpoint load runs between steps, no live graph
            p.bump_version()

    # -- flat-vector view (used by SR and the distributed allreduce) -----------------

    def flat_parameters(self) -> np.ndarray:
        """Concatenate all parameters into one vector (copy)."""
        return np.concatenate([p.data.ravel() for p in self.parameters()])

    def set_flat_parameters(self, vec: np.ndarray) -> None:
        """Write a flat vector back into the parameter tensors."""
        offset = 0
        for p in self.parameters():
            n = p.size
            p.data[...] = vec[offset : offset + n].reshape(p.shape)  # repro-lint: disable=ag-tensor-mutation -- optimizer write-back runs after backward, no live graph
            p.bump_version()
            offset += n
        if offset != vec.size:
            raise ValueError(f"flat vector has {vec.size} entries, model needs {offset}")

    def flat_grad(self) -> np.ndarray:
        """Concatenate all gradients into one vector (zeros where grad is None)."""
        parts = []
        for p in self.parameters():
            if p.grad is None:
                parts.append(np.zeros(p.size))
            else:
                parts.append(p.grad.ravel())
        return np.concatenate(parts)

    def set_flat_grad(self, vec: np.ndarray) -> None:
        offset = 0
        for p in self.parameters():
            n = p.size
            p.grad = vec[offset : offset + n].reshape(p.shape).copy()
            offset += n
        if offset != vec.size:
            raise ValueError(f"flat vector has {vec.size} entries, model needs {offset}")

    # -- call protocol -------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
