"""Module/Parameter system (a small ``torch.nn.Module`` equivalent).

Parameters register themselves by attribute assignment; ``parameters()``
walks the module tree in deterministic (attribute insertion) order, which
matters for the distributed code: every rank must flatten parameters in the
same order for allreduce to average corresponding entries.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["Parameter", "Module", "joined", "pack"]


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable leaf (``requires_grad=True``)."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


def joined(arrays: Sequence[np.ndarray | None]) -> np.ndarray | None:
    """The one flat float64 vector that ``arrays`` are consecutive
    C-contiguous views of, in order (a view of their common base), or
    ``None`` when they are not."""
    first = arrays[0]
    if first is None:
        return None
    owner = first if first.base is None else first.base
    if not (isinstance(owner, np.ndarray) and owner.flags.c_contiguous
            and first.dtype == owner.dtype == np.float64 and first.flags.c_contiguous):
        return None
    start = _address(first)
    addr = start + first.nbytes
    for a in arrays[1:]:
        if (a is None or a.base is not owner or a.dtype != np.float64
                or not a.flags.c_contiguous or _address(a) != addr):
            return None
        addr += a.nbytes
    at = (start - _address(owner)) // 8
    flat = owner.reshape(-1)[at : at + (addr - start) // 8]
    return flat if flat.nbytes == addr - start else None


def pack(params: Sequence[Parameter]) -> np.ndarray:
    """The contiguous float64 vector whose consecutive views are the
    parameters' ``data``, in order. If they are not views of one already,
    their values are copied into a new vector and every ``data`` is rebound
    to its view; if they are (a second optimizer over one model's
    parameters), that vector is returned and nothing moves."""
    flat = joined([p.data for p in params])
    if flat is None:
        flat = np.concatenate([np.asarray(p.data, np.float64).ravel() for p in params])
        offset = 0
        for p in params:
            p.data = flat[offset : offset + p.size].reshape(p.shape)
            offset += p.size
    return flat


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
        """Bind each parameter's ``grad`` to its slice of ``vec``, copying nothing.

        The grads are views, so an optimizer reads ``vec`` itself: write
        nothing into ``vec`` before the optimizer has stepped."""
        params = self.parameters()
        needed = sum(p.size for p in params)
        if needed != vec.size:
            raise ValueError(f"flat vector has {vec.size} entries, model needs {needed}")
        offset = 0
        for p in params:
            p.grad = vec[offset : offset + p.size].reshape(p.shape)
            offset += p.size

    # -- call protocol -------------------------------------------------------------

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
