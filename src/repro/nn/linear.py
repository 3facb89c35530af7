"""Fully-connected layers: plain (``FC``) and masked (``MaskedFC``)."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.rng import init_rng

__all__ = ["Linear", "MaskedLinear", "weights_held"]


class Linear(Module):
    """``y = x @ W.T + b`` — the paper's ``FC_{a,b}``.

    Parameters
    ----------
    in_features, out_features:
        Layer dimensions (``a`` and ``b`` in the paper's notation).
    bias:
        Include an additive bias term.
    rng:
        Generator used for weight initialisation.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        weight_std: float | None = None,
    ):
        super().__init__()
        rng = init_rng(rng)  # seeded fallback: replays bit-identically
        self.in_features = in_features
        self.out_features = out_features
        if weight_std is not None:
            w = init.normal(rng, (out_features, in_features), std=weight_std)
        else:
            w = init.kaiming_uniform(rng, out_features, in_features)
        self.weight = Parameter(w, name="weight")
        if bias:
            self.bias: Parameter | None = Parameter(
                init.uniform_bias(rng, out_features, in_features), name="bias"
            )
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class MaskedLinear(Linear):
    """Linear layer with a fixed binary connectivity mask (``MaskedFC``).

    The mask (any 0/1 array) is a constant, not a parameter, kept only as
    ``pattern``: the mask as booleans, read-only. Only the weights it
    connects are stored: ``weight`` is the packed vector ``W[pattern]``,
    row-major. The dense matrix is drawn as :class:`Linear` draws it and
    then packed, so the initial values and the RNG stream are those of a
    dense layer. Masked-out weights have no storage, no gradient and no
    optimizer state; the masks of a one-hidden-layer MADE connect half of
    its weights, for any degree assignment. The packing is fixed at
    construction; the per-sample factors
    (:class:`~repro.nn.factored.LinearFactor`) share ``pattern``.
    :meth:`effective_weight` scatters the packed weights into the dense
    ``W∘M`` that the kernels multiply by, in a buffer the layer allocates
    once; :meth:`forward` records the same scatter
    (:func:`repro.tensor.functional.scatter`) on the tape. Inside
    :func:`weights_held` it scatters once and hands back that scatter.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        mask: np.ndarray,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(in_features, out_features, bias=bias, rng=rng)
        mask = np.asarray(mask)
        if mask.shape != (out_features, in_features):
            raise ValueError(
                f"mask shape {mask.shape} != weight shape {(out_features, in_features)}"
            )
        self.pattern = mask != 0
        if not np.array_equal(self.pattern, mask):
            raise ValueError("a masked layer needs a 0/1 mask")
        self.pattern.flags.writeable = False
        self.weight = Parameter(self.weight.data[self.pattern], name="weight")
        self._dense = np.zeros(mask.shape)
        #: inside :func:`weights_held`: the scatter to hand back, once made
        self._hold = False
        self._held: np.ndarray | None = None

    def forward(self, x: Tensor) -> Tensor:
        return F.masked_linear(x, self.weight, self.pattern, self.bias)

    def effective_weight(self) -> np.ndarray:
        """The dense masked weight matrix ``W∘M`` the forward pass applies.

        A read-only view of the layer's own buffer, scattered from
        ``weight.data`` on every call, so it holds the weights as they are
        now however they were written — except inside
        :func:`weights_held`, where the first call's scatter is handed back
        until the block ends. The view is overwritten by the next scatter:
        copy it to keep it.
        """
        if self._held is not None:
            return self._held
        self._dense[self.pattern] = self.weight.data
        view = self._dense.view()
        view.flags.writeable = False
        if self._hold:
            self._held = view
        return view

    def __repr__(self) -> str:
        return (
            f"MaskedLinear({self.in_features}, {self.out_features}, "
            f"live_weights={self.weight.size}/{self.pattern.size})"
        )


def _masked_layers(module: Module) -> Iterator[MaskedLinear]:
    if isinstance(module, MaskedLinear):
        yield module
    for child in module._modules.values():
        yield from _masked_layers(child)


@contextmanager
def weights_held(module: Module) -> Iterator[None]:
    """Within the block, every masked layer of ``module`` scatters ``W∘M``
    at its first :meth:`~MaskedLinear.effective_weight` call and hands that
    scatter back at every later one.

    For a span in which nothing writes the weights: ``VQMC.step`` holds
    them from the draw through the local energies, where the sampler, the
    gradient and the flip kernel each read them, and lets go before the
    optimizer writes. A nested hold keeps the outer one's scatter, and the
    block's end, by exception too, lets go of what it held and nothing else.
    """
    layers = [layer for layer in _masked_layers(module) if not layer._hold]
    try:
        for layer in layers:
            layer._hold = True
        yield
    finally:
        for layer in layers:
            layer._hold, layer._held = False, None
