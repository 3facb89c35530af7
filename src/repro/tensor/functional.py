"""Functional interface over :class:`repro.tensor.Tensor`.

Mirrors the small slice of ``torch.nn.functional`` the paper's models need,
so model code reads like the architectures in §5.1 of the paper.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import (
    Tensor,
    concatenate,
    maximum,
    minimum,
    stack,
    where,
)

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "sqrt",
    "log_cosh",
    "log1p",
    "expm1",
    "sin",
    "cos",
    "clip",
    "linear",
    "masked_linear",
    "bernoulli_log_prob",
    "concatenate",
    "stack",
    "where",
    "minimum",
    "maximum",
    "as_tensor",
]


def as_tensor(x, requires_grad: bool = False) -> Tensor:
    """Coerce array-like input into a :class:`Tensor`."""
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=requires_grad)


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def exp(x: Tensor) -> Tensor:
    return x.exp()


def log(x: Tensor) -> Tensor:
    return x.log()


def sqrt(x: Tensor) -> Tensor:
    return x.sqrt()


def log_cosh(x: Tensor) -> Tensor:
    return x.log_cosh()


def log1p(x: Tensor) -> Tensor:
    return x.log1p()


def expm1(x: Tensor) -> Tensor:
    return x.expm1()


def sin(x: Tensor) -> Tensor:
    return x.sin()


def cos(x: Tensor) -> Tensor:
    return x.cos()


def clip(x: Tensor, low: float | None = None, high: float | None = None) -> Tensor:
    return x.clip(low, high)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ W.T + b`` with ``x: (batch, in)``, ``W: (out, in)``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def masked_linear(
    x: Tensor, weight: Tensor, mask: np.ndarray, bias: Tensor | None = None
) -> Tensor:
    """Linear layer with a fixed binary connectivity mask on the weights.

    This is the ``MaskedFC`` of the paper's MADE: the mask is a constant, so
    the gradient w.r.t. the weight is masked automatically by the product
    rule — masked-out entries stay at exactly zero gradient.
    """
    masked_w = weight * Tensor(mask)
    out = x @ masked_w.T
    if bias is not None:
        out = out + bias
    return out


def bernoulli_log_prob(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Log-probability of binary ``targets`` under independent Bernoullis.

    ``log p = t * log σ(z) + (1-t) * log σ(-z)``, computed in a stable
    closed form so extreme logits never produce ``log(0)``. Returns the
    elementwise log-probabilities (caller reduces over the site axis).

    This is a fused primitive: the forward evaluates both stable closed
    forms (``log σ(±z) = min(±z, 0) − log1p(e^{−|z|})``, sharing the
    ``log1p`` term) and the backward is the classic logit gradient
    ``∂/∂z = t − σ(z)`` — one elementwise family instead of the eight-node
    subgraph the previous composition recorded, which both speeds the
    interpreter and keeps the :mod:`repro.jit` tape short. Gradients flow
    into ``logits`` only; targets are binary configurations and are never
    differentiated.
    """
    targets = np.asarray(targets, dtype=np.float64)
    t = Tensor(targets)
    z = logits.data
    log1p_term = np.log1p(np.exp(-np.abs(z)))
    log_p = np.minimum(z, 0.0) - log1p_term
    log_q = np.minimum(-z, 0.0) - log1p_term
    out_data = targets * log_p + (1.0 - targets) * log_q
    sig = np.exp(log_p)

    def bw(g: np.ndarray) -> None:
        logits._accum(g * (targets - sig))

    return Tensor._make(out_data, (logits, t), bw, "bernoulli_log_prob")
