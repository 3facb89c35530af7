"""Functional interface over :class:`repro.tensor.Tensor`.

The layer-level primitives the paper's models are built from (§5.1): a
linear layer, MADE's masked linear layer (with :func:`scatter`, the packed
weights placed into their fixed pattern) and the fused Bernoulli
log-likelihood. Elementwise nonlinearities are :class:`Tensor` methods.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = [
    "linear",
    "masked_linear",
    "scatter",
    "bernoulli_log_prob",
    "bernoulli_log_terms",
    "as_tensor",
]


def as_tensor(x, requires_grad: bool = False) -> Tensor:
    """Coerce array-like input into a :class:`Tensor`."""
    return x if isinstance(x, Tensor) else Tensor(x, requires_grad=requires_grad)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """``x @ W.T + b`` with ``x: (batch, in)``, ``W: (out, in)``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def scatter(values: Tensor, pattern: np.ndarray) -> Tensor:
    """The dense array of ``pattern``'s shape holding ``values`` at its
    ``True`` entries, in row-major order, and exact zeros elsewhere.

    ``pattern`` is a fixed boolean array (a MADE mask): the backward is the
    gather ``g[pattern]``, so the entries off the pattern have no gradient
    to carry and no storage.
    """
    out_data = np.zeros(pattern.shape)
    out_data[pattern] = values.data

    def bw(g: np.ndarray) -> None:
        values._accum(g[pattern])

    return Tensor._make(out_data, (values,), bw)


def masked_linear(
    x: Tensor, weight: Tensor, pattern: np.ndarray, bias: Tensor | None = None
) -> Tensor:
    """Linear layer whose weight matrix is nonzero only on a fixed pattern.

    This is the ``MaskedFC`` of the paper's MADE: ``weight`` holds the
    connected weights only, packed in row-major order of the boolean
    ``pattern`` (the mask), and :func:`scatter` places them into the
    ``(out, in)`` matrix ``W∘M`` — masked-out entries are exact zeros with
    no parameter behind them.
    """
    out = x @ scatter(weight, pattern).T
    if bias is not None:
        out = out + bias
    return out


def bernoulli_log_terms(z: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(t log σ(z) + (1-t) log σ(-z), log σ(z))``, elementwise, on arrays.

    Both stable closed forms ``log σ(±z) = min(±z, 0) − log1p(e^{−|z|})``
    share one ``log1p`` term; ``targets`` broadcasts against ``z``. Every
    hand-vectorised ``log_psi_and_grads`` and :func:`bernoulli_log_prob`
    take their log-likelihood from here; ``exp`` of the second result is
    ``σ(z)``, whose difference from the targets is the logit gradient.
    """
    log1p_term = np.abs(z)
    np.negative(log1p_term, out=log1p_term)
    np.exp(log1p_term, out=log1p_term)
    np.log1p(log1p_term, out=log1p_term)
    log_p = np.minimum(z, 0.0)
    log_p -= log1p_term
    log_q = np.negative(z)
    np.minimum(log_q, 0.0, out=log_q)
    log_q -= log1p_term
    terms = targets * log_p
    complement = 1.0 - targets
    complement *= log_q
    terms += complement
    return terms, log_p


def bernoulli_log_prob(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Log-probability of binary ``targets`` under independent Bernoullis.

    ``log p = t * log σ(z) + (1-t) * log σ(-z)``, computed in a stable
    closed form so extreme logits never produce ``log(0)``. Returns the
    elementwise log-probabilities (caller reduces over the site axis).

    This is a fused primitive: the forward evaluates both stable closed
    forms (``log σ(±z) = min(±z, 0) − log1p(e^{−|z|})``, sharing the
    ``log1p`` term) and the backward is the classic logit gradient
    ``∂/∂z = t − σ(z)`` — one elementwise family instead of the eight-node
    subgraph the previous composition recorded. Gradients flow
    into ``logits`` only; targets are binary configurations and are never
    differentiated.
    """
    targets = np.asarray(targets, dtype=np.float64)
    t = Tensor(targets)
    out_data, log_p = bernoulli_log_terms(logits.data, targets)
    sig = np.exp(log_p)

    def bw(g: np.ndarray) -> None:
        logits._accum(g * (targets - sig))

    return Tensor._make(out_data, (logits, t), bw)
