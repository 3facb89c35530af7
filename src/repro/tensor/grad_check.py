"""Numerical gradient checking for the autograd engine.

Every primitive in :mod:`repro.tensor.tensor` is validated against central
finite differences in the test suite; this module holds the machinery.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.tensor.tensor import Tensor

__all__ = ["numerical_grad", "gradcheck", "per_sample_jacobian"]


def per_sample_jacobian(model, x: np.ndarray) -> np.ndarray:  # repro-lint: disable=api-unreachable-export -- test oracle: one backward pass per sample, the reference for every log_psi_and_grads
    """Per-sample gradients via the autograd tape — the slow generic path.

    Computes ``J[b, k] = ∂ log ψ(x_b) / ∂ θ_k`` with one backward pass per
    sample (O(B) passes). Every model's hand-vectorised
    ``log_psi_and_grads`` is validated against this in the tests; use it as
    ground truth when writing a new model's fast path.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a (B, n) batch, got shape {x.shape}")
    rows = []
    for b in range(x.shape[0]):
        model.zero_grad()
        model.log_psi(x[b : b + 1]).sum().backward()
        rows.append(model.flat_grad())
    model.zero_grad()
    return np.stack(rows, axis=0)


def numerical_grad(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(*inputs))`` w.r.t. ``inputs[index]``."""
    inputs = [np.array(a, dtype=np.float64) for a in inputs]
    target = inputs[index]
    grad = np.zeros_like(target)
    it = np.nditer(target, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = target[idx]
        target[idx] = orig + eps
        hi = float(fn(*[Tensor(a) for a in inputs]).data.sum())
        target[idx] = orig - eps
        lo = float(fn(*[Tensor(a) for a in inputs]).data.sum())
        target[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[np.ndarray],
    eps: float = 1e-6,
    atol: float = 1e-5,
    rtol: float = 1e-4,
) -> bool:
    """Compare autograd gradients of ``sum(fn(*inputs))`` to finite differences.

    Raises ``AssertionError`` with a diagnostic on mismatch; returns ``True``
    on success so it can sit inside ``assert gradcheck(...)``.
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in inputs]
    out = fn(*tensors)
    out.sum().backward()
    for i, t in enumerate(tensors):
        num = numerical_grad(fn, [a.data for a in tensors], i, eps=eps)
        got = t.grad if t.grad is not None else np.zeros_like(t.data)
        if not np.allclose(got, num, atol=atol, rtol=rtol):
            err = np.max(np.abs(got - num))
            raise AssertionError(
                f"gradcheck failed for input {i}: max abs error {err:.3e}\n"
                f"autograd:\n{got}\nnumerical:\n{num}"
            )
    return True
