"""Reverse-mode automatic differentiation on numpy arrays.

This subpackage stands in for the GPU deep-learning framework (PyTorch) the
paper's implementation relied on. It provides a :class:`Tensor` wrapping a
numpy array, the twelve differentiable primitives the models record (add,
mul, matmul, sum, reshape, transpose, concatenate, relu, sigmoid, tanh,
log_cosh and the fused bernoulli_log_prob) with full broadcasting support,
and a topological-sort backward pass. Everything is vectorised — a forward
pass over a batch of configurations is a handful of BLAS calls, exactly the
shape of work a GPU kernel would do.
"""

from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor import functional
from repro.tensor.grad_check import gradcheck, numerical_grad, per_sample_jacobian

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "gradcheck",
    "numerical_grad",
    "per_sample_jacobian",
]
