"""Weight initialisers.

The paper does not specify initialisation; we use the PyTorch defaults its
implementation would have inherited: Kaiming-uniform fan-in scaling for
linear layers, matching bias bounds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kaiming_uniform", "uniform_bias", "normal"]


def kaiming_uniform(
    rng: np.random.Generator, out_features: int, in_features: int, gain: float = 1.0
) -> np.ndarray:
    """Kaiming-uniform weights: ``U(-b, b)`` with ``b = gain * sqrt(3/fan_in)``.

    (PyTorch's ``nn.Linear`` default uses ``a=sqrt(5)`` leaky-relu gain which
    works out to ``1/sqrt(fan_in)`` bounds; we keep the simpler classic form —
    the VQMC results are insensitive to this constant.)
    """
    bound = gain * np.sqrt(3.0 / max(1, in_features))
    return rng.uniform(-bound, bound, size=(out_features, in_features))


def uniform_bias(
    rng: np.random.Generator, out_features: int, in_features: int
) -> np.ndarray:
    """PyTorch-style bias init: ``U(-1/sqrt(fan_in), 1/sqrt(fan_in))``."""
    bound = 1.0 / np.sqrt(max(1, in_features))
    return rng.uniform(-bound, bound, size=(out_features,))


def normal(
    rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.01
) -> np.ndarray:
    """Small-variance Gaussian init (standard for RBM couplings)."""
    return rng.normal(0.0, std, size=shape)
