"""Neural-network building blocks on top of :mod:`repro.tensor`.

Provides the Module/Parameter system plus the two layer types the paper's
architectures need: plain fully-connected layers (RBM) and masked
fully-connected layers (MADE) — and :class:`FactoredO`, the per-sample
log-derivatives of a stack of them kept as per-layer factors.
"""

from repro.nn.module import Module, Parameter
from repro.nn.sequential import Sequential
from repro.nn.linear import Linear, MaskedLinear
from repro.nn.factored import FactoredO
from repro.nn.activations import ReLU, Sigmoid, Tanh, LogSigmoid, Softplus
from repro.nn.masks import made_masks, check_autoregressive
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "Linear",
    "MaskedLinear",
    "FactoredO",
    "ReLU",
    "Sigmoid",
    "Tanh",
    "LogSigmoid",
    "Softplus",
    "made_masks",
    "check_autoregressive",
    "init",
]
