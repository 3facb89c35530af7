"""Neural-network building blocks on top of :mod:`repro.tensor`.

Provides the Module/Parameter system plus the two layer types the paper's
architectures need: plain fully-connected layers (RBM) and masked
fully-connected layers (MADE) — and :class:`FactoredO`, the per-sample
log-derivatives of a stack of them kept as per-layer factors.
"""

from repro.nn.module import Module, Parameter
from repro.nn.linear import Linear, MaskedLinear
from repro.nn.factored import FactoredO
from repro.nn.masks import made_masks
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Linear",
    "MaskedLinear",
    "FactoredO",
    "made_masks",
    "init",
]
