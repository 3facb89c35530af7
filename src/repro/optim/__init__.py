"""Optimisers and the stochastic-reconfiguration (natural gradient) engine.

The paper trains with SGD (lr 0.1) or Adam (lr 0.01), optionally
preconditioned by stochastic reconfiguration (SR, Sorella 1998) with
diagonal shift λ = 0.001 and lr 0.1 (§5.1 "Training").
"""

from repro.optim.base import Optimizer
from repro.optim.sgd import SGD
from repro.optim.adam import Adam
from repro.optim.sr import SRSolveInfo, StochasticReconfiguration

__all__ = [
    "Optimizer",
    "SGD",
    "Adam",
    "StochasticReconfiguration",
    "SRSolveInfo",
]
