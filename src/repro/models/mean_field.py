"""Mean-field (product-Bernoulli) wavefunction.

The simplest normalised ansatz: every site independent,

    πθ(x) = Π_i σ(θ_i)^{x_i} (1 − σ(θ_i))^{1−x_i},   ψθ = sqrt(πθ).

It is the zero-hidden-unit limit of MADE (only the output biases survive)
and exposes the paper's §2.4 remark concretely: VQMC on a *diagonal*
Hamiltonian with this ansatz **is** natural evolution strategies over the
binary hypercube (see :mod:`repro.baselines.nes` and the equivalence test).
Useful as a fast baseline and for sanity-checking optimisers — every
quantity (sampling, Fisher matrix, gradients) has a closed form.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import WaveFunction, validate_configurations
from repro.nn.module import Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import init_rng

__all__ = ["MeanField"]


class MeanField(WaveFunction):
    """Product-Bernoulli wavefunction parameterised by per-site logits."""

    is_normalized = True
    has_per_sample_grads = True

    def __init__(self, n: int, rng: np.random.Generator | None = None):
        super().__init__(n)
        rng = init_rng(rng)  # seeded fallback: replays bit-identically
        # Near-uniform start (exactly uniform is a stationary point of some
        # symmetric objectives, so add a touch of noise).
        self.logits = Parameter(rng.normal(0.0, 0.01, size=n), name="logits")

    def probabilities(self) -> np.ndarray:
        """σ(θ) — the per-site Bernoulli means."""
        z = self.logits.data
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def forward(self, x: np.ndarray) -> Tensor:
        return self.log_prob(x)

    def log_prob(self, x: np.ndarray) -> Tensor:
        x = validate_configurations(x, self.n)
        # Broadcast the logit vector over the batch *through the graph* so
        # gradients accumulate back into the parameter.
        zt = F.as_tensor(np.ones((x.shape[0], 1))) @ self.logits.reshape(1, -1)
        return F.bernoulli_log_prob(zt, x).sum(axis=1)

    def log_psi(self, x: np.ndarray) -> Tensor:
        return self.log_prob(x) * 0.5

    def conditionals(self, x: np.ndarray) -> np.ndarray:
        x = validate_configurations(x, self.n)
        return np.broadcast_to(self.probabilities(), x.shape).copy()

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        with no_grad():
            p = self.probabilities()
        return (rng.random((batch_size, self.n)) < p).astype(np.float64)

    def log_psi_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """O(x) = ½ (x − σ(θ)) — the classic Bernoulli score, halved for ψ."""
        x = validate_configurations(x, self.n)
        z = self.logits.data
        terms, log_p = F.bernoulli_log_terms(z, x)
        log_prob = terms.sum(axis=1)
        grads = 0.5 * (x - np.exp(log_p))
        return 0.5 * log_prob, grads

    def exact_fisher(self) -> np.ndarray:  # repro-lint: disable=api-unreachable-export -- test oracle: the closed form the SR Fisher estimate is checked against
        """Closed-form quantum Fisher S = ¼ diag(p(1−p)) (population form)."""
        p = self.probabilities()
        return 0.25 * np.diag(p * (1.0 - p))

    def exact_distribution(self) -> np.ndarray:
        if self.n > 20:
            raise ValueError(f"exact distribution infeasible for n={self.n}")
        states = ((np.arange(2**self.n)[:, None] >> np.arange(self.n - 1, -1, -1)) & 1)
        with no_grad():
            lp = self.log_prob(states.astype(np.float64)).data
        return np.exp(lp)
