"""RBM wavefunction (Carleo & Troyer 2017; paper §5.1).

Architecture (paper, §5.1)::

    Input --(bs,n)--> FC_{n,h} --(bs,h)--> Lncoshsum --(bs)--> Output1
          --(bs,n)--> FC_{n,1} --(bs)--> Add Output1 --(bs)--> Output

i.e. the log-amplitude is

    log ψθ(x) = Σ_j log cosh( (W x + c)_j )  +  a·x + a₀

with hidden couplings ``W ∈ R^{h×n}``, hidden bias ``c``, visible weights
``a`` and scalar bias ``a₀``. The model is *unnormalised* — evaluating
``πθ(x) = ψθ(x)²/Z`` requires the intractable partition function, hence the
need for MCMC sampling.

The paper's default latent size for RBM is ``h = n`` (§5.1).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import WaveFunction, validate_configurations
from repro.nn.factored import FactoredO, LinearFactor
from repro.nn.linear import Linear
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor
from repro.utils.rng import init_rng

__all__ = ["RBM"]


class RBM(WaveFunction):
    """Restricted-Boltzmann-machine log-amplitude model.

    Parameters
    ----------
    n:
        Number of sites.
    hidden:
        Number of hidden units ``h``; the paper uses ``h = n`` by default.
    rng:
        Generator for initialisation. RBM wavefunctions are conventionally
        initialised with small Gaussian couplings so that ψ ≈ uniform at
        start; large initial couplings make the MCMC landscape glassy.
    """

    is_normalized = False
    has_per_sample_grads = True

    def __init__(
        self,
        n: int,
        hidden: int | None = None,
        rng: np.random.Generator | None = None,
        init_std: float = 0.01,
    ):
        super().__init__(n)
        rng = init_rng(rng)  # seeded fallback: replays bit-identically
        self.hidden = hidden if hidden is not None else n
        self.fc = Linear(n, self.hidden, rng=rng, weight_std=init_std)
        # Construction-time init: no graph references these buffers yet.
        self.fc.bias.data[...] = rng.normal(0.0, init_std, size=self.hidden)  # repro-lint: disable=ag-tensor-mutation -- construction-time init, no live graph
        self.fc.bias.bump_version()
        self.visible = Linear(n, 1, rng=rng, weight_std=init_std)
        self.visible.bias.data[...] = 0.0  # repro-lint: disable=ag-tensor-mutation -- construction-time init, no live graph
        self.visible.bias.bump_version()
        at = self.hidden * n + self.hidden  # fc.weight, fc.bias, then the visible layer
        self._factors = (
            LinearFactor((self.hidden, n), 0, self.hidden * n),
            LinearFactor((1, n), at, at + n),
        )

    def forward(self, x: np.ndarray) -> Tensor:
        return self.log_psi(x)

    def log_psi(self, x: np.ndarray) -> Tensor:
        x = validate_configurations(x, self.n)
        xt = F.as_tensor(x)
        theta = self.fc(xt)  # (B, h)
        hidden_term = theta.log_cosh().sum(axis=1)  # Lncoshsum
        visible_term = self.visible(xt).reshape(-1)  # a·x + a0
        return hidden_term + visible_term

    # -- per-sample gradients ----------------------------------------------------

    def log_psi_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, FactoredO]:
        """Closed-form per-sample log-derivatives, in factored form.

        ``∂logψ/∂W_jk = tanh(θ_j) x_k``, ``∂/∂c_j = tanh(θ_j)``,
        ``∂/∂a_k = x_k``, ``∂/∂a₀ = 1``: two unmasked layers reading ``x``,
        with output adjoints ``tanh θ`` and a constant 1. Flattening order
        matches ``named_parameters``: fc.weight, fc.bias, visible.weight,
        visible.bias.
        """
        x = validate_configurations(x, self.n)
        w = self.fc.weight.data
        c = self.fc.bias.data
        a = self.visible.weight.data.ravel()
        a0 = float(self.visible.bias.data[0])

        theta = x @ w.T + c  # (B, h)
        ax = np.abs(theta)
        log_cosh = ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)
        log_psi = log_cosh.sum(axis=1) + x @ a + a0

        hidden, visible = self._factors
        factors = [(hidden, x, np.tanh(theta)), (visible, x, np.ones((len(x), 1)))]
        return log_psi, FactoredO(factors, visible.b.stop)

    def exact_distribution(self) -> np.ndarray:
        """Normalised |ψ|² over all 2^n states (small n only; testing)."""
        if self.n > 20:
            raise ValueError(f"exact distribution infeasible for n={self.n}")
        states = ((np.arange(2**self.n)[:, None] >> np.arange(self.n - 1, -1, -1)) & 1)
        from repro.tensor.tensor import no_grad

        with no_grad():
            lp = 2.0 * self.log_psi(states.astype(np.float64)).data
        lp -= lp.max()
        p = np.exp(lp)
        return p / p.sum()
