"""MADE wavefunction (§2.3 and §5.1 of the paper).

Architecture (paper, §5.1; single hidden layer)::

    Input --(bs,n)--> MaskedFC1 --(bs,h)--> ReLU
          --(bs,h)--> MaskedFC2 --(bs,n)--> Sigmoid --(bs,n)--> Output

The sigmoid outputs are the autoregressive conditionals
``p_i = P(x_i = 1 | x_{<i})``; the joint is
``πθ(x) = Π_i p_i^{x_i} (1-p_i)^{1-x_i}`` and the wavefunction is
``ψθ(x) = sqrt(πθ(x))`` (non-negative ground state, §2.1). We keep the
network output in *logit* space internally and evaluate Bernoulli
log-probabilities through ``bernoulli_log_prob`` for numerical stability; the
sigmoid of the paper's diagram is applied only where actual probabilities
are required (sampling).

``hidden`` may also be a sequence of layer widths, giving the deep masked
autoencoder of Germain et al. (an extension beyond the paper's 2-layer
default; the masks guarantee the autoregressive property at any depth).

Parameter count for the paper's single-hidden-layer case:
``d = 2hn + h + n`` exactly as stated in §4.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.models.base import WaveFunction, validate_configurations
from repro.nn.factored import FactoredO, LinearFactor
from repro.nn.linear import MaskedLinear
from repro.nn.masks import check_autoregressive_deep, made_masks_deep
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import init_rng

__all__ = ["MADE", "default_hidden_size", "made_num_parameters"]


def default_hidden_size(n: int) -> int:
    """The paper's default latent size ``h = 5 (log n)²`` (§5.1, natural log)."""
    return max(1, int(round(5.0 * np.log(n) ** 2)))


def made_num_parameters(n: int, hidden: int | None = None) -> int:
    """The paper's gradient length ``d = 2hn + h + n`` (§4) for one hidden
    layer of width ``hidden`` (default: :func:`default_hidden_size`)."""
    h = hidden if hidden is not None else default_hidden_size(n)
    return 2 * h * n + h + n


class MADE(WaveFunction):
    """Masked autoencoder wavefunction with exact autoregressive sampling.

    Parameters
    ----------
    n:
        Number of sites / input dimension.
    hidden:
        Hidden layer size ``h`` (int — the paper's architecture) or a
        sequence of widths for a deep MADE. Defaults to the paper's
        ``5 (log n)²``.
    rng:
        Generator for weight initialisation (and mask degrees if
        ``mask_strategy='random'``).
    mask_strategy:
        ``'cycle'`` (deterministic, default) or ``'random'``.
    """

    is_normalized = True
    has_per_sample_grads = True

    def __init__(
        self,
        n: int,
        hidden: int | Sequence[int] | None = None,
        rng: np.random.Generator | None = None,
        mask_strategy: str = "cycle",
    ):
        super().__init__(n)
        rng = init_rng(rng)  # seeded fallback: replays bit-identically
        if hidden is None:
            hidden = default_hidden_size(n)
        if isinstance(hidden, (int, np.integer)):
            widths: tuple[int, ...] = (int(hidden),)
        else:
            widths = tuple(int(h) for h in hidden)
            if not widths:
                raise ValueError("hidden layer list must be non-empty")
        self.hidden = widths[0] if len(widths) == 1 else widths
        self.widths = widths

        masks = made_masks_deep(n, widths, rng=rng, strategy=mask_strategy)
        check_autoregressive_deep(masks)
        dims = (n, *widths, n)
        self._layers: list[MaskedLinear] = []
        for i, mask in enumerate(masks):
            layer = MaskedLinear(dims[i], dims[i + 1], mask, rng=rng)
            # Attribute assignment registers the layer (and its parameters)
            # in a deterministic order: fc1, fc2, ..., fc{L+1}.
            setattr(self, f"fc{i + 1}", layer)
            self._layers.append(layer)
        # Each layer's slot in the flat parameter vector (weight, then bias).
        self._factors: list[LinearFactor] = []
        for layer in self._layers:
            off = self._factors[-1].b.stop if self._factors else 0
            self._factors.append(
                LinearFactor(layer.mask.shape, off, off + layer.mask.size, layer.mask)
            )

    # Backwards-compatible aliases for the paper's 2-matrix architecture.
    @property
    def fc_layers(self) -> list[MaskedLinear]:
        return list(self._layers)

    # -- forward ----------------------------------------------------------------

    def logits(self, x: np.ndarray) -> Tensor:
        """Pre-sigmoid conditional logits ``z`` — shape (B, n)."""
        x = validate_configurations(x, self.n)
        h = F.as_tensor(x)
        for layer in self._layers[:-1]:
            h = layer(h).relu()
        return self._layers[-1](h)

    def forward(self, x: np.ndarray) -> Tensor:
        """Paper's diagram output: conditional probabilities ``σ(z)``."""
        return self.logits(x).sigmoid()

    def conditionals(self, x: np.ndarray) -> np.ndarray:
        """``p(x_i=1 | x_{<i})`` for each site, as a plain array (no graph)."""
        with no_grad():
            return self.forward(x).data

    def log_prob(self, x: np.ndarray) -> Tensor:
        """``log πθ(x) = Σ_i log Bernoulli(x_i; p_i)`` — shape (B,)."""
        x = validate_configurations(x, self.n)
        z = self.logits(x)
        return F.bernoulli_log_prob(z, x).sum(axis=1)

    def log_psi(self, x: np.ndarray) -> Tensor:
        """``log ψθ(x) = ½ log πθ(x)``."""
        return self.log_prob(x) * 0.5

    # -- per-sample gradients (manual vectorised backprop) ----------------------------

    def log_psi_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, FactoredO]:
        """Per-sample ``O(x) = ∇θ log ψθ(x)`` without building a graph.

        Closed-form backprop through the masked layer stack; the Bernoulli
        log-likelihood has the classic logit gradient ``∂L/∂z = x − σ(z)``.
        Returns ``(log_psi (B,), O)`` with ``O`` the (B, d) matrix in
        factored form — each layer's inputs and output adjoints
        (:class:`~repro.nn.factored.FactoredO`; ``np.asarray(O)`` is the
        dense matrix) — parameters flattened in ``named_parameters`` order
        (fc1.weight, fc1.bias, fc2.weight, ...).
        """
        x = validate_configurations(x, self.n)

        # Forward, caching inputs to every layer.
        inputs = [x]
        pre_acts = []
        cur = x
        for layer in self._layers[:-1]:
            a = cur @ layer.effective_weight().T + layer.bias.data
            pre_acts.append(a)
            cur = np.maximum(a, 0.0)
            inputs.append(cur)
        last = self._layers[-1]
        z = cur @ last.effective_weight().T + last.bias.data

        # Stable log π and σ(z).
        log_p = np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))
        log_q = np.minimum(-z, 0.0) - np.log1p(np.exp(-np.abs(z)))
        log_prob = (x * log_p + (1.0 - x) * log_q).sum(axis=1)
        sig = np.exp(log_p)

        # Backward, batched per sample. log ψ = ½ log π  ⇒  O = ½ ∇ log π.
        delta = 0.5 * (x - sig)  # adjoint of the logits (B, n)
        factors = []
        for idx in range(len(self._layers) - 1, -1, -1):
            factors.append((self._factors[idx], inputs[idx], delta))
            if idx > 0:
                delta = delta @ self._layers[idx].effective_weight()
                delta = delta * (pre_acts[idx - 1] > 0.0)
        return 0.5 * log_prob, FactoredO(factors[::-1], self._factors[-1].b.stop)

    # -- exact sampling (Algorithm 1, batched) ------------------------------------------

    def sample(
        self,
        batch_size: int,
        rng: np.random.Generator,
        clamp: np.ndarray | None = None,
        method: str = "incremental",
    ) -> np.ndarray:
        """Draw exact i.i.d. samples from πθ.

        Batched version of the paper's Algorithm 1. Two implementations:

        - ``method='incremental'`` (the default): the
          :mod:`repro.perf.incremental` kernel — per-block GEMMs over the
          hidden units the masks prove final, each run of sites solved by
          fixed-point sweeps, O(n·h) per batch row;
        - ``method='naive'``: the literal Algorithm 1, ``n`` full forward
          passes (O(n²·h) per row). Kept as the reference implementation
          the fast path is property-tested against.

        Both consume the RNG stream identically and make the same
        comparison (``u < σ(z)``, which the kernel evaluates as
        ``z > log(u / (1 − u))``), so for the same ``rng`` state they
        produce bit-identical samples.

        Parameters
        ----------
        clamp:
            Optional length-``n`` array with entries in {0, 1, NaN}: non-NaN
            sites are forced to the given value instead of sampled
            (ancestral clamping). When the clamped sites form a *prefix*
            ``x_1 … x_k`` this yields exact samples from the true
            conditional ``π(x_{>k} | x_{≤k})``; for non-prefix clamps the
            later conditionals still adapt but earlier ones cannot, so the
            result is the causal intervention, not the Bayesian posterior.
        """
        from repro.perf.incremental import _validate_clamp, incremental_sample

        if method == "incremental":
            return incremental_sample(self, batch_size, rng, clamp=clamp).samples
        if method != "naive":
            raise ValueError(f"unknown sampling method {method!r}")
        clamp = _validate_clamp(clamp, self.n)
        x = np.zeros((batch_size, self.n))
        with no_grad():
            for i in range(self.n):
                if clamp is not None and not np.isnan(clamp[i]):
                    x[:, i] = clamp[i]
                    continue
                p = self.conditionals(x)[:, i]
                x[:, i] = (rng.random(batch_size) < p).astype(np.float64)
        return x

    def exact_distribution(self) -> np.ndarray:
        """Full probability vector over all 2^n states (small n only; testing)."""
        if self.n > 20:
            raise ValueError(f"exact distribution infeasible for n={self.n}")
        states = ((np.arange(2**self.n)[:, None] >> np.arange(self.n - 1, -1, -1)) & 1)
        with no_grad():
            lp = self.log_prob(states.astype(np.float64)).data
        return np.exp(lp)
