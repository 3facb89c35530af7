"""Recurrent neural wavefunction (Hibat-Allah et al. 2020 — paper ref. [18]).

The other autoregressive family the paper's §3 discusses: a vanilla RNN
processes sites left to right,

    h_i = tanh(W h_{i-1} + U x_{i-1} + b) ,      h_0 fixed, x_0 := 0
    z_i = v · h_i + c                             (logit of site i)
    p(x_i = 1 | x_{<i}) = σ(z_i) ,

so normalisation is structural exactly as for MADE, and sampling is n
sequential cell evaluations (same cost shape as Algorithm 1). Unlike MADE,
parameter count is **independent of n** (weight sharing across sites) —
O(h² + h) instead of O(hn) — which is the regime where recurrent
wavefunctions beat masked ones at very large n.

Per-sample gradients are hand-vectorised backprop-through-time, validated
against the autograd tape in the tests (so SR works with RNNs too).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import WaveFunction, validate_configurations
from repro.nn.module import Parameter
from repro.tensor import functional as F
from repro.tensor.tensor import Tensor, no_grad
from repro.utils.rng import init_rng

__all__ = ["RNNWaveFunction"]


class RNNWaveFunction(WaveFunction):
    """Vanilla-RNN autoregressive wavefunction.

    Parameters
    ----------
    n:
        Number of sites.
    hidden:
        Hidden-state width h (default 32 — parameter count does not grow
        with n).
    rng:
        Generator for initialisation.
    """

    is_normalized = True
    has_per_sample_grads = True

    def __init__(
        self, n: int, hidden: int = 32, rng: np.random.Generator | None = None
    ):
        super().__init__(n)
        rng = init_rng(rng)  # seeded fallback: replays bit-identically
        if hidden < 1:
            raise ValueError(f"hidden must be >= 1, got {hidden}")
        self.hidden = hidden
        scale_w = 1.0 / np.sqrt(hidden)
        self.w = Parameter(rng.uniform(-scale_w, scale_w, (hidden, hidden)), "w")
        self.u = Parameter(rng.uniform(-1.0, 1.0, (hidden,)), "u")
        self.b = Parameter(np.zeros(hidden), "b")
        self.v = Parameter(rng.uniform(-scale_w, scale_w, (hidden,)), "v")
        self.c = Parameter(np.zeros(1), "c")
        self.h0 = Parameter(np.zeros(hidden), "h0")

    # -- recurrence (numpy fast path, shared by sampling/per-sample grads) -----------

    def _forward_states(
        self, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run the recurrence over a batch.

        Returns (h_states (B, n, h) *post*-tanh, pre_acts (B, n, h), logits
        (B, n)). Site i's hidden state consumes x_{i-1} (x_{-1} := 0).
        """
        bsz = x.shape[0]
        w, u, b = self.w.data, self.u.data, self.b.data
        v, c = self.v.data, float(self.c.data[0])
        h = np.broadcast_to(self.h0.data, (bsz, self.hidden)).copy()
        h_states = np.empty((bsz, self.n, self.hidden))
        pre_acts = np.empty((bsz, self.n, self.hidden))
        logits = np.empty((bsz, self.n))
        prev_x = np.zeros(bsz)
        for i in range(self.n):
            a = h @ w.T + np.outer(prev_x, u) + b
            h = np.tanh(a)
            pre_acts[:, i] = a
            h_states[:, i] = h
            logits[:, i] = h @ v + c
            prev_x = x[:, i]
        return h_states, pre_acts, logits

    # -- WaveFunction interface ------------------------------------------------------

    def logits(self, x: np.ndarray) -> Tensor:
        """Autograd-tape version of the recurrence (used by the tape path)."""
        x = validate_configurations(x, self.n)
        bsz = x.shape[0]
        ones = F.as_tensor(np.ones((bsz, 1)))
        h = ones @ self.h0.reshape(1, -1)  # broadcast h0 through the graph
        cols = []
        prev = F.as_tensor(np.zeros((bsz, 1)))
        for i in range(self.n):
            a = h @ self.w.T + prev @ self.u.reshape(1, -1) + self.b.reshape(1, -1)
            h = a.tanh()
            z_i = h @ self.v.reshape(-1, 1) + self.c.reshape(1, 1)
            cols.append(z_i)
            prev = F.as_tensor(x[:, i : i + 1])
        from repro.tensor.tensor import concatenate

        return concatenate(cols, axis=1)

    def log_prob(self, x: np.ndarray) -> Tensor:
        x = validate_configurations(x, self.n)
        z = self.logits(x)
        return F.bernoulli_log_prob(z, x).sum(axis=1)

    def log_psi(self, x: np.ndarray) -> Tensor:
        return self.log_prob(x) * 0.5

    def conditionals(self, x: np.ndarray) -> np.ndarray:
        x = validate_configurations(x, self.n)
        _, _, z = self._forward_states(x)
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """n sequential cell evaluations, batched — exact i.i.d. samples."""
        w, u, b = self.w.data, self.u.data, self.b.data
        v, c = self.v.data, float(self.c.data[0])
        with no_grad():
            h = np.broadcast_to(self.h0.data, (batch_size, self.hidden)).copy()
            x = np.zeros((batch_size, self.n))
            prev = np.zeros(batch_size)
            for i in range(self.n):
                h = np.tanh(h @ w.T + np.outer(prev, u) + b)
                z = h @ v + c
                p = np.where(z >= 0, 1 / (1 + np.exp(-z)),
                             np.exp(z) / (1 + np.exp(z)))
                x[:, i] = (rng.random(batch_size) < p).astype(np.float64)
                prev = x[:, i]
        return x

    # -- per-sample gradients: vectorised backprop through time ------------------------

    def log_psi_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = validate_configurations(x, self.n)
        bsz = x.shape[0]
        hdim = self.hidden
        w, u, v = self.w.data, self.u.data, self.v.data

        h_states, pre_acts, z = self._forward_states(x)
        terms, log_p = F.bernoulli_log_terms(z, x)
        log_prob = terms.sum(axis=1)
        sig = np.exp(log_p)
        dz = x - sig  # (B, n) — ∂ log π / ∂ z_i

        g_w = np.zeros((bsz, hdim, hdim))
        g_u = np.zeros((bsz, hdim))
        g_b = np.zeros((bsz, hdim))
        g_v = np.zeros((bsz, hdim))
        g_c = dz.sum(axis=1, keepdims=True)  # (B, 1)
        g_h0 = np.zeros((bsz, hdim))

        # Backwards over sites: carry ∂L/∂h_i (B, h).
        dh = np.zeros((bsz, hdim))
        for i in range(self.n - 1, -1, -1):
            h_i = h_states[:, i]
            dh = dh + dz[:, i : i + 1] * v[None, :]  # logit contribution
            g_v += dz[:, i : i + 1] * h_i
            da = dh * (1.0 - h_i**2)  # through tanh (B, h)
            h_prev = h_states[:, i - 1] if i > 0 else \
                np.broadcast_to(self.h0.data, (bsz, hdim))
            x_prev = x[:, i - 1] if i > 0 else np.zeros(bsz)
            g_w += da[:, :, None] * h_prev[:, None, :]
            g_u += da * x_prev[:, None]
            g_b += da
            dh = da @ w  # to h_{i-1}
        g_h0 = dh

        grads = np.concatenate(
            [g_w.reshape(bsz, -1), g_u, g_b, g_v, g_c, g_h0], axis=1
        )
        return 0.5 * log_prob, 0.5 * grads

    def exact_distribution(self) -> np.ndarray:
        if self.n > 20:
            raise ValueError(f"exact distribution infeasible for n={self.n}")
        states = ((np.arange(2**self.n)[:, None] >> np.arange(self.n - 1, -1, -1)) & 1)
        with no_grad():
            lp = self.log_prob(states.astype(np.float64)).data
        return np.exp(lp)
