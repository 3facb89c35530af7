"""Model parallelism for MADE (the paper's §4 avenue (1), implemented).

The paper parallelises only the *sampling* step and lists distributing the
model parameters across devices as the complementary avenue. For a
one-hidden-layer MADE the natural decomposition shards the hidden layer:
rank r holds a slice of the hidden units — rows ``W1[r]`` (h_r × n) of the
first masked matrix and the matching columns ``W2[:, r]`` (n × h_r) of the
second. A forward pass is then

    z = Σ_r  W2_r · relu(W1_r x + b1_r)  + b2

i.e. each rank computes its partial logits from its shard and a single
allreduce sums them — the classic "row/column parallel" pattern (Megatron
style). The output bias b2 is replicated and added once (rank-0's
contribution carries it).

Communication per forward pass: one allreduce of (batch × n) floats —
exactly the "intimately linked with the choice of the autoregressive neural
network" coupling the paper alludes to (for MADE it is one sum per pass;
sampling therefore costs n allreduces).

Gradients: each rank's shard gradients are *local* (no communication —
d z/d W1_r involves only that rank's shard); only the logit-level gradient
``∂L/∂z`` must be identical on all ranks, which it is because the local
energies and z are identical after the forward allreduce.

:class:`ShardedMADE` mirrors the :class:`repro.models.MADE` interface
(``log_prob``, ``log_psi``, ``sample``, ``log_psi_and_grads``) so the VQMC
driver and samplers work unchanged; parameters() exposes only the local
shard, and the driver must *not* allreduce these gradients (pass
``comm=None`` to VQMC — the model handles its own communication).
"""

from __future__ import annotations

import numpy as np

from repro.models.base import WaveFunction, validate_configurations
from repro.nn.masks import check_autoregressive, made_masks
from repro.nn.module import Parameter
from repro.nn import init as nn_init

__all__ = ["ShardedMADE", "shard_bounds"]


def shard_bounds(total: int, world: int) -> list[tuple[int, int]]:
    """Split ``total`` units into ``world`` contiguous near-equal shards."""
    edges = np.linspace(0, total, world + 1).astype(int)
    return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


class ShardedMADE(WaveFunction):
    """Hidden-layer-sharded MADE over a communicator.

    All ranks construct identical masks and the *full* initial weights from
    the shared ``seed`` (cheap at init time), then keep only their shard —
    so a ShardedMADE ensemble is numerically identical to the single-process
    :class:`repro.models.MADE` with the same seed, which the tests exploit.

    Parameters
    ----------
    n, hidden:
        Model dimensions (``hidden`` is the *total* hidden size).
    comm:
        Communicator; the hidden layer is split across ``comm.size`` ranks.
    seed:
        Shared seed for mask/weight construction. All ranks must pass the
        same value.
    """

    is_normalized = True
    has_per_sample_grads = True

    def __init__(self, n: int, hidden: int, comm, seed: int = 0):
        super().__init__(n)
        if hidden < comm.size:
            raise ValueError(
                f"cannot shard {hidden} hidden units over {comm.size} ranks"
            )
        self.comm = comm
        self.hidden = hidden
        rng = np.random.default_rng(seed)

        m1, m2 = made_masks(n, hidden)
        check_autoregressive((m1, m2))
        w1 = nn_init.kaiming_uniform(rng, hidden, n)
        b1 = nn_init.uniform_bias(rng, hidden, n)
        w2 = nn_init.kaiming_uniform(rng, n, hidden)
        b2 = nn_init.uniform_bias(rng, n, hidden)

        lo, hi = shard_bounds(hidden, comm.size)[comm.rank]
        self.shard = (lo, hi)
        self.mask1 = m1[lo:hi]  # (h_r, n)
        self.mask2 = m2[:, lo:hi]  # (n, h_r)
        self.w1 = Parameter(w1[lo:hi], name="w1")
        self.b1 = Parameter(b1[lo:hi], name="b1")
        self.w2 = Parameter(w2[:, lo:hi], name="w2")
        # b2 lives on rank 0 only (added once in the allreduce sum).
        self.owns_output_bias = comm.rank == 0
        self.b2 = Parameter(b2 if self.owns_output_bias else np.zeros(n), name="b2")

    # -- forward ------------------------------------------------------------------

    def _local_partial(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """This rank's hidden activations and partial logits (no comm)."""
        a = x @ (self.mask1 * self.w1.data).T + self.b1.data  # (B, h_r)
        r = np.maximum(a, 0.0)
        partial = r @ (self.mask2 * self.w2.data).T  # (B, n)
        if self.owns_output_bias:
            partial = partial + self.b2.data
        return a, partial

    def logits_array(self, x: np.ndarray) -> np.ndarray:
        """Full logits via one allreduce of the partial sums — (B, n)."""
        x = validate_configurations(x, self.n)
        _, partial = self._local_partial(x)
        if self.comm.size > 1:
            partial = self.comm.allreduce(partial, op="sum")
        return partial

    def log_prob_array(self, x: np.ndarray) -> np.ndarray:
        x = validate_configurations(x, self.n)
        z = self.logits_array(x)
        log_p = np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))
        log_q = np.minimum(-z, 0.0) - np.log1p(np.exp(-np.abs(z)))
        return (x * log_p + (1.0 - x) * log_q).sum(axis=1)

    def log_psi(self, x: np.ndarray):
        """Tensor-wrapped for interface compatibility (constant w.r.t. the
        autograd tape — sharded training uses the per-sample path)."""
        from repro.tensor.tensor import Tensor

        return Tensor(0.5 * self.log_prob_array(x))

    def conditionals(self, x: np.ndarray) -> np.ndarray:
        z = self.logits_array(x)
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    # -- sampling (Algorithm 1; one allreduce per site) ------------------------------

    def sample(self, batch_size: int, rng: np.random.Generator) -> np.ndarray:
        """All ranks must call with generators in the same state: the random
        draws must agree so every rank builds the identical sample batch."""
        x = np.zeros((batch_size, self.n))
        for i in range(self.n):
            p = self.conditionals(x)[:, i]
            x[:, i] = (rng.random(batch_size) < p).astype(np.float64)
        return x

    # -- per-sample gradients (shard-local) --------------------------------------------

    def log_psi_and_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample gradients of the *local shard* parameters.

        ∂logπ/∂z = x − σ(z) is identical on all ranks (full logits); the
        chain rule back into W1_r/W2_r involves only local activations, so
        no further communication is needed.
        """
        x = validate_configurations(x, self.n)
        bsz = x.shape[0]
        a, _ = self._local_partial(x)
        z = self.logits_array(x)

        log_p = np.minimum(z, 0.0) - np.log1p(np.exp(-np.abs(z)))
        log_q = np.minimum(-z, 0.0) - np.log1p(np.exp(-np.abs(z)))
        log_prob = (x * log_p + (1.0 - x) * log_q).sum(axis=1)
        sig = np.exp(log_p)

        dz = x - sig  # (B, n)
        r = np.maximum(a, 0.0)
        d_w2 = dz[:, :, None] * r[:, None, :] * self.mask2[None]  # (B, n, h_r)
        dr = dz @ (self.mask2 * self.w2.data)  # (B, h_r)
        da = dr * (a > 0.0)
        d_w1 = da[:, :, None] * x[:, None, :] * self.mask1[None]  # (B, h_r, n)

        parts = [d_w1.reshape(bsz, -1), da, d_w2.reshape(bsz, -1)]
        if self.owns_output_bias:
            parts.append(dz)
        else:
            parts.append(np.zeros((bsz, self.n)))
        grads = np.concatenate(parts, axis=1)
        return 0.5 * log_prob, 0.5 * grads
