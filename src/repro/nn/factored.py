"""Per-sample log-derivatives in factored form.

For a stack of (masked) linear layers, row ``s`` of the per-sample
log-derivative matrix ``O`` (N × d) restricted to layer ``l`` is

    (δ_l[s] ⊗ a_l[s])[M_l]       for the weight,      δ_l[s]  for the bias,

with ``a_l`` (N × in) the layer's inputs, ``δ_l`` (N × out) the
ones-seeded per-sample adjoints of its outputs, and ``[M_l]`` the gather of
the entries the mask connects, row-major — the packed weight a
:class:`~repro.nn.linear.MaskedLinear` stores. :class:`FactoredO` keeps
those two thin matrices per layer instead of the N × d array — at the
paper's headline size (n = 10⁴, N = 64) that array alone would be 4.3 GB —
and supplies what stochastic reconfiguration and the energy gradient need:

- ``w @ O`` — one weighted backward, ``((δ_l ∘ w)ᵀ a_l)[M_l]`` per layer;
- ``O @ v`` — one GEMM per layer, ``rowsum((a_l V_lᵀ) ∘ δ_l) + δ_l v_b``,
  ``V_l`` the layer's packed entries of ``v`` scattered into their mask;
- :meth:`FactoredO.gram` — ``O Oᵀ`` from layer statistics (below), built
  on the stored rows and scattered back;
- :meth:`FactoredO.counted` — the stored rows as their own ``O`` and how
  many samples each stands for, what the count-weighted SR solve takes;
- :meth:`FactoredO.allgather` — every rank's distinct rows and their
  counts, ``U_r · (Σ(in + out) + 1)`` floats;
- ``np.asarray(O)`` — the dense matrix, for oracles and diagnostics.

A batch's repeated configurations have identical rows of ``O``. A
``FactoredO`` therefore holds U stored rows together with the
:class:`~repro.utils.rows.DistinctRows` grouping of the N samples onto
them — the distinct rows, as :func:`repro.core.energy.per_sample_grads`
hands out, or every row its own
sample when built without a grouping: ``w @ O`` sums ``w`` over each row's
copies first, ``O @ v`` scatters its U values back, and ``.shape``,
``gram()`` and ``np.asarray`` are those of the N-row matrix.

The Gram matrix from layer statistics
-------------------------------------
``⟨O[s], O[t]⟩ = Σ_{k,j} M[k,j] · δ[s,k] δ[t,k] · a[s,j] a[t,j]`` is the
Gram-of-outer-products identity of Goodfellow (arXiv:1510.01799) with a
mask in it. Over a block ``J`` of inputs, the rows ``K`` connected to all
of ``J`` contribute ``(Δ_K Δ_Kᵀ) ∘ (A_J A_Jᵀ)`` — two thin GEMMs and a
Hadamard product — and only rows connected to part of ``J`` need explicit
feature columns ``δ[:, k] · a[:, j]``, multiplied :data:`FEATURE_CHUNK` at
a time rather than block by block. MADE masks are staircases, so with the
inputs ordered by connectivity and taken :data:`GRAM_BLOCK` at a time a
row is partial in one block at most (≤ out · GRAM_BLOCK / 2 feature
columns per layer); an unmasked layer is one Hadamard product. The split
is read off ``mask`` itself and is exact for any 0/1 mask, staircase or
not.
"""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np

from repro.utils.rows import DistinctRows, distinct_rows, every_row

__all__ = ["FactoredO", "LinearFactor", "GRAM_BLOCK", "FEATURE_CHUNK"]

#: Inputs per Gram block. Measured at (n, h, N) = (64, 86, 128) and
#: (256, 154, 64): 12–24 is flat within 15 %, 8 and 32 are 25–45 % slower
#: (docs/performance.md has the table) — a constant, not a knob.
GRAM_BLOCK = 16
#: Explicit feature columns per ``F Fᵀ`` product: from 128 to 512 the Gram
#: build is flat and 20–30 % cheaper than one product over all of a layer's
#: features, whose 0.6 MB temporaries cost more to fault in than to fill.
FEATURE_CHUNK = 256


class LinearFactor:
    """Where one linear layer's parameters sit in the flat vector, its mask,
    and (built once — masks never change) how its Gram term splits.

    A masked layer's weight slot holds its connected entries only, packed
    row-major: ``pattern``, the layer's boolean mask
    (:attr:`~repro.nn.linear.MaskedLinear.pattern`, shared, not copied),
    picks them out of an ``(out, in)`` matrix. An unmasked layer
    (``pattern=None``) holds the whole matrix."""

    def __init__(self, shape, w_offset: int, b_offset: int | None = None, pattern=None):
        self.shape = out, in_ = tuple(int(s) for s in shape)
        self.pattern = pattern
        size = out * in_ if pattern is None else int(np.count_nonzero(pattern))
        self.w = slice(w_offset, w_offset + size)
        self.b = None if b_offset is None else slice(b_offset, b_offset + out)
        self._local = threading.local()

    @cached_property
    def _index(self) -> np.ndarray:
        """The flat row-major positions of the connected entries."""
        return np.flatnonzero(self.pattern)

    def gather_product(self, weighted: np.ndarray, a: np.ndarray, out: np.ndarray) -> None:
        """``out[:] = (weightedᵀ a)[pattern]``, through one ``(out, in)``
        scratch per thread: a fresh product and gather every step cost
        more in allocator churn than in arithmetic. Per thread, because
        ranks on threads may share one model."""
        scratch = getattr(self._local, "scratch", None)
        if scratch is None:
            scratch = self._local.scratch = np.empty(self.shape)
        np.matmul(weighted.T, a, out=scratch)
        np.take(scratch, self._index, out=out, mode="clip")

    @cached_property
    def gram_blocks(self):
        """``(hadamard, rows, cols)``: ``hadamard`` lists ``(J, K)`` index
        pairs with ``K`` the outputs connected to every input of ``J``;
        ``(rows[i], cols[i])`` are the live weights of the partial blocks."""
        if self.pattern is None:
            every = slice(None)
            return [(every, every)], np.empty(0, np.intp), np.empty(0, np.intp)
        live = self.pattern
        order = np.argsort(-live.sum(axis=0), kind="stable")
        hadamard, rows, cols = [], [], []
        for start in range(0, order.size, GRAM_BLOCK):
            block = order[start:start + GRAM_BLOCK]
            sub = live[:, block]
            count = sub.sum(axis=1)
            full = np.flatnonzero(count == block.size)
            if full.size:
                hadamard.append((block, full))
            partial = np.flatnonzero((count > 0) & (count < block.size))
            k, j = np.nonzero(sub[partial])
            rows.append(partial[k])
            cols.append(block[j])
        return hadamard, np.concatenate(rows), np.concatenate(cols)


class FactoredO:
    """``O`` (N × d) as per-layer ``(LinearFactor, a_l, δ_l)`` triples.

    The factors hold the *stored* rows, the U rows that ``rows`` maps the
    N samples onto — without ``rows``, each stored row is one sample. The
    arrays are used as given, not copied. Coordinates no layer covers are
    zero columns.
    """

    #: ``ndarray @ O`` must reach :meth:`__rmatmul__`, not broadcast over us
    __array_ufunc__ = None

    def __init__(self, factors, d: int, rows: DistinctRows | None = None):
        self.factors = list(factors)
        #: the grouping of the N samples onto the stored rows
        self.rows = every_row(len(self.factors[0][1])) if rows is None else rows
        self.shape = (self.rows.inverse.size, int(d))

    def __rmatmul__(self, w) -> np.ndarray:
        """``w @ O`` for a weight per sample, ``w`` of shape (N,)."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.shape[:1]:
            raise ValueError(f"weights of shape {w.shape} against O of shape {self.shape}")
        w = self.rows.sums(w)
        out = np.zeros(self.shape[1])
        for layer, a, delta in self.factors:
            weighted = delta * w[:, None]
            if layer.pattern is None:
                np.matmul(weighted.T, a, out=out[layer.w].reshape(layer.shape))
            else:
                layer.gather_product(weighted, a, out[layer.w])
            if layer.b is not None:
                weighted.sum(axis=0, out=out[layer.b])
        return out

    def __matmul__(self, v) -> np.ndarray:
        """``O @ v`` for a parameter-space vector ``v`` of shape (d,)."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != self.shape[1:]:
            raise ValueError(f"vector of shape {v.shape} against O of shape {self.shape}")
        out = np.zeros(len(self.factors[0][1]))
        for layer, a, delta in self.factors:
            if layer.pattern is None:
                weight = v[layer.w].reshape(layer.shape)
            else:
                weight = np.zeros(layer.shape)
                weight[layer.pattern] = v[layer.w]
            out += np.einsum("so,so->s", a @ weight.T, delta)
            if layer.b is not None:
                out += delta @ v[layer.b]
        return out[self.rows.inverse]

    def counted(self) -> tuple["FactoredO", np.ndarray]:
        """``(O_U, counts)``: the U stored rows as a (U × d) ``O`` of their
        own, and how many samples each stands for."""
        return FactoredO(self.factors, self.shape[1]), self.rows.counts

    def _packed(self) -> np.ndarray:
        """Every layer's ``(a_l, δ_l)`` side by side: one stored row each."""
        return np.concatenate([m for _, a, delta in self.factors for m in (a, delta)], axis=1)

    def gram(self) -> np.ndarray:
        """``O Oᵀ`` (N × N) from layer statistics — no N × d intermediate.
        Built on the stored rows and scattered back."""
        inverse = self.rows.inverse
        return self._gram(self.factors)[inverse][:, inverse]

    @staticmethod
    def _gram(factors) -> np.ndarray:
        """The Gram matrix of the rows ``factors`` hold, every one of them."""
        n = len(factors[0][1])
        gram = np.zeros((n, n))
        dd, aa = np.empty((n, n)), np.empty((n, n))
        for layer, a, delta in factors:
            if layer.b is not None:
                gram += np.matmul(delta, delta.T, out=dd)
            hadamard, rows, cols = layer.gram_blocks
            for inputs, outputs in hadamard:
                d_k, a_j = delta[:, outputs], a[:, inputs]
                np.matmul(d_k, d_k.T, out=dd)
                dd *= np.matmul(a_j, a_j.T, out=aa)
                gram += dd
            for at in range(0, rows.size, FEATURE_CHUNK):
                features = delta[:, rows[at:at + FEATURE_CHUNK]]
                features *= a[:, cols[at:at + FEATURE_CHUNK]]
                gram += np.matmul(features, features.T, out=dd)
        return gram

    def allgather(self, comm) -> "FactoredO":
        """Every rank's samples, as one ``O``.

        One ``comm.allgather`` of this rank's stored rows — the layers'
        ``(a_l, δ_l)`` packed side by side, and how many samples each row
        stands for as one more column: ``U_r · (Σ_l(in_l + out_l) + 1)``
        floats. Rows that repeat, within a rank or across ranks, are merged
        and their counts add; the result holds the distinct rows, grouped
        rank-agnostically (each row's samples in a run)."""
        counts = self.rows.counts.astype(np.float64)
        gathered = np.concatenate(
            comm.allgather(np.concatenate([self._packed(), counts[:, None]], axis=1)), axis=0
        )
        merged = distinct_rows(gathered[:, :-1])
        body, counts = gathered[merged.first, :-1], merged.sums(gathered[:, -1]).astype(np.intp)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        rows = DistinctRows(starts, np.repeat(np.arange(counts.size), counts))
        factors, at = [], 0
        for layer, a, delta in self.factors:
            mid, end = at + a.shape[1], at + a.shape[1] + delta.shape[1]
            factors.append((layer, body[:, at:mid], body[:, mid:end]))
            at = end
        return FactoredO(factors, self.shape[1], rows)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        dense = np.zeros((len(self.factors[0][1]), self.shape[1]), dtype=dtype or np.float64)
        for layer, a, delta in self.factors:
            block = delta[:, :, None] * a[:, None, :]
            dense[:, layer.w] = (
                block.reshape(len(a), -1) if layer.pattern is None else block[:, layer.pattern]
            )
            if layer.b is not None:
                dense[:, layer.b] = delta
        return dense[self.rows.inverse]
