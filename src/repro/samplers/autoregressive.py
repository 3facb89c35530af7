"""Exact autoregressive sampling (paper Algorithm 1, batched).

Two execution paths produce identical samples from identical RNG streams:

- **incremental** (default for MADE): the :mod:`repro.perf.incremental`
  kernel computes the units the masks prove final from per-block GEMMs
  and solves each run of sites by fixed-point sweeps — O(n·h) work per
  batch row: *half* a full forward pass for the paper's architecture when
  runs are one site long (large batches), more at small batches, where a
  run's GEMMs repeat once per sweep;
- **naive**: ``model.sample(method='naive')`` — ``n`` full forward passes
  per batch (each pass advances the whole batch one site). This is the
  burn-in-free cost Figure 1 annotates, and remains the path for
  non-MADE normalised models (mean-field, RNN).

Which one runs is decided by the model's type alone: every MADE takes the
kernel (``method='auto'``, the default) unless ``method='naive'`` asks for
the reference, and every other model runs its own ``model.sample``.

**Retracing.** Once a MADE concentrates (Max-Cut does), most of a batch is
copies of a few configurations. The sampler remembers the ``MEMORY`` most
frequent configurations of its last batch that drew at least twice, when
together they drew at least ``COVERAGE`` of it, and on the next call the
kernel copies every row whose uniforms retrace one of them instead of
drawing it (:func:`~repro.perf.incremental.incremental_sample`'s
``memory``). Conditional i reads the prefix alone, so a row whose uniforms
make a configuration's choice at every site *is* that configuration: the
samples are Algorithm 1's, and the memory moves them only where the kernel
already may — a uniform inside the ~1e-16 window between two roundings of
one logit. The memory is a hint, not state: any configurations of length n
are a valid memory, so it is neither checkpointed nor tied to one model, and
a call reads it once, so a sampler shared across threads or models stays
correct. :meth:`AutoregressiveSampler.draw` hands the batch's grouping to
``VQMC.step``: retraced rows are grouped by the configuration they
retraced, and only the drawn rows are hashed. That grouping is what
refreshes the memory; :meth:`~AutoregressiveSampler.sample` retraces it
too but, grouping nothing, leaves it as it is.

``last_stats`` reports both the nominal pass count and the measured
``forward_pass_equivalents`` (the kernel's GEMMs plus the forward pass over
the memory) so cost models see the true price; ``extras['fast_path']``
records which kernel ran, ``extras['sweeps']`` the kernel's mean sweeps per
run (0 when it did not run) and ``extras['retraced']`` the rows copied from
the memory.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import WaveFunction
from repro.models.made import MADE
from repro.obs.tracer import NULL_TRACER
from repro.perf.incremental import incremental_sample
from repro.samplers.base import Sampler, SamplerStats
from repro.utils.rows import DistinctRows, distinct_rows

__all__ = ["AutoregressiveSampler"]

#: Configurations remembered from a batch for the next to retrace, the most
#: frequent first. Measured (docs/performance.md has the table): each one
#: costs a pass over the next batch's uniforms for the rows still unmatched,
#: and 8 retraces the most rows on Max-Cut at no cost elsewhere.
MEMORY = 8

#: The share of a batch its remembered configurations must have drawn (each
#: at least twice) to be kept. Below it the kernel still runs on most rows,
#: and fewer rows barely make it cheaper at small ``n``: at ½ a
#: ``converge_chain10`` step read 0.97× (docs/performance.md).
COVERAGE = 0.9


class AutoregressiveSampler(Sampler):
    """Draws exact samples from a normalised autoregressive wavefunction.

    Parameters
    ----------
    method:
        ``'auto'`` (default) — the incremental kernel on a MADE, the
        model's own ``sample`` on any other model; ``'naive'`` — force the
        reference full-forward-pass path.
    """

    exact = True

    def __init__(self, method: str = "auto"):
        if method not in ("auto", "naive"):
            raise ValueError(f"unknown sampling method {method!r}")
        self.method = method
        #: span recorder; :class:`repro.core.VQMC` attaches its tracer here
        #: so the path taken shows up nested inside ``sample`` spans
        self.tracer = NULL_TRACER
        #: (K, n) configurations the next MADE batch retraces — a hint that
        #: any 0/1 rows of the model's length satisfy (see the module doc)
        self.memory = np.zeros((0, 0))

    def _check(self, model: WaveFunction, batch_size: int) -> None:
        if not model.is_normalized:
            raise TypeError(
                f"{type(model).__name__} is not normalised/autoregressive; "
                "exact sampling requires a MADE-style model (use MetropolisSampler)"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {batch_size}")

    def sample(
        self, model: WaveFunction, batch_size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Configurations only: a MADE's draw retraces the memory, but with no
        grouping made the memory is left as it is (see :meth:`draw`)."""
        self._check(model, batch_size)
        if isinstance(model, MADE) and self.method == "auto":
            return self._incremental(model, batch_size, rng).samples
        with self.tracer.span("sample.naive", batch=batch_size, n=model.n):
            if isinstance(model, MADE):
                x = model.sample(batch_size, rng, method="naive")
            else:
                x = model.sample(batch_size, rng)
        self._stats = SamplerStats(
            forward_passes=model.n,
            forward_pass_equivalents=float(model.n),
            extras={"fast_path": "naive"},
        )
        return x

    def draw(
        self, model: WaveFunction, batch_size: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, DistinctRows]:
        """``(x, distinct_rows(x == 1))``, retracing the memory on a MADE.

        The rows that retraced a remembered configuration are grouped by it;
        only the rows the kernel drew are hashed. The batch's most frequent
        configurations become the memory for the next call.
        """
        self._check(model, batch_size)
        if not (isinstance(model, MADE) and self.method == "auto"):
            return super().draw(model, batch_size, rng)
        result = self._incremental(model, batch_size, rng)
        x = result.samples
        rows = _group(x, result.followed)
        self.memory = _remember(x, rows)
        return x, rows

    def _incremental(self, model: MADE, batch_size: int, rng: np.random.Generator):
        memory = self.memory  # once: another thread may replace it meanwhile
        if memory.shape[1] != model.n:
            memory = None
        with self.tracer.span("sample.incremental", batch=batch_size, n=model.n):
            result = incremental_sample(model, batch_size, rng, memory=memory)
        equiv = result.forward_pass_equivalents
        self._stats = SamplerStats(
            forward_passes=int(np.ceil(equiv)),
            forward_pass_equivalents=equiv,
            extras={
                "fast_path": "incremental",
                "macs": result.macs,
                "sweeps": sum(result.sweeps) / max(1, len(result.sweeps)),
                "retraced": result.retraced,
            },
        )
        return result


def _group(x: np.ndarray, followed: np.ndarray | None) -> DistinctRows:
    """``distinct_rows(x == 1)``, hashing only the rows the kernel drew: a
    retraced row is grouped with the others that retraced its configuration.
    """
    drawn = None if followed is None else np.flatnonzero(followed < 0)
    if drawn is None or drawn.size == len(x):
        return distinct_rows(x == 1.0)
    # Each retraced configuration is a group, first seen at its first row.
    labels, first = np.unique(followed, return_index=True)
    if labels[0] < 0:
        labels, first = labels[1:], first[1:]
    # Group g of the drawn rows is group len(labels) + g of the batch.
    group = np.searchsorted(labels, followed)
    if drawn.size:
        own = distinct_rows(x[drawn] == 1.0)
        heads = drawn[own.first]
        # A drawn row equal to a retraced one (a uniform inside a rounding
        # window) is the same row: group the batch from scratch.
        if (x[heads] == x[first][:, None]).all(axis=2).any():
            return distinct_rows(x == 1.0)
        group[drawn] = labels.size + own.inverse
        first = np.concatenate([first, heads])
    # First occurrence order, as distinct_rows gives it.
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return DistinctRows(first[order], rank[group])


def _remember(x: np.ndarray, rows: DistinctRows) -> np.ndarray:
    """The configurations the next batch should retrace: the ``MEMORY`` most
    frequent of ``x`` that drew at least twice, if they drew ``COVERAGE`` of
    it, else none."""
    # Every other group holds a row at least: past this count, MEMORY
    # groups cannot cover the batch, and nothing needs counting.
    if rows.count - MEMORY > (1.0 - COVERAGE) * len(x):
        return x[:0]
    counts = rows.counts
    top = np.argsort(-counts, kind="stable")[:MEMORY]
    top = top[counts[top] >= 2]
    if counts[top].sum() < COVERAGE * len(x):
        return x[:0]
    return x[rows.first[top]]
