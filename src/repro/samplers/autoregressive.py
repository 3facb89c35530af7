"""Exact autoregressive sampling (paper Algorithm 1, batched).

Two execution paths produce identical samples from identical RNG streams
while the sampler remembers nothing (with a memory, below, the incremental
path is exact in distribution instead):

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
together they drew at least ``COVERAGE`` of it, and on the next call
:func:`~repro.perf.incremental.incremental_sample`'s ``memory`` draws the
batch as counts: one multinomial over the memory's prefix trie says how
many samples end at each remembered configuration and how many leave it,
and where; only those that leave get uniforms, settled by whole-row
fixed-point sweeps or drawn by the kernel. The batch is exact in
distribution (not bit for bit: the RNG stream differs), and one random
permutation places its samples, so any slice of it is a sample too. The
memory is a hint, not state: any configurations of length n are a valid
memory, so it is neither checkpointed nor tied to one model, and a call
reads it once, so a sampler shared across threads or models stays
correct. :meth:`AutoregressiveSampler.draw` hands the batch's grouping to
``VQMC.step``: the counts are the grouping, and only the rows that left
the memory are hashed. That grouping is what refreshes the memory, on
:meth:`~AutoregressiveSampler.sample` too (it returns ``draw(...)[0]``),
so a caller that keeps only the configurations walks the same stream as
``VQMC.step``.

``last_stats`` reports both the nominal pass count and the measured
``forward_pass_equivalents`` (the kernel's GEMMs plus the forward passes
over the memory and the settling sweeps) so cost models see the true
price; ``extras['fast_path']`` records which kernel ran,
``extras['sweeps']`` the kernel's mean sweeps per run (0 when it did not
run), ``extras['retraced']`` the samples that ended at a remembered
configuration and ``extras['settled']`` the rows that whole-row sweeps drew
(the kernel drew the rest).
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
#: frequent first. Measured (docs/performance.md, "Retracing remembered
#: configurations"): 8 retraced the most rows on Max-Cut at no cost elsewhere.
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
        """Configurations only: ``draw(...)[0]``, so a MADE's batch also
        refreshes the memory."""
        if isinstance(model, MADE) and self.method == "auto":
            return self.draw(model, batch_size, rng)[0]
        self._check(model, batch_size)
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

        With a memory the grouping is the draw's counts: only the rows that
        left the remembered configurations are hashed. The batch's most
        frequent configurations become the memory for the next call.
        """
        if not (isinstance(model, MADE) and self.method == "auto"):
            return super().draw(model, batch_size, rng)
        self._check(model, batch_size)
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
                "settled": result.settled,
            },
        )
        x, rows = result.samples, result.rows
        if rows is None:
            rows = distinct_rows(x == 1.0)
        self.memory = _remember(x, rows)
        return x, rows


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
