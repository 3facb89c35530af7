"""Random-number-generator management.

All stochastic components in this package take an explicit
:class:`numpy.random.Generator`; nothing touches the legacy global numpy RNG.
For parallel work (multiple chains, multiple workers) we derive statistically
independent child generators via :class:`numpy.random.SeedSequence.spawn`,
which is the numpy-recommended way to obtain non-overlapping streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_generator", "init_rng", "spawn_generators"]

#: seed of the fallback initialisation stream (see :func:`init_rng`)
DEFAULT_INIT_SEED = 0


def as_generator(seed: int | None | np.random.Generator) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Accepts an existing generator (returned unchanged), an integer seed, or
    ``None`` (fresh OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def init_rng(
    rng: np.random.Generator | None, seed: int = DEFAULT_INIT_SEED
) -> np.random.Generator:
    """The Generator fallback for model/layer construction.

    Callers that don't pass an ``rng`` get a *seeded* stream rather than OS
    entropy: a default-constructed model is bit-identical on every machine,
    which is the repo-wide replay contract (and what the
    ``det-unseeded-rng`` lint rule enforces). Pass an explicit ``rng`` for
    independent initialisations.
    """
    if rng is not None:
        return rng
    return np.random.default_rng(seed)


def spawn_generators(
    seed: int | None | np.random.Generator, n: int
) -> list[np.random.Generator]:
    """Derive ``n`` independent generators from a single seed.

    Uses :meth:`numpy.random.SeedSequence.spawn` so the child streams are
    guaranteed non-overlapping regardless of how many draws each makes.
    """
    if n < 0:
        raise ValueError(f"cannot spawn {n} generators")
    if isinstance(seed, np.random.Generator):
        # Derive children by drawing entropy from the parent stream.
        ss = np.random.SeedSequence(seed.integers(0, 2**63 - 1, size=4).tolist())
    else:
        ss = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]
