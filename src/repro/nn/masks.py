"""MADE mask construction (Germain et al., ICML 2015).

A MADE network computes all autoregressive conditionals
``p(x_i | x_{<i})`` in one forward pass by masking the weight matrices of an
ordinary autoencoder so that output unit ``i`` depends only on inputs with
index strictly less than ``i``.

Each input unit gets degree ``m(input_k) = k`` (1-based, natural ordering);
each hidden unit gets a degree ``m(h) ∈ {1, …, n-1}``; connectivity rules:

- input → hidden and hidden → hidden: allowed iff ``m(next) >= m(prev)``
- hidden → output: allowed iff ``m(output) >  m(hidden)``

Any mask stack built by this rule is autoregressive, whatever the degrees:
a path from input ``j`` to output ``i`` runs through degrees
``j ≤ m₁ ≤ … ≤ m_L < i``, so ``j < i``. Nothing has to be checked at
construction. In particular output 1 is connected to nothing and its
conditional is a learnable constant (the bias), which is the correct
``p(x_1)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["made_masks", "hidden_degrees"]


def hidden_degrees(
    n: int, hidden: int, rng: np.random.Generator | None = None, strategy: str = "cycle"
) -> np.ndarray:
    """Assign a degree in ``{1, …, n-1}`` to each hidden unit.

    ``cycle`` (default, deterministic) hands out ``1, 2, …, n-1, 1, 2, …``:
    an even spread over all degrees only for ``hidden >= n-1``. A narrower
    layer gets degrees ``1 … hidden`` and nothing above, so inputs
    ``hidden+1 … n-1`` feed no hidden unit and no conditional can depend
    on them (at the paper's ``h = 5·ln²n`` that is 101 of 256 inputs;
    ROADMAP "Close the MADE degree hole"). ``random`` samples degrees
    uniformly as in the original MADE paper's mask-agnostic training.
    For ``n == 1`` there are no usable degrees — the single
    conditional is the output bias — so we return degree 1 everywhere
    (connections are still cut by the output rule ``m(out) > m(hidden)``
    since the only output has degree 1).
    """
    if n < 1:
        raise ValueError(f"need at least one site, got n={n}")
    top = max(1, n - 1)
    if strategy == "cycle":
        return (np.arange(hidden) % top) + 1
    if strategy == "random":
        if rng is None:
            raise ValueError("strategy='random' requires an rng")
        return rng.integers(1, top + 1, size=hidden)
    raise ValueError(f"unknown strategy {strategy!r}")


def made_masks(
    n: int,
    widths: list[int] | tuple[int, ...],
    rng: np.random.Generator | None = None,
    strategy: str = "cycle",
) -> list[np.ndarray]:
    """The masks of a MADE with hidden layers of the given ``widths``.

    Returns ``len(widths) + 1`` read-only boolean masks, one per weight
    matrix, each of shape (fan_out, fan_in): ``≥`` between the degrees of
    consecutive layers, ``>`` into the outputs. Hidden degrees come from
    :func:`hidden_degrees`, layer by layer, from ``rng``.
    """
    sites = np.arange(1, n + 1)
    degrees = [sites, *(hidden_degrees(n, w, rng=rng, strategy=strategy) for w in widths)]
    masks = [nxt[:, None] >= prev[None, :] for prev, nxt in zip(degrees, degrees[1:])]
    masks.append(sites[:, None] > degrees[-1][None, :])
    for mask in masks:
        mask.flags.writeable = False
    return masks
