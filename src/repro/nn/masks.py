"""MADE mask construction (Germain et al., ICML 2015).

A MADE network computes all autoregressive conditionals
``p(x_i | x_{<i})`` in one forward pass by masking the weight matrices of an
ordinary autoencoder so that output unit ``i`` depends only on inputs with
index strictly less than ``i``.

Each input unit gets degree ``m(input_k) = k`` (1-based, natural ordering);
each hidden unit gets a degree ``m(h) ∈ {1, …, n-1}``; connectivity rules:

- input → hidden:  allowed iff ``m(hidden) >= m(input)``
- hidden → output: allowed iff ``m(output) >  m(hidden)``

Output unit ``i`` (degree ``i``) then sees exactly the inputs ``1..i-1``;
in particular output 1 is connected to nothing and its conditional is a
learnable constant (the bias), which is the correct ``p(x_1)``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "made_masks",
    "made_masks_deep",
    "check_autoregressive",
    "check_autoregressive_deep",
    "hidden_degrees",
]


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
    hidden: int,
    rng: np.random.Generator | None = None,
    strategy: str = "cycle",
) -> tuple[np.ndarray, np.ndarray]:
    """Build the (M1, M2) masks for a one-hidden-layer MADE.

    Returns
    -------
    M1 : (hidden, n) input→hidden mask, ``M1[k, d] = 1 iff m_k >= d+1``.
    M2 : (n, hidden) hidden→output mask, ``M2[d, k] = 1 iff d+1 > m_k``.
    """
    m_in = np.arange(1, n + 1)
    m_hid = hidden_degrees(n, hidden, rng=rng, strategy=strategy)
    m1 = (m_hid[:, None] >= m_in[None, :]).astype(np.float64)
    m2 = (m_in[:, None] > m_hid[None, :]).astype(np.float64)
    return m1, m2


def made_masks_deep(
    n: int,
    hiddens: list[int] | tuple[int, ...],
    rng: np.random.Generator | None = None,
    strategy: str = "cycle",
) -> list[np.ndarray]:
    """Masks for a MADE with any number of hidden layers.

    Generalises :func:`made_masks` (Germain et al. §4): every hidden unit in
    every layer carries a degree ``m ∈ {1, …, n-1}``; connections between
    consecutive hidden layers require ``m(next) >= m(prev)``, input→hidden
    requires ``m(hidden) >= m(input)``, and hidden→output requires
    ``m(output) > m(hidden)``.

    Returns ``len(hiddens) + 1`` masks, one per weight matrix, each of
    shape (fan_out, fan_in).
    """
    if not hiddens:
        raise ValueError("need at least one hidden layer")
    degrees = [np.arange(1, n + 1)]
    for h in hiddens:
        degrees.append(hidden_degrees(n, h, rng=rng, strategy=strategy))
    masks = []
    for prev, nxt in zip(degrees[:-1], degrees[1:]):
        masks.append((nxt[:, None] >= prev[None, :]).astype(np.float64))
    out_deg = np.arange(1, n + 1)
    masks.append((out_deg[:, None] > degrees[-1][None, :]).astype(np.float64))
    return masks


def check_autoregressive_deep(masks: list[np.ndarray]) -> None:
    """Composed connectivity of a deep mask stack must be strictly lower
    triangular (output i reachable only from inputs j < i)."""
    conn = masks[0]
    for m in masks[1:]:
        conn = m @ conn
    conn = conn > 0
    if np.any(np.triu(conn)):
        i, j = np.argwhere(np.triu(conn))[0]
        raise ValueError(f"autoregressive violation: output {i} depends on input {j}")


def check_autoregressive(masks: tuple[np.ndarray, np.ndarray]) -> None:
    """Verify the composed connectivity ``M2 @ M1`` is strictly lower triangular.

    ``(M2 @ M1)[i, j] > 0`` means output ``i`` has a path from input ``j``;
    the autoregressive property requires paths only for ``j < i``.
    Raises ``ValueError`` on violation.
    """
    m1, m2 = masks
    conn = (m2 @ m1) > 0
    n = conn.shape[0]
    for i in range(n):
        for j in range(i, n):
            if conn[i, j]:
                raise ValueError(
                    f"autoregressive violation: output {i} depends on input {j}"
                )
