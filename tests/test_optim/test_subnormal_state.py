"""A decaying optimizer state never goes subnormal.

Under a zero gradient (a collapsed batch: every sample the same) Adam's
first moment and SGD's momentum velocity decay geometrically, and below the
smallest normal float their arithmetic is many times slower. Each step
flushes those entries to 0. An update from an entry that small cannot move
a parameter of normal size, so the parameters equal the unflushed
arithmetic's bit for bit wherever ``|θ| > 1e-280``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import SGD, Adam

from tests.test_optim.test_flat_optimizers import _Reference

TINY = np.finfo(np.float64).tiny


def _subnormal(a: np.ndarray) -> np.ndarray:
    return (a != 0.0) & (np.abs(a) < TINY)


def _parameters(rng: np.random.Generator) -> list[Parameter]:
    """Two parameters of normal size, and one of 1e-305-sized entries that
    the unflushed arithmetic's subnormal updates still move."""
    return [
        Parameter(rng.normal(size=(6, 5))),
        Parameter(rng.normal(size=7)),
        Parameter(rng.normal(size=4) * 1e-305),
    ]


def _run(kind: str):
    """400 zero-gradient steps from a state of 1e-300, then 20 steps of
    random gradients, on the flat optimizer and on the unflushed reference."""
    rng = np.random.default_rng(3)
    params = _parameters(rng)
    shapes = [p.shape for p in params]
    ref = _Reference(kind, shapes, lr=0.01, momentum=0.9)
    datas = [p.data.copy() for p in params]
    ref.m = [np.full(s, 1e-300) for s in shapes]
    if kind == "adam":
        opt = Adam(params, lr=0.01)
        ref.v = [np.full(s, 1e-20) for s in shapes]
        ref.t = 100
        opt.load_state_dict({**opt.state_dict(), "m": ref.m, "v": ref.v, "t": ref.t})
        state = lambda: opt._m  # noqa: E731
    else:
        opt = SGD(params, lr=0.01, momentum=0.9)
        opt.load_state_dict({**opt.state_dict(), "velocity": ref.m})
        state = lambda: opt._velocity  # noqa: E731
    ref.m = [m.copy() for m in ref.m]
    for step in range(420):
        grads = [np.zeros(s) if step < 400 else rng.normal(size=s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        ref.step(datas, grads)
        if step == 399:
            assert not _subnormal(state()).any()
            assert all(_subnormal(m).all() for m in ref.m)  # what the flush spares
            _assert_equal_where_normal(params, datas, tiny_moved=True)
    assert not _subnormal(state()).any()
    _assert_equal_where_normal(params, datas, tiny_moved=False)


def _assert_equal_where_normal(params, datas, tiny_moved: bool):
    for p, want in zip(params, datas):
        normal = np.abs(want) > 1e-280
        assert np.array_equal(p.data[normal], want[normal])
    if tiny_moved:  # the 1e-305 entries: subnormal updates move them
        assert not normal.any() and not np.array_equal(p.data, want)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_a_zero_gradient_leaves_no_subnormal_state(kind):
    _run(kind)
