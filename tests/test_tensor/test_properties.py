"""Property-based tests (hypothesis) for autograd invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensor import Tensor, numerical_grad
from repro.tensor import functional as F

finite_floats = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def arrays(max_side=4, max_dims=3):
    shapes = hnp.array_shapes(min_dims=1, max_dims=max_dims, min_side=1, max_side=max_side)
    return hnp.arrays(np.float64, shapes, elements=finite_floats)


@st.composite
def broadcastable_pair(draw):
    """Two shapes that numpy can broadcast together."""
    base = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=4))
    other = list(base)
    for i in range(len(other)):
        if draw(st.booleans()):
            other[i] = 1
    # Randomly drop leading axes of the second operand.
    cut = draw(st.integers(0, len(other) - 1))
    other = other[cut:] or [1]
    a = draw(hnp.arrays(np.float64, base, elements=finite_floats))
    b = draw(hnp.arrays(np.float64, tuple(other), elements=finite_floats))
    return a, b


@settings(max_examples=40, deadline=None)
@given(broadcastable_pair())
def test_add_matches_numpy_and_grads_sum_to_count(pair):
    a, b = pair
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    out = ta + tb
    assert np.array_equal(out.data, a + b)
    out.sum().backward()
    # d(sum(a+b))/da = 1 everywhere; after unbroadcast the total mass equals
    # the number of output elements for each input.
    assert ta.grad.sum() == out.data.size
    assert tb.grad.sum() == out.data.size
    assert ta.grad.shape == a.shape
    assert tb.grad.shape == b.shape


@settings(max_examples=40, deadline=None)
@given(broadcastable_pair())
def test_mul_gradient_is_other_operand(pair):
    a, b = pair
    ta = Tensor(a, requires_grad=True)
    tb = Tensor(b, requires_grad=True)
    (ta * tb).sum().backward()
    bb = np.broadcast_to(b, np.broadcast_shapes(a.shape, b.shape))
    aa = np.broadcast_to(a, np.broadcast_shapes(a.shape, b.shape))
    # Grad of a is sum-unbroadcast of b (and vice versa).
    expect_a = bb.copy()
    expect_b = aa.copy()
    # Reduce to original shapes.
    ga = _unbroadcast_sum(expect_a, a.shape)
    gb = _unbroadcast_sum(expect_b, b.shape)
    assert np.allclose(ta.grad, ga)
    assert np.allclose(tb.grad, gb)


def _unbroadcast_sum(g, shape):
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


@settings(max_examples=30, deadline=None)
@given(arrays())
def test_sum_then_backward_gives_ones(a):
    t = Tensor(a, requires_grad=True)
    t.sum().backward()
    assert np.array_equal(t.grad, np.ones_like(a))


@settings(max_examples=30, deadline=None)
@given(arrays())
def test_reshape_roundtrip_identity_gradient(a):
    t = Tensor(a, requires_grad=True)
    out = t.reshape(-1).reshape(*a.shape)
    assert np.array_equal(out.data, a)
    out.sum().backward()
    assert np.array_equal(t.grad, np.ones_like(a))


@settings(max_examples=30, deadline=None)
@given(arrays(max_side=3, max_dims=2))
def test_tanh_gradient_matches_numeric(a):
    t = Tensor(a, requires_grad=True)
    t.tanh().sum().backward()
    num = numerical_grad(lambda x: x.tanh(), [a], 0)
    assert np.allclose(t.grad, num, atol=1e-4)


@settings(max_examples=30, deadline=None)
@given(arrays())
def test_sigmoid_symmetry(a):
    """σ(x) + σ(-x) = 1 — numerical stability across the whole range."""
    t = Tensor(a)
    s1 = t.sigmoid().data
    s2 = Tensor(-a).sigmoid().data
    assert np.allclose(s1 + s2, 1.0)


@settings(max_examples=30, deadline=None)
@given(arrays())
def test_log_sigmoid_consistent_with_sigmoid(a):
    # log σ(z) is the Bernoulli log-likelihood of a 1
    t = Tensor(a)
    log_sig = F.bernoulli_log_prob(t, np.ones_like(a)).data
    assert np.allclose(log_sig, np.log(t.sigmoid().data + 1e-300), atol=1e-8)
