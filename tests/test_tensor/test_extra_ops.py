"""Gradient checks and semantics for the extended op set."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck
from repro.tensor.tensor import maximum, minimum


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestUnaryExtras:
    def test_log1p(self, rng):
        a = np.abs(rng.normal(size=(3, 4)))
        assert gradcheck(lambda x: x.log1p(), [a])

    def test_expm1(self, rng):
        assert gradcheck(lambda x: x.expm1(), [rng.normal(size=(3, 4))])

    def test_sin_cos(self, rng):
        a = rng.normal(size=(3, 4)) * 2
        assert gradcheck(lambda x: x.sin(), [a])
        assert gradcheck(lambda x: x.cos(), [a])

    def test_sin_cos_identity(self, rng):
        a = rng.normal(size=20)
        t = Tensor(a)
        total = (t.sin() ** 2 + t.cos() ** 2).data
        assert np.allclose(total, 1.0)

    def test_log1p_precision_near_zero(self):
        tiny = Tensor(np.array([1e-15]))
        assert tiny.log1p().data[0] == pytest.approx(1e-15, rel=1e-6)
        assert tiny.expm1().data[0] == pytest.approx(1e-15, rel=1e-6)


class TestClip:
    def test_values(self, rng):
        a = rng.normal(size=10) * 3
        out = Tensor(a).clip(-1.0, 1.0).data
        assert np.array_equal(out, np.clip(a, -1, 1))

    def test_gradient_zero_outside_bounds(self):
        t = Tensor(np.array([-5.0, 0.0, 5.0]), requires_grad=True)
        t.clip(-1.0, 1.0).sum().backward()
        assert np.array_equal(t.grad, [0.0, 1.0, 0.0])

    def test_gradcheck_interior(self, rng):
        a = rng.uniform(-0.9, 0.9, size=(3, 3))
        assert gradcheck(lambda x: x.clip(-1.0, 1.0), [a])

    def test_one_sided(self, rng):
        t = Tensor(np.array([-2.0, 2.0]), requires_grad=True)
        out = t.clip(low=0.0)
        assert np.array_equal(out.data, [0.0, 2.0])
        out.sum().backward()
        assert np.array_equal(t.grad, [0.0, 1.0])


class TestMinimumMaximum:
    def test_values(self, rng):
        a, b = rng.normal(size=6), rng.normal(size=6)
        assert np.array_equal(minimum(Tensor(a), Tensor(b)).data, np.minimum(a, b))
        assert np.array_equal(maximum(Tensor(a), Tensor(b)).data, np.maximum(a, b))

    def test_gradcheck_no_ties(self, rng):
        a = rng.normal(size=(3, 4))
        b = a + np.where(rng.random((3, 4)) < 0.5, 1.0, -1.0)  # never equal
        assert gradcheck(lambda x, y: minimum(x, y), [a, b])
        assert gradcheck(lambda x, y: maximum(x, y), [a, b])

    def test_tie_splits_gradient(self):
        a = Tensor(np.array([2.0]), requires_grad=True)
        b = Tensor(np.array([2.0]), requires_grad=True)
        maximum(a, b).backward()
        assert a.grad[0] == pytest.approx(0.5)
        assert b.grad[0] == pytest.approx(0.5)

    def test_broadcasting(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4,))
        out = maximum(Tensor(a), Tensor(b))
        assert out.shape == (3, 4)
