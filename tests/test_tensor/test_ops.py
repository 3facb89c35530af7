"""Gradient checks for every autograd primitive against finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck
from repro.tensor import functional as F
from repro.tensor.tensor import concatenate, stack, where


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestBinaryOps:
    def test_add(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert gradcheck(lambda x, y: x + y, [a, b])

    def test_sub(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert gradcheck(lambda x, y: x - y, [a, b])

    def test_mul(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert gradcheck(lambda x, y: x * y, [a, b])

    def test_div(self, rng):
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(3, 4)) + 3.0  # keep away from 0
        assert gradcheck(lambda x, y: x / y, [a, b])

    def test_rsub_rdiv_scalars(self, rng):
        a = rng.normal(size=(5,)) + 3.0
        assert gradcheck(lambda x: 2.0 - x, [a])
        assert gradcheck(lambda x: 2.0 / x, [a])

    def test_pow(self, rng):
        a = np.abs(rng.normal(size=(3, 4))) + 0.5
        assert gradcheck(lambda x: x**3.0, [a])
        assert gradcheck(lambda x: x**0.5, [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])

    def test_neg(self, rng):
        assert gradcheck(lambda x: -x, [rng.normal(size=(4,))])


class TestBroadcasting:
    def test_add_broadcast_rows(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4,))
        assert gradcheck(lambda x, y: x + y, [a, b])

    def test_mul_broadcast_cols(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 1))
        assert gradcheck(lambda x, y: x * y, [a, b])

    def test_scalar_broadcast(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=())
        assert gradcheck(lambda x, y: x * y, [a, b])

    def test_both_expand(self, rng):
        a, b = rng.normal(size=(3, 1)), rng.normal(size=(1, 4))
        assert gradcheck(lambda x, y: x + y, [a, b])


class TestMatmul:
    def test_matmul(self, rng):
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 5))
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_batched_matmul(self, rng):
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 4, 5))
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_broadcast_batched_matmul(self, rng):
        a, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5))
        assert gradcheck(lambda x, y: x @ y, [a, b])

    def test_vector_operands_rejected(self, rng):
        with pytest.raises(ValueError):
            Tensor(rng.normal(size=4)) @ Tensor(rng.normal(size=(4, 2)))


class TestElementwise:
    @pytest.mark.parametrize(
        "name",
        ["exp", "tanh", "relu", "sigmoid", "log_cosh", "abs"],
    )
    def test_unary(self, rng, name):
        a = rng.normal(size=(3, 5)) * 2.0
        a[np.abs(a) < 0.1] += 0.5  # keep relu/abs away from the kink
        assert gradcheck(lambda x: getattr(x, name)(), [a])

    def test_log(self, rng):
        a = np.abs(rng.normal(size=(3, 5))) + 0.5
        assert gradcheck(lambda x: x.log(), [a])

    def test_sqrt(self, rng):
        a = np.abs(rng.normal(size=(3, 5))) + 0.5
        assert gradcheck(lambda x: x.sqrt(), [a])

    def test_sigmoid_extreme_values_stable(self):
        t = Tensor(np.array([-1000.0, 0.0, 1000.0]))
        out = t.sigmoid().data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0)
        assert out[2] == pytest.approx(1.0)

    def test_log_sigmoid_extreme_values_stable(self):
        # log σ(z) is the Bernoulli log-likelihood of a 1
        t = Tensor(np.array([-1000.0, 1000.0]))
        out = F.bernoulli_log_prob(t, np.ones(2)).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(-1000.0)
        assert out[1] == pytest.approx(0.0)

    def test_log_cosh_matches_naive_in_safe_range(self, rng):
        x = rng.normal(size=100) * 3
        got = Tensor(x).log_cosh().data
        assert np.allclose(got, np.log(np.cosh(x)))

    def test_log_cosh_no_overflow(self):
        out = Tensor(np.array([800.0, -800.0])).log_cosh().data
        assert np.all(np.isfinite(out))
        assert np.allclose(out, 800.0 - np.log(2.0))


class TestReductions:
    def test_sum_all(self, rng):
        assert gradcheck(lambda x: x.sum(), [rng.normal(size=(3, 4))])

    def test_sum_axis(self, rng):
        assert gradcheck(lambda x: x.sum(axis=1), [rng.normal(size=(3, 4))])

    def test_sum_keepdims(self, rng):
        assert gradcheck(lambda x: x.sum(axis=0, keepdims=True), [rng.normal(size=(3, 4))])

    def test_mean(self, rng):
        assert gradcheck(lambda x: x.mean(), [rng.normal(size=(3, 4))])
        assert gradcheck(lambda x: x.mean(axis=1), [rng.normal(size=(3, 4))])

    def test_max(self, rng):
        a = rng.normal(size=(3, 4))
        assert gradcheck(lambda x: x.max(axis=1), [a])

    def test_mean_value(self, rng):
        a = rng.normal(size=(5, 7))
        assert np.allclose(Tensor(a).mean(axis=0).data, a.mean(axis=0))


class TestShapeOps:
    def test_reshape(self, rng):
        assert gradcheck(lambda x: (x.reshape(2, 6) * 2.0), [rng.normal(size=(3, 4))])

    def test_reshape_flatten(self, rng):
        assert gradcheck(lambda x: x.reshape(-1), [rng.normal(size=(3, 4))])

    def test_transpose_default(self, rng):
        assert gradcheck(lambda x: x.T * 3.0, [rng.normal(size=(3, 4))])

    def test_transpose_axes(self, rng):
        assert gradcheck(
            lambda x: x.transpose((2, 0, 1)) * 2.0, [rng.normal(size=(2, 3, 4))]
        )

    def test_getitem_slice(self, rng):
        assert gradcheck(lambda x: x[1:, :2], [rng.normal(size=(3, 4))])

    def test_getitem_int_array(self, rng):
        idx = np.array([0, 2, 2])
        assert gradcheck(lambda x: x[idx], [rng.normal(size=(4, 3))])

    def test_getitem_repeated_indices_accumulate(self):
        t = Tensor(np.zeros(3), requires_grad=True)
        out = t[np.array([1, 1, 1])]
        out.sum().backward()
        assert np.allclose(t.grad, [0.0, 3.0, 0.0])


class TestCombinators:
    def test_concatenate(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
        assert gradcheck(lambda x, y: concatenate([x, y], axis=0) * 2.0, [a, b])

    def test_stack(self, rng):
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        assert gradcheck(lambda x, y: stack([x, y], axis=1) * 2.0, [a, b])

    def test_where(self, rng):
        cond = rng.random((3, 4)) < 0.5
        a, b = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
        assert gradcheck(lambda x, y: where(cond, x, y), [a, b])
