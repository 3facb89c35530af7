"""The functional API wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.tensor import Tensor, gradcheck
from repro.tensor import functional as F


@pytest.fixture
def x(rng):
    return rng.normal(size=(4, 6)) * 2


class TestFunctionalWrappers:
    @pytest.mark.parametrize(
        "name",
        ["relu", "sigmoid", "tanh", "exp", "log1p", "expm1", "sin", "cos"],
    )
    def test_wrapper_equals_method(self, name, x):
        xs = np.abs(x) + 0.1 if name == "log1p" else x  # log1p domain: > -1
        t = Tensor(xs)
        assert np.array_equal(getattr(F, name)(t).data, getattr(t, name)().data)

    def test_log_sqrt(self, rng):
        a = np.abs(rng.normal(size=5)) + 0.5
        assert np.allclose(F.log(Tensor(a)).data, np.log(a))
        assert np.allclose(F.sqrt(Tensor(a)).data, np.sqrt(a))

    def test_clip(self, x):
        assert np.array_equal(F.clip(Tensor(x), -1, 1).data, np.clip(x, -1, 1))

    def test_minimum_maximum(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert np.array_equal(F.minimum(Tensor(a), Tensor(b)).data, np.minimum(a, b))
        assert np.array_equal(F.maximum(Tensor(a), Tensor(b)).data, np.maximum(a, b))

    def test_as_tensor_idempotent(self):
        t = Tensor(np.ones(3))
        assert F.as_tensor(t) is t
        assert isinstance(F.as_tensor([1.0, 2.0]), Tensor)

    def test_linear_and_masked_linear(self, rng):
        x = rng.normal(size=(3, 4))
        w = rng.normal(size=(2, 4))
        b = rng.normal(size=2)
        out = F.linear(Tensor(x), Tensor(w), Tensor(b)).data
        assert np.allclose(out, x @ w.T + b)
        mask = np.zeros((2, 4))
        masked = F.masked_linear(Tensor(x), Tensor(w), mask, Tensor(b)).data
        assert np.allclose(masked, np.broadcast_to(b, (3, 2)))

    def test_bernoulli_log_prob_sums_to_bernoulli(self, rng):
        logits = rng.normal(size=(5, 3))
        targets = (rng.random((5, 3)) < 0.5).astype(float)
        got = F.bernoulli_log_prob(Tensor(logits), targets).data
        p = 1 / (1 + np.exp(-logits))
        expect = targets * np.log(p) + (1 - targets) * np.log(1 - p)
        assert np.allclose(got, expect, atol=1e-10)

    def test_bernoulli_log_prob_gradcheck(self, rng):
        targets = (rng.random((4, 3)) < 0.5).astype(float)
        assert gradcheck(
            lambda z: F.bernoulli_log_prob(z, targets), [rng.normal(size=(4, 3)) * 2]
        )
