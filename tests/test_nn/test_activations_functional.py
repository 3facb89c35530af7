"""The functional API wrappers."""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor, gradcheck
from repro.tensor import functional as F


class TestFunctionalWrappers:
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
        nothing = np.zeros((2, 4), bool)
        masked = F.masked_linear(Tensor(x), Tensor(np.empty(0)), nothing, Tensor(b)).data
        assert np.allclose(masked, np.broadcast_to(b, (3, 2)))
        every = np.ones((2, 4), bool)
        masked = F.masked_linear(Tensor(x), Tensor(w.ravel()), every, Tensor(b)).data
        assert np.allclose(masked, out)

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
