"""SGD / Adam against reference behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.optim import SGD, Adam


def quadratic_param(start=5.0):
    return Parameter(np.array([start]))


class TestSGD:
    def test_single_step(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        p.grad = np.array([2.0])
        opt.step()
        assert p.data[0] == pytest.approx(5.0 - 0.2)

    def test_none_grad_skipped(self):
        p = quadratic_param()
        SGD([p], lr=0.1).step()
        assert p.data[0] == 5.0

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            p.grad = 2.0 * p.data  # f = x²
            opt.step()
        assert abs(p.data[0]) < 1e-6

    def test_momentum_accelerates(self):
        def run(momentum):
            p = quadratic_param()
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(50):
                p.grad = 2.0 * p.data
                opt.step()
            return abs(p.data[0])

        assert run(0.9) < run(0.0)

    def test_state_dict_roundtrip(self):
        p = quadratic_param()
        opt = SGD([p], lr=0.1, momentum=0.5)
        p.grad = np.array([1.0])
        opt.step()
        state = opt.state_dict()
        opt2 = SGD([p], lr=0.9, momentum=0.1)
        opt2.load_state_dict(state)
        assert opt2.lr == 0.1 and opt2.momentum == 0.5
        assert np.allclose(opt2._velocity[0], opt._velocity[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=-1.0)
        with pytest.raises(ValueError):
            SGD([quadratic_param()], lr=0.1, momentum=1.5)


class TestAdam:
    def test_first_step_size_is_lr(self):
        """With bias correction, the first Adam step ≈ lr·sign(grad)."""
        p = quadratic_param()
        opt = Adam([p], lr=0.01)
        p.grad = np.array([123.0])
        opt.step()
        assert p.data[0] == pytest.approx(5.0 - 0.01, abs=1e-6)

    def test_converges_on_quadratic(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.1)
        for _ in range(500):
            p.grad = 2.0 * p.data
            opt.step()
        assert abs(p.data[0]) < 1e-3

    def test_matches_reference_implementation(self, rng):
        """Bitwise comparison against a hand-rolled Adam for 20 steps."""
        theta = rng.normal(size=7)
        grads = rng.normal(size=(20, 7))
        p = Parameter(theta.copy())
        opt = Adam([p], lr=0.05, betas=(0.9, 0.999), eps=1e-8)

        m = np.zeros(7)
        v = np.zeros(7)
        ref = theta.copy()
        for t, g in enumerate(grads, start=1):
            p.grad = g.copy()
            opt.step()
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g**2
            mh = m / (1 - 0.9**t)
            vh = v / (1 - 0.999**t)
            ref -= 0.05 * mh / (np.sqrt(vh) + 1e-8)
        assert np.allclose(p.data, ref, atol=1e-12)

    def test_state_dict_roundtrip(self):
        p = quadratic_param()
        opt = Adam([p], lr=0.01)
        p.grad = np.array([1.0])
        opt.step()
        opt2 = Adam([p], lr=0.5)
        opt2.load_state_dict(opt.state_dict())
        assert opt2._t == 1 and opt2.lr == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            Adam([quadratic_param()], betas=(1.0, 0.9))
