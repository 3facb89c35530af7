"""SGD / Adam against reference behaviour."""

from __future__ import annotations

import tracemalloc

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

    def test_in_place_step_is_bitwise_the_reference_expression(self, rng):
        """The in-place step rounds exactly as the expression it replaced
        (kept below as the oracle), across parameters of several shapes, one
        that never gets a gradient, and a state round trip mid-run."""
        shapes = [(5, 7), (7,), (3,), (4, 2)]
        params = [Parameter(rng.normal(size=s)) for s in shapes]
        ref = [p.data.copy() for p in params]
        ms = [np.zeros(s) for s in shapes]
        vs = [np.zeros(s) for s in shapes]
        lr, (b1, b2), eps = 0.03, (0.8, 0.99), 1e-8
        opt = Adam(params, lr=lr, betas=(b1, b2), eps=eps)
        for t in range(1, 31):
            if t == 13:
                fresh = Adam(params, lr=1.0)
                fresh.load_state_dict(opt.state_dict())
                opt = fresh
            grads = [rng.normal(size=s) * 10.0 ** rng.integers(-6, 3) for s in shapes]
            grads[2] = None  # untouched by the graph: no update at all
            for p, g in zip(params, grads):
                p.grad = None if g is None else g.copy()
            opt.step()
            bc1, bc2 = 1.0 - b1**t, 1.0 - b2**t
            for theta, m, v, g in zip(ref, ms, vs, grads):
                if g is None:
                    continue
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g**2
                theta -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
            for p, theta in zip(params, ref):
                assert np.array_equal(p.data, theta)
        assert all(np.array_equal(a, b) for a, b in zip(opt.state_dict()["m"], ms))
        assert all(np.array_equal(a, b) for a, b in zip(opt.state_dict()["v"], vs))

    def test_steady_state_step_allocates_no_parameter_sized_array(self, rng):
        """Every temporary of a step lives in scratch allocated once: at the
        paper's n = 256 MADE (39 834 stored parameters, the connected half of
        the paper's d = 79 258) a step's peak allocation is below the bytes of
        its smallest packed weight."""
        from repro.models import MADE

        model = MADE(256, rng=np.random.default_rng(0))
        params = list(model.parameters())
        assert sum(p.data.size for p in params) == 39_834
        opt = Adam(params)
        for p in params:
            p.grad = rng.normal(size=p.shape)
        opt.step()
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < model.fc_layers[0].weight.data.nbytes
