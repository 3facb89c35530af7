"""Graph-level autograd behaviour: accumulation, reuse, detach, no_grad."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled


class TestBackwardBasics:
    def test_scalar_chain(self):
        x = Tensor(2.0, requires_grad=True)
        y = (x * 3.0 + 1.0) * x  # y = 3x² + x, dy/dx = 6x + 1 = 13
        y.backward()
        assert x.grad == pytest.approx(13.0)

    def test_tensor_used_twice_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = (x * 2.0).sum() + (x * 5.0).sum()
        y.backward()
        assert np.allclose(x.grad, 7.0)

    def test_backward_without_requires_grad_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            (x * 2.0).sum().backward()

    def test_seed_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x * 2.0
        y.backward(np.array([1.0, 10.0, 100.0]))
        assert np.allclose(x.grad, [2.0, 20.0, 200.0])

    def test_seed_gradient_shape_mismatch(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError):
            (x * 2.0).backward(np.ones(4))

    def test_repeated_backward_accumulates_into_grad(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        (x * 3.0).backward()
        assert x.grad == pytest.approx(5.0)

    def test_zero_grad(self):
        x = Tensor(1.0, requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_no_recursion_error(self):
        x = Tensor(1.0, requires_grad=True)
        y = x
        for _ in range(5000):
            y = y * 1.0001
        y.backward()
        assert x.grad is not None and np.isfinite(x.grad)

    def test_diamond_graph(self):
        # x → a, b → c: each path contributes once
        x = Tensor(3.0, requires_grad=True)
        a = x * 2.0
        b = x * 5.0
        c = a * b  # c = 10 x², dc/dx = 20x = 60
        c.backward()
        assert x.grad == pytest.approx(60.0)


class TestDetachAndNoGrad:
    def test_no_grad_records_nothing(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            y = x * 3.0
        assert not y.requires_grad
        assert y._backward is None

    def test_no_grad_nesting_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_is_thread_local(self):
        """A no_grad section in one thread must not leak into another."""
        seen = {}
        barrier = threading.Barrier(2)

        def disable_then_wait():
            with no_grad():
                barrier.wait()
                barrier.wait()

        def check_enabled():
            barrier.wait()
            seen["enabled"] = is_grad_enabled()
            barrier.wait()

        t1 = threading.Thread(target=disable_then_wait)
        t2 = threading.Thread(target=check_enabled)
        t1.start(), t2.start()
        t1.join(), t2.join()
        assert seen["enabled"] is True


class TestProtocol:
    def test_repr_and_shape(self):
        t = Tensor(np.zeros((2, 3)), name="w")
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert "w" in repr(t)

    def test_item_and_len(self):
        assert Tensor(5.0).item() == 5.0
        assert len(Tensor(np.zeros(4))) == 4

    def test_data_is_float64(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float64
