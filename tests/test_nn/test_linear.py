"""Linear / MaskedLinear layer behaviour."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, MaskedLinear
from repro.tensor import Tensor, gradcheck
from repro.tensor import functional as F


class TestLinear:
    def test_forward_matches_numpy(self, rng):
        layer = Linear(4, 3, rng=rng)
        x = rng.normal(size=(5, 4))
        out = layer(Tensor(x)).data
        assert np.allclose(out, x @ layer.weight.data.T + layer.bias.data)

    def test_no_bias(self, rng):
        layer = Linear(4, 3, bias=False, rng=rng)
        assert layer.bias is None
        x = rng.normal(size=(2, 4))
        assert np.allclose(layer(Tensor(x)).data, x @ layer.weight.data.T)

    def test_gradcheck_through_layer(self, rng):
        layer = Linear(3, 2, rng=rng)

        def f(w, b, x):
            from repro.tensor import functional as F

            return F.linear(x, w, b).tanh()

        assert gradcheck(
            f, [layer.weight.data, layer.bias.data, rng.normal(size=(4, 3))]
        )

    def test_weight_std_init(self, rng):
        layer = Linear(100, 100, rng=rng, weight_std=0.01)
        assert abs(layer.weight.data.std() - 0.01) < 0.002

    def test_repr(self, rng):
        assert "Linear(4, 3" in repr(Linear(4, 3, rng=rng))


class TestMaskedLinear:
    def test_mask_blocks_connections(self, rng):
        mask = np.zeros((3, 4))
        mask[0, 0] = 1.0
        layer = MaskedLinear(4, 3, mask, rng=rng, bias=False)
        x = rng.normal(size=(2, 4))
        out = layer(Tensor(x)).data
        assert np.allclose(out[:, 1:], 0.0)
        assert np.allclose(out[:, 0], x[:, 0] * layer.weight.data[0])

    def test_stores_the_connected_weights_packed(self):
        """The dense draw of a plain Linear from the same stream, gathered by
        the mask in row-major order; the stream ends where it ends."""
        mask = (np.random.default_rng(3).random((3, 4)) < 0.5).astype(float)
        dense_rng, packed_rng = np.random.default_rng(7), np.random.default_rng(7)
        dense = Linear(4, 3, rng=dense_rng)
        layer = MaskedLinear(4, 3, mask, rng=packed_rng)
        assert layer.weight.shape == (int(mask.sum()),)
        assert np.array_equal(layer.weight.data, dense.weight.data[mask != 0])
        assert np.array_equal(layer.bias.data, dense.bias.data)
        assert dense_rng.random() == packed_rng.random()

    def test_masked_weights_get_zero_gradient(self, rng):
        """Masked weights are not stored, so no gradient reaches them; the
        packed gradient is the dense one at the connected entries."""
        mask = (rng.random((3, 4)) < 0.5).astype(float)
        layer = MaskedLinear(4, 3, mask, rng=rng)
        x = rng.normal(size=(5, 4))
        layer(Tensor(x)).sum().backward()
        dense = np.ones((5, 3)).T @ x  # d(sum)/dW of x @ Wᵀ
        assert layer.weight.grad.shape == layer.weight.shape
        assert np.allclose(layer.weight.grad, dense[mask != 0])

    def test_mask_shape_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            MaskedLinear(4, 3, np.ones((4, 3)), rng=rng)

    def test_mask_must_be_binary_and_is_read_only(self, rng):
        with pytest.raises(ValueError, match="0/1"):
            MaskedLinear(2, 2, np.full((2, 2), 0.5), rng=rng)
        layer = MaskedLinear(3, 3, np.eye(3), rng=rng)
        assert not hasattr(layer, "mask")
        with pytest.raises(ValueError):
            layer.pattern[0, 1] = True

    def test_effective_weight(self, rng):
        mask = np.eye(3)
        layer = MaskedLinear(3, 3, mask, rng=rng)
        assert np.array_equal(layer.effective_weight(), np.diag(layer.weight.data))
        assert not layer.effective_weight().flags.writeable

    def test_effective_weight_follows_every_write(self, rng):
        """Scattered on every call: an in-place write with no version bump
        and a new array are both read."""
        layer = MaskedLinear(3, 3, np.tril(np.ones((3, 3))), rng=rng)
        first = layer.effective_weight()
        layer.weight.data += 1.0
        assert np.array_equal(layer.effective_weight()[np.tril_indices(3)], layer.weight.data)
        assert np.shares_memory(layer.effective_weight(), first)
        layer.weight.data = np.zeros(6)
        assert np.array_equal(layer.effective_weight(), np.zeros((3, 3)))

    def test_pattern_is_the_mask_and_read_only(self, rng):
        mask = np.tril(np.ones((3, 4)))
        layer = MaskedLinear(4, 3, mask, rng=rng)
        assert layer.pattern.dtype == bool
        assert np.array_equal(layer.pattern, mask != 0)
        with pytest.raises(ValueError):
            layer.pattern[0, 3] = True

    def test_scatter_then_gather_is_the_identity(self, rng):
        mask = rng.random((5, 7)) < 0.4
        values = rng.normal(size=int(mask.sum()))
        dense = F.scatter(Tensor(values), mask).data
        assert np.array_equal(dense[mask], values)
        assert np.array_equal(dense[~mask], np.zeros(int((~mask).sum())))
        assert not np.signbit(dense[~mask]).any()

    def test_scatter_backward_is_the_gather(self, rng):
        mask = rng.random((4, 3)) < 0.5
        values = Tensor(rng.normal(size=int(mask.sum())), requires_grad=True)
        seed = rng.normal(size=(4, 3))
        F.scatter(values, mask).backward(seed)
        assert np.array_equal(values.grad, seed[mask])

    def test_repr_counts_live_weights(self, rng):
        layer = MaskedLinear(4, 3, np.ones((3, 4)), rng=rng)
        assert "12/12" in repr(layer)
