"""A MADE stores only the weights its masks connect.

Every gradient path hands out the packed gradient — the dense gradient at
the connected entries, row-major — and each agrees with a test-local dense
oracle that multiplies ``x @ (W∘M)ᵀ`` with ``W`` a dense leaf: the autograd
tape through ``log_psi``, and ``log_psi_and_grads`` on every row and on the
distinct rows (``per_sample_grads``) — each through the weighted backward
of its factored ``O`` and through the dense ``np.asarray(O)``. The dense
``W∘M`` is scattered on every read, except inside a step, which scatters
each layer once and lets go of it before the optimizer writes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import per_sample_grads
from repro.models import MADE
from repro.models.made import default_hidden_size, made_num_parameters
from repro.tensor import Tensor
from repro.tensor import functional as F

SETTINGS = dict(max_examples=25, deadline=None, derandomize=True)


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    depth = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.integers(min_value=1, max_value=20)) for _ in range(depth)]
    strategy = draw(st.sampled_from(["cycle", "random"]))
    batch = draw(st.integers(min_value=1, max_value=24))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return n, widths, strategy, batch, seed


def _model(n, widths, strategy, seed) -> MADE:
    rng = np.random.default_rng(seed)
    model = MADE(n, hidden=widths, rng=rng, mask_strategy=strategy)
    for p in model.parameters():
        p.data += rng.normal(size=p.shape) * 0.5
    return model


def _dense_oracle(model: MADE, x: np.ndarray, seed: np.ndarray) -> np.ndarray:
    """``∇ (seed · log ψ(x))`` through dense weight leaves ``W`` multiplied
    by the mask, gathered to the connected entries in the flat layout."""
    weights = [Tensor(layer.effective_weight().copy(), requires_grad=True)
               for layer in model.fc_layers]
    biases = [Tensor(layer.bias.data.copy(), requires_grad=True) for layer in model.fc_layers]
    h = Tensor(x)
    for i, layer in enumerate(model.fc_layers):
        h = h @ (weights[i] * Tensor(layer.pattern)).T + biases[i]
        if i < len(weights) - 1:
            h = h.relu()
    log_psi = F.bernoulli_log_prob(h, x).sum(axis=1) * 0.5
    (log_psi * Tensor(seed)).sum().backward()
    parts = []
    for w, b, layer in zip(weights, biases, model.fc_layers):
        parts += [w.grad[layer.pattern], b.grad]
    return np.concatenate(parts)


@settings(**SETTINGS)
@given(case=cases())
def test_every_gradient_path_is_the_dense_gradient_at_the_connected_entries(case):
    n, widths, strategy, batch, seed = case
    model = _model(n, widths, strategy, seed)
    rng = np.random.default_rng(seed)
    x = (rng.random((batch, n)) < 0.5).astype(np.float64)
    w = rng.normal(size=batch)
    want = _dense_oracle(model, x, w)
    d = model.num_parameters()
    assert want.shape == (d,)
    scale = max(float(np.max(np.abs(want))), 1e-300)

    def close(got):
        assert got.shape == (d,)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * scale)

    model.zero_grad()
    (model.log_psi(x) * Tensor(w)).sum().backward()
    close(model.flat_grad())
    for _, o in (model.log_psi_and_grads(x), per_sample_grads(model, x)[:2]):
        close(w @ o)
        close(w @ np.asarray(o))


@pytest.mark.parametrize("n", [10, 16, 64, 256])
def test_num_parameters_is_the_connected_count(n):
    """One hidden layer: the masks connect hn of the 2hn weights, for the
    ``'cycle'`` and the ``'random'`` degrees alike; ``made_num_parameters``
    stays the paper's dense d."""
    h = default_hidden_size(n)
    for strategy in ("cycle", "random"):
        model = MADE(n, rng=np.random.default_rng(0), mask_strategy=strategy)
        connected = sum(int(np.count_nonzero(layer.pattern)) for layer in model.fc_layers)
        assert connected == h * n
        assert model.num_parameters() == h * n + h + n == model.flat_parameters().size
    assert made_num_parameters(n) == 2 * h * n + h + n


def test_counts_at_the_paper_sizes():
    assert [made_num_parameters(n) for n in (64, 256, 10**4)] == [11158, 79258, 8490424]
    assert MADE(64, rng=np.random.default_rng(0)).num_parameters() == 5654
    assert MADE(256, rng=np.random.default_rng(0)).num_parameters() == 39834


def test_the_flat_vector_round_trips_through_the_packed_layers(rng):
    model = MADE(7, hidden=[9, 5], rng=rng)
    flat = rng.normal(size=model.num_parameters())
    model.set_flat_parameters(flat)
    assert np.array_equal(model.flat_parameters(), flat)
    at = 0
    for layer in model.fc_layers:
        eff = layer.effective_weight()
        assert np.array_equal(eff[layer.pattern], flat[at:at + layer.weight.size])
        assert not eff[~layer.pattern].any()
        at += layer.weight.size + layer.bias.size


def test_every_kernel_reads_weights_written_in_place(rng):
    """After the kernels have run once, ``p.data += ...`` with no version
    bump is still what the sampler, the flip kernel and
    ``log_psi_and_grads`` compute with: each agrees with a fresh model
    holding the same weights."""
    from repro.perf.flips import flip_log_ratios
    from repro.perf.incremental import incremental_sample

    model = MADE(9, hidden=[11, 7], rng=np.random.default_rng(3))
    x = (rng.random((6, 9)) < 0.5).astype(float)
    sites = np.arange(9)
    incremental_sample(model, 4, np.random.default_rng(0))
    flip_log_ratios(model, sites, x)
    model.log_psi_and_grads(x)
    for p in model.parameters():
        p.data += rng.normal(size=p.shape)
    fresh = MADE(9, hidden=[11, 7], rng=np.random.default_rng(3))
    fresh.set_flat_parameters(model.flat_parameters())

    got = incremental_sample(model, 32, np.random.default_rng(5)).samples
    want = incremental_sample(fresh, 32, np.random.default_rng(5)).samples
    assert np.array_equal(got, want)
    assert np.array_equal(flip_log_ratios(model, sites, x), flip_log_ratios(fresh, sites, x))
    log_psi, o = model.log_psi_and_grads(x)
    fresh_log_psi, fresh_o = fresh.log_psi_and_grads(x)
    assert np.array_equal(log_psi, fresh_log_psi)
    assert np.array_equal(np.asarray(o), np.asarray(fresh_o))
    assert np.allclose(log_psi, model.log_psi(x).data, rtol=0, atol=1e-12)


def _scatters(monkeypatch) -> list:
    """Record the layer of every ``effective_weight`` call that scatters."""
    from repro.nn.linear import MaskedLinear

    calls, read = [], MaskedLinear.effective_weight

    def counting(layer):
        if layer._held is None:
            calls.append(layer)
        return read(layer)

    monkeypatch.setattr(MaskedLinear, "effective_weight", counting)
    return calls


def test_a_step_scatters_each_layer_once(monkeypatch, small_tim):
    """The sampler, the gradient and the flip kernel of one step read one
    scatter of each ``W∘M``, and the optimizer's write is read after it."""
    from repro.core import VQMC
    from repro.optim import Adam
    from repro.samplers import AutoregressiveSampler

    model = MADE(6, hidden=[12, 9], rng=np.random.default_rng(0))
    vqmc = VQMC(model, small_tim, AutoregressiveSampler(), Adam(model.parameters()), seed=1)
    calls = _scatters(monkeypatch)
    for _ in range(3):
        calls.clear()
        vqmc.step(batch_size=32)
        assert calls == model.fc_layers
        for layer in model.fc_layers:
            assert np.array_equal(layer.effective_weight()[layer.pattern], layer.weight.data)


def test_a_step_that_raises_leaves_nothing_held(monkeypatch, small_tim):
    from repro.core import VQMC
    from repro.core import vqmc as vqmc_module
    from repro.optim import Adam
    from repro.samplers import AutoregressiveSampler

    def failing(*args, **kwargs):
        raise RuntimeError("local energies failed")

    model = MADE(6, hidden=12, rng=np.random.default_rng(0))
    vqmc = VQMC(model, small_tim, AutoregressiveSampler(), Adam(model.parameters()), seed=1)
    monkeypatch.setattr(vqmc_module, "local_energies", failing)
    with pytest.raises(RuntimeError, match="local energies failed"):
        vqmc.step(batch_size=32)
    for layer in model.fc_layers:
        assert layer._held is None and not layer._hold
        layer.weight.data += 1.0
        assert np.array_equal(layer.effective_weight()[layer.pattern], layer.weight.data)


def test_a_nested_hold_keeps_the_outer_scatter():
    from repro.nn.linear import weights_held

    model = MADE(5, hidden=7, rng=np.random.default_rng(2))
    layer = model.fc_layers[0]
    with weights_held(model):
        held = layer.effective_weight().copy()
        with weights_held(model):
            layer.weight.data += 1.0
            assert np.array_equal(layer.effective_weight(), held)
        assert np.array_equal(layer.effective_weight(), held)
    assert np.array_equal(layer.effective_weight()[layer.pattern], layer.weight.data)


def _dense_layout(model: MADE, flat: np.ndarray) -> np.ndarray:
    """``flat`` with every packed weight scattered into its dense matrix:
    the vector a MADE storing dense weights would hold, zeros included."""
    parts, at = [], 0
    for layer in model.fc_layers:
        size = layer.weight.size
        dense = np.zeros(layer.pattern.shape)
        dense[layer.pattern] = flat[at:at + size]
        parts += [dense.ravel(), flat[at + size:at + size + layer.bias.size]]
        at += size + layer.bias.size
    return np.concatenate(parts)


#: The reductions over the flat gradient — ``StepResult.grad_norm`` and the
#: ``max_grad_norm`` clipping norm, both ``np.linalg.norm(grad)`` — sum the
#: squares without the masked zeros and so in another order. Over 200 steps
#: of ``tim256``, ``maxcut256``, ``sr64`` and ``converge_chain10`` at seed 0
#: the packed grad_norm differed from the dense one in 303 of 800 steps, by
#: at most 4.7e-16 relative (about 2 ulp); this pins it at 1e-15.
NORM_RTOL = 1e-15


@pytest.mark.parametrize("clip", [None, 1e-3])
def test_the_norms_over_the_flat_gradient_move_by_roundoff_only(clip, small_tim):
    from repro.core import VQMC, VQMCConfig
    from repro.optim import Adam
    from repro.samplers import AutoregressiveSampler

    model = MADE(6, hidden=12, rng=np.random.default_rng(0))
    vqmc = VQMC(
        model, small_tim, AutoregressiveSampler(), Adam(model.parameters()), seed=1,
        config=VQMCConfig(batch_size=64, max_grad_norm=clip),
    )
    for _ in range(20):
        result = vqmc.step()
        grad = model.flat_grad()
        dense = np.linalg.norm(_dense_layout(model, grad))
        assert abs(result.grad_norm - dense) <= NORM_RTOL * dense
        if clip is not None:  # every step clips here: the norm is the bound
            assert abs(result.grad_norm - clip) <= NORM_RTOL * clip
