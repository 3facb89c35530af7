"""Optimizers over one flat vector.

An optimizer's parameters are consecutive views of one contiguous float64
vector, its state (Adam's moments, SGD's velocity) is one vector in the same
layout, and a step reads the gradient where ``Module.set_flat_grad`` bound
it. Checked here:

- flat Adam and SGD (momentum 0 and 0.9) equal the per-parameter updates
  they replaced, bit for bit, over random shapes and 20 steps, with the
  gradient bound as views of one vector or held as separate arrays;
- a parameter whose ``grad`` is ``None`` keeps its value, moments and
  velocity bit for bit;
- every ``.data`` and ``.grad`` still aliases the one vector after
  ``load_state_dict``, a checkpoint resume and a second optimizer over the
  same parameters, and the checkpoint's optimizer state keeps its
  per-parameter form.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VQMC, load_checkpoint, save_checkpoint
from repro.models import MADE
from repro.nn.module import Module, Parameter, joined
from repro.optim import SGD, Adam
from repro.samplers import AutoregressiveSampler


class _Reference:
    """The per-parameter updates the flat optimizers replaced."""

    def __init__(self, kind, shapes, lr, momentum=0.0):
        self.kind, self.lr, self.momentum = kind, lr, momentum
        self.m = [np.zeros(s) for s in shapes]
        self.v = [np.zeros(s) for s in shapes]
        self.t = 0

    def step(self, datas, grads):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        bc1, bc2 = 1.0 - b1**self.t, 1.0 - b2**self.t
        for data, g, m, v in zip(datas, grads, self.m, self.v):
            if g is None:
                continue
            if self.kind == "adam":
                m *= b1
                m += g * (1.0 - b1)
                v *= b2
                v += np.square(g) * (1.0 - b2)
                data -= (m / bc1) * self.lr / (np.sqrt(v / bc2) + eps)
            elif self.momentum == 0.0:
                data -= self.lr * g
            else:
                m *= self.momentum
                m += g
                data -= self.lr * m


def _optimizer(kind, params, lr, momentum):
    return Adam(params, lr=lr) if kind == "adam" else SGD(params, lr=lr, momentum=momentum)


KINDS = [("adam", 0.0), ("sgd", 0.0), ("sgd", 0.9)]


@pytest.mark.parametrize("kind,momentum", KINDS)
@settings(max_examples=15, deadline=None)
@given(
    shapes=st.lists(st.lists(st.integers(1, 5), max_size=3).map(tuple), min_size=1, max_size=5),
    seed=st.integers(0, 2**31 - 1),
    bound=st.booleans(),
)
def test_flat_updates_equal_the_per_parameter_ones(kind, momentum, shapes, seed, bound):
    rng = np.random.default_rng(seed)
    init = [rng.normal(size=s) for s in shapes]
    params = [Parameter(a.copy()) for a in init]
    opt = _optimizer(kind, params, 0.05, momentum)
    ref, ref_data = _Reference(kind, shapes, 0.05, momentum), [a.copy() for a in init]
    sizes = [int(np.prod(s)) for s in shapes]
    for _ in range(20):
        flat = rng.normal(size=sum(sizes))
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        grads = [part.reshape(s) for part, s in zip(parts, shapes)]
        for p, g in zip(params, grads):
            p.grad = g if bound else g.copy()  # views of one vector, or not
        opt.step()
        ref.step(ref_data, grads)
    for p, want in zip(params, ref_data):
        assert np.array_equal(p.data, want)
    state = opt.state_dict()
    for key, ref_state in (("m", ref.m), ("v", ref.v), ("velocity", ref.m)):
        if key in state and state[key] is not None:
            for got, want in zip(state[key], ref_state):
                assert np.array_equal(got, want)


@pytest.mark.parametrize("kind,momentum", [("adam", 0.0), ("sgd", 0.9)])
def test_a_parameter_without_a_gradient_keeps_its_value_and_state(kind, momentum):
    rng = np.random.default_rng(0)
    params = [Parameter(rng.normal(size=s)) for s in [(3, 2), (4,), (2, 2)]]
    opt = _optimizer(kind, params, 0.1, momentum)
    for _ in range(3):
        for p in params:
            p.grad = rng.normal(size=p.shape)
        opt.step()
    keep = params[1]
    before = opt.state_dict()
    values = [p.data.copy() for p in params]
    version = keep.version
    keep.grad = None
    opt.step()
    after = opt.state_dict()
    assert np.array_equal(keep.data, values[1]) and keep.version == version
    for key in ("m", "v", "velocity"):
        if key in after:
            assert np.array_equal(after[key][1], before[key][1])
            assert not np.array_equal(after[key][0], before[key][0])
    assert not np.array_equal(params[0].data, values[0])
    assert not np.array_equal(params[2].data, values[2])


def _aliases_one_vector(model: Module) -> np.ndarray:
    flat = joined([p.data for p in model.parameters()])
    assert flat is not None
    return flat


def _trainer(small_tim, seed=7):
    model = MADE(6, hidden=8, rng=np.random.default_rng(3))
    return VQMC(model, small_tim, AutoregressiveSampler(), Adam(model.parameters()), seed=seed)


def test_data_and_grads_alias_one_vector_through_restores(small_tim, tmp_path):
    a = _trainer(small_tim)
    flat = _aliases_one_vector(a.model)
    address = flat.__array_interface__["data"][0]

    def same_vector():
        return _aliases_one_vector(a.model).__array_interface__["data"][0] == address

    a.run(3, batch_size=16)
    assert same_vector()
    grads = [p.grad for p in a.model.parameters()]
    assert joined(grads) is not None  # the step's gradient, bound as views

    other = _trainer(small_tim, seed=11)
    other.run(2, batch_size=16)
    a.model.load_state_dict(other.model.state_dict())
    a.optimizer.load_state_dict(other.optimizer.state_dict())
    assert same_vector()

    path = tmp_path / "ckpt.npz"
    save_checkpoint(other, path)
    load_checkpoint(a, path)
    assert same_vector()

    Adam(a.model.parameters())  # a second optimizer packs nothing anew
    SGD(a.model.parameters(), momentum=0.5)
    assert same_vector()
    a.run(1, batch_size=16)
    assert same_vector()
    assert np.array_equal(a.model.flat_parameters(), flat)


def test_the_checkpoint_keeps_per_parameter_optimizer_state(small_tim, tmp_path):
    a = _trainer(small_tim)
    a.run(3, batch_size=16)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(a, path)
    state = a.optimizer.state_dict()
    shapes = [p.shape for p in a.model.parameters()]
    assert [m.shape for m in state["m"]] == shapes == [v.shape for v in state["v"]]
    b = _trainer(small_tim, seed=99)
    load_checkpoint(b, path)
    restored = b.optimizer.state_dict()
    for key in ("m", "v"):
        for got, want in zip(restored[key], state[key]):
            assert np.array_equal(got, want)
    a.run(2, batch_size=16)
    b.run(2, batch_size=16)
    assert np.array_equal(a.model.flat_parameters(), b.model.flat_parameters())
