"""One forward a step: the flip kernel reads the gradient's forward pass.

``per_sample_grads`` returns, for a MADE, the activations its closed form
computed on the batch's distinct rows, and ``VQMC.step`` hands them to
``local_energies`` and the flip kernel, which then runs no forward of its
own. The kernel's own forward (for callers without a gradient) is the same
computation, so the two give the same bits. When a block's odds products
leave ``[PROD_MIN, PROD_MAX]`` the kernel sums logs instead; it counts those
blocks, and the step reports the count.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import VQMC
from repro.core.energy import local_energies, per_sample_grads
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE, RBM
from repro.obs import Metrics, Tracer
from repro.optim import Adam
from repro.perf import flips
from repro.perf.flips import fallback_blocks, flip_log_ratios, forward_cache
from repro.samplers import AutoregressiveSampler, MetropolisSampler
from repro.utils.rows import distinct_rows
from tests.test_perf.flip_oracle import per_site_flip_log_ratios


@st.composite
def shared_cases(draw):
    """A MADE of depth 1–3 under either mask strategy, and a batch of its
    configurations with repeats."""
    n = draw(st.integers(1, 10))
    widths = [draw(st.integers(1, 16)) for _ in range(draw(st.integers(1, 3)))]
    strategy = draw(st.sampled_from(["cycle", "random"]))
    seed = draw(st.integers(0, 2**31 - 1))
    distinct = draw(st.integers(1, 6))
    rng = np.random.default_rng(seed)
    model = MADE(n, hidden=widths if len(widths) > 1 else widths[0], rng=rng,
                 mask_strategy=strategy)
    for p in model.parameters():
        p.data += rng.normal(size=p.shape) * 0.7
    rows = (rng.random((distinct, n)) < 0.5).astype(float)
    x = rows[rng.integers(0, distinct, size=2 * distinct + 1)]
    return model, x, seed


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=shared_cases())
def test_the_gradients_forward_gives_the_kernels_own_ratios(case):
    model, x, seed = case
    _, _, forward = per_sample_grads(model, x)
    rows = distinct_rows(x == 1.0)
    distinct = x[rows.first]
    sites = np.random.default_rng(seed).integers(0, model.n, size=2 * model.n)
    shared = flip_log_ratios(model, sites, distinct, forward)
    own = flip_log_ratios(model, sites, distinct)
    assert np.array_equal(shared, own)
    ham = TransverseFieldIsing.random(model.n, seed=seed % 1000)
    assert np.array_equal(
        local_energies(model, ham, x, rows=rows, forward=forward),
        local_energies(model, ham, x),
    )


def _raise(*args, **kwargs):
    raise AssertionError("the flip kernel ran its own forward pass")


def test_a_step_runs_no_second_forward(monkeypatch):
    n = 8
    model = MADE(n, rng=np.random.default_rng(0))
    ham = TransverseFieldIsing.random(n, seed=1)
    vqmc = VQMC(model, ham, AutoregressiveSampler(), Adam(model.parameters()), seed=2)
    forwards = []
    activations = model.activations
    monkeypatch.setattr(model, "activations", lambda x: forwards.append(1) or activations(x))
    monkeypatch.setattr(flips, "_forward", _raise)
    for _ in range(3):
        assert vqmc.step(batch_size=32).energy_path == "fused"
    assert len(forwards) == 3  # the gradient's, one a step
    # Without a gradient to take it from, the kernel runs its own.
    x = np.zeros((2, n))
    with pytest.raises(AssertionError, match="own forward"):
        local_energies(model, ham, x)


def test_a_forward_needs_its_rows():
    model = MADE(4, rng=np.random.default_rng(0))
    ham = TransverseFieldIsing.random(4, seed=0)
    x = np.zeros((3, 4))
    _, _, forward = per_sample_grads(model, x)
    with pytest.raises(ValueError, match="rows"):
        local_energies(model, ham, x, forward=forward)
    with pytest.raises(ValueError, match="shape"):
        flip_log_ratios(model, np.arange(4), np.zeros((2, 4)), forward)


def _forced(model, x, site):
    """Scale one output weight so that flipping ``site`` of row 0 moves one
    logit by ~2 000 in the direction that overflows ``e^{−δ}``."""
    y = x[:1].copy()
    y[0, site] = 1.0 - y[0, site]
    moved = forward_cache(model, y).hiddens[0][0] - forward_cache(model, x[:1]).hiddens[0][0]
    out = model.fc_layers[-1]
    for unit in np.argsort(-np.abs(moved)):
        later = np.flatnonzero(out.pattern[site + 1 :, unit]) + site + 1
        if abs(moved[unit]) > 1e-3 and later.size:
            break
    else:
        raise AssertionError("no hidden unit carries the flip to a later output")
    i = later[0]
    bit = 2.0 * x[0, i] - 1.0  # δ = bit · Δz; e^{−δ} overflows for δ < −709
    packed = np.flatnonzero(out.pattern.ravel()).searchsorted(i * out.pattern.shape[1] + unit)
    out.weight.data[packed] = -bit * np.sign(moved[unit]) * 2000.0 / abs(moved[unit])


def test_the_range_fallback_is_counted_and_stays_exact():
    n = 6
    rng = np.random.default_rng(4)
    model = MADE(n, hidden=8, rng=rng)
    x = (rng.random((3, n)) < 0.5).astype(float)
    sites = np.arange(n)
    before = fallback_blocks()
    flip_log_ratios(model, sites, x)
    assert fallback_blocks() == before  # ordinary weights: every product in range
    _forced(model, x, site=0)
    before = fallback_blocks()
    got = flip_log_ratios(model, sites, x)
    assert fallback_blocks() - before == 1  # n = 6: all the sites are one block
    want = per_site_flip_log_ratios(model, sites, x)[0]
    finite = np.isfinite(got) & np.isfinite(want)
    assert not finite[0, 0] and finite[:, 1:].all()  # only the forced site overflows
    np.testing.assert_allclose(got[finite], want[finite], rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("ansatz", ["made", "rbm"])
def test_the_step_reports_its_forward_and_fallbacks(monkeypatch, ansatz):
    n = 6
    rng = np.random.default_rng(0)
    if ansatz == "made":
        model, sampler, forward = MADE(n, rng=rng), AutoregressiveSampler(), "gradient"
    else:
        model, sampler, forward = RBM(n, rng=rng), MetropolisSampler(), "own"
    ham = TransverseFieldIsing.random(n, seed=1)
    metrics, tracer = Metrics(), Tracer()
    vqmc = VQMC(model, ham, sampler, Adam(model.parameters()), seed=1,
                metrics=metrics, tracer=tracer)
    vqmc.step(batch_size=16)
    monkeypatch.setattr(flips, "PROD_MAX", 0.0)  # every block falls back
    before = fallback_blocks()
    vqmc.step(batch_size=16)
    fell = fallback_blocks() - before
    assert (fell > 0) == (ansatz == "made")
    spans = [e for e in tracer.events if e.name == "local_energy"]
    assert [e.attrs["forward"] for e in spans] == [forward, forward]
    assert [e.attrs["fallbacks"] for e in spans] == [0, fell]
    counted = metrics.snapshot()["counters"].get("energy.flip_fallback_blocks", 0)
    assert counted == fell
