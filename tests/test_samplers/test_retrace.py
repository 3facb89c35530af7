"""The sampler's memory: rows that retrace a remembered configuration.

A row whose uniforms make a configuration's choice at every site is that
configuration, so copying it instead of drawing it changes no sample; a row
that leaves every remembered configuration is settled by whole-row
fixed-point sweeps, or drawn by the kernel when they do not converge. With
any memory at all, the sampler's output is Algorithm 1's bit for bit, the
stream ends where Algorithm 1 leaves it, and the grouping it hands the step
is ``distinct_rows(x == 1)``.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import energy as energy_module
from repro.core import vqmc as vqmc_module
from repro.core.vqmc import VQMC
from repro.hamiltonians import MaxCut
from repro.models import MADE
from repro.models import base as models_base
from repro.optim import Adam
from repro.perf import incremental as incremental_module
from repro.perf import incremental_sample
from repro.samplers import AutoregressiveSampler
from repro.samplers import autoregressive as autoregressive_module
from repro.samplers import base as samplers_base
from repro.utils import rows as rows_module
from repro.utils.rows import distinct_rows

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SETTINGS = dict(max_examples=40, deadline=None, derandomize=True)


def _made(n: int, widths: list[int], seed: int, spread: float, strategy: str) -> MADE:
    rng = np.random.default_rng(seed)
    hidden = widths if len(widths) > 1 else widths[0]
    model = MADE(n, hidden=hidden, rng=rng, mask_strategy=strategy)
    # Large weights concentrate the distribution, so batches repeat rows.
    for p in model.parameters():
        p.data += rng.normal(size=p.shape) * spread
    return model


@st.composite
def cases(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    depth = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.integers(min_value=1, max_value=20)) for _ in range(depth)]
    strategy = draw(st.sampled_from(["cycle", "random"]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    spread = draw(st.floats(min_value=0.0, max_value=4.0))
    batch = draw(st.integers(min_value=1, max_value=48))
    kind = draw(st.sampled_from(
        ["random", "own", "duplicates", "other", "neighbours", "complement", "empty"]
    ))
    return n, widths, strategy, seed, spread, batch, kind


def _memory(kind: str, model: MADE, batch: int, seed: int, naive: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(seed + 1)
    n = model.n
    if kind == "random":
        return (rng.random((3, n)) < 0.5).astype(float)
    if kind == "own":  # the batch's own rows: every copy of them retraces
        return naive[rng.permutation(batch)[:3]]
    if kind == "duplicates":
        return np.repeat(naive[:2], 2, axis=0)
    if kind == "other":  # a different MADE's draws: valid, if unlikely to match
        other = MADE(n, hidden=5, rng=rng)
        return other.sample(4, rng, method="naive")
    if kind == "neighbours":  # the batch's own rows, one bit flipped: rows leave them
        near = naive[rng.permutation(batch)[:3]].copy()
        sites = rng.integers(n, size=len(near))
        near[np.arange(len(near)), sites] = 1.0 - near[np.arange(len(near)), sites]
        return near
    if kind == "complement":  # the other side of a Max-Cut: every row leaves at once
        return 1.0 - naive[:1]
    return np.zeros((0, n))


def _assert_equals_the_naive(model, batch, seed, memory):
    slow = np.random.default_rng(seed)
    naive = model.sample(batch, slow, method="naive")
    sampler = AutoregressiveSampler()
    sampler.memory = memory
    fast = np.random.default_rng(seed)
    x, rows = sampler.draw(model, batch, fast)
    assert np.array_equal(x, naive)
    assert fast.random() == slow.random()  # the stream is where Algorithm 1 left it
    expect = distinct_rows(x == 1.0)
    assert np.array_equal(rows.first, expect.first)
    assert np.array_equal(rows.inverse, expect.inverse)
    stats = sampler.last_stats
    # sample() retraces the same memory, and leaves it as it is.
    sampler.memory = memory
    assert np.array_equal(sampler.sample(model, batch, np.random.default_rng(seed)), naive)
    assert sampler.memory is memory
    assert sampler.last_stats.extras["retraced"] == stats.extras["retraced"]
    return x, stats


@settings(**SETTINGS)
@given(case=cases())
def test_any_memory_draws_the_naive_samples_and_groups_them(case):
    n, widths, strategy, seed, spread, batch, kind = case
    model = _made(n, widths, seed, spread, strategy)
    naive = model.sample(batch, np.random.default_rng(seed), method="naive")
    memory = _memory(kind, model, batch, seed, naive)
    x, stats = _assert_equals_the_naive(model, batch, seed, memory)
    # A row retraces exactly when it is one of the remembered configurations.
    known = (x[:, None, :] == memory[None, :, :]).all(axis=2).any(axis=1)
    assert stats.extras["retraced"] == int(known.sum())
    assert 0 <= stats.extras["settled"] <= batch - stats.extras["retraced"]
    if known.all():
        assert stats.extras["settled"] == 0
    if stats.extras["retraced"] + stats.extras["settled"] == batch:
        assert stats.extras["sweeps"] == 0.0  # the kernel did not run


def _collapsed(n: int, seed: int) -> MADE:
    """Weak weights under strong output biases: nearly every row draws the
    biases' configuration, and the rows that leave it barely move the
    conditionals of the sites after."""
    rng = np.random.default_rng(seed)
    model = MADE(n, hidden=30, rng=rng)
    for p in model.parameters():
        p.data *= 0.5
    model.fc_layers[-1].bias.data[:] = np.where(rng.random(n) < 0.5, 3.0, -3.0)
    return model


@pytest.mark.parametrize("seed", range(4))
def test_a_collapsed_made_settles_every_row_that_leaves(monkeypatch, seed):
    """Rows leaving the remembered mode are settled by whole-row sweeps: the
    kernel is never called, and the draw is still Algorithm 1's."""
    model = _collapsed(24, seed)
    mode = (model.fc_layers[-1].bias.data > 0.0).astype(float)[None]

    def never(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(incremental_module, "_kernel", never)
    x, stats = _assert_equals_the_naive(model, 64, seed, mode)
    assert stats.extras["settled"] > 0
    assert stats.extras["retraced"] + stats.extras["settled"] == 64


@pytest.mark.parametrize("seed", range(4))
def test_rows_the_sweeps_leave_unsettled_fall_back_to_the_kernel(monkeypatch, seed):
    """A random memory of a spread-out MADE at n = 40: ``SETTLE_SWEEPS``
    whole-row sweeps settle some rows, the kernel draws the rest, and the
    sweeps' forward passes are counted."""
    model = _made(40, [60], seed, 2.0, "cycle")
    memory = (np.random.default_rng(seed + 1).random((3, 40)) < 0.5).astype(float)
    kernel_rows = []
    kernel = incremental_module._kernel

    def counting(reach, weights, biases, uniforms, free, clamp):
        kernel_rows.append(uniforms.shape[1])
        return kernel(reach, weights, biases, uniforms, free, clamp)

    monkeypatch.setattr(incremental_module, "_kernel", counting)
    x, stats = _assert_equals_the_naive(model, 48, seed, memory)
    settled = stats.extras["settled"]
    assert kernel_rows[0] == 48 - settled > 0 and settled > 0
    result = incremental_sample(model, 48, np.random.default_rng(seed), memory=memory)
    assert result.settled == settled and np.array_equal(result.samples, x)
    row_macs = 40 * 60 + 60 * 40
    # The memory's pass, at least one sweep over all 48 rows and
    # SETTLE_SWEEPS over the rows the kernel drew, then the kernel's GEMMs.
    swept = 48 + (incremental_module.SETTLE_SWEEPS - 1) * (48 - settled)
    assert result.macs > (3 + swept) * row_macs


def test_a_memory_does_not_take_a_clamp():
    model = _made(6, [8], seed=6, spread=1.0, strategy="cycle")
    with pytest.raises(ValueError, match="unclamped"):
        incremental_sample(model, 4, np.random.default_rng(0),
                           clamp=np.full(6, np.nan), memory=np.zeros((1, 6)))


def test_a_remembered_batch_retraces_whole():
    """A concentrated MADE: the second call copies every row it can, pays a
    forward pass per remembered row, and reports no sweeps when the kernel
    does not run."""
    model = _made(24, [30], seed=4, spread=6.0, strategy="cycle")
    sampler = AutoregressiveSampler()
    rng = np.random.default_rng(5)
    sampler.draw(model, 64, rng)
    assert 1 <= len(sampler.memory) <= autoregressive_module.MEMORY
    before = sampler.memory
    seed_state = rng.bit_generator.state
    x, rows = sampler.draw(model, 64, rng)
    stats = sampler.last_stats
    retraced = stats.extras["retraced"]
    assert retraced >= 64 * autoregressive_module.COVERAGE
    row_macs = 24 * 30 + 30 * 24
    if retraced == 64:
        assert stats.extras["sweeps"] == 0.0
        assert stats.extras["macs"] == len(before) * row_macs
    # The same uniforms through the kernel alone give the same rows.
    rng.bit_generator.state = seed_state
    assert np.array_equal(incremental_sample(model, 64, rng).samples, x)
    assert rows.count == distinct_rows(x == 1.0).count


def test_memory_of_another_length_is_ignored():
    """One sampler shared by two MADEs of different n stays exact."""
    small = _made(6, [10], seed=1, spread=5.0, strategy="cycle")
    large = _made(9, [12], seed=2, spread=5.0, strategy="cycle")
    sampler = AutoregressiveSampler()
    for k in range(4):
        model = (small, large)[k % 2]
        x, _ = sampler.draw(model, 32, np.random.default_rng(k))
        assert len(sampler.memory)  # each model's batch is remembered in turn
        assert np.array_equal(x, model.sample(32, np.random.default_rng(k), method="naive"))


def test_the_memory_keeps_the_most_frequent_rows_that_cover_the_batch():
    m, coverage = autoregressive_module.MEMORY, autoregressive_module.COVERAGE
    width = m + 2
    configs = np.eye(width)
    # m configurations drawn c times each cover the batch; one more drew
    # twice and one once, and neither is among the m most frequent.
    c = int(np.ceil(3 * coverage / ((1 - coverage) * m))) + 2
    x = np.repeat(configs, [c] * m + [2, 1], axis=0)
    assert m * c >= coverage * len(x)
    kept = autoregressive_module._remember(x, distinct_rows(x == 1.0))
    assert np.array_equal(kept, configs[:m])
    # Rows drawn once each (two sites set) until the m fall short of it.
    pairs = np.array([np.eye(width)[i] + np.eye(width)[j]
                      for i in range(width) for j in range(i + 1, width)])
    short = np.concatenate([x, pairs[: int(np.ceil(m * c / coverage)) - len(x) + 1]])
    assert m * c < coverage * len(short)
    assert autoregressive_module._remember(short, distinct_rows(short == 1.0)).size == 0
    spread = np.eye(4)
    assert autoregressive_module._remember(spread, distinct_rows(spread == 1.0)).shape == (0, 4)


def test_a_drawn_row_equal_to_a_retraced_one_is_grouped_with_it():
    """Inside a rounding window the kernel may draw a remembered row; the
    grouping is still ``distinct_rows``'s."""
    x = np.array([[1, 0], [0, 0], [1, 0], [0, 1], [0, 0]], dtype=float)
    followed = np.array([0, -1, -1, -1, 1])
    rows = autoregressive_module._group(x, followed)
    expect = distinct_rows(x == 1.0)
    assert np.array_equal(rows.first, expect.first)
    assert np.array_equal(rows.inverse, expect.inverse)


def _collapsing_run(sampler, steps: int = 80):
    ham = MaxCut.random(16, seed=3)
    model = MADE(16, rng=np.random.default_rng(0))
    vqmc = VQMC(model, ham, sampler, Adam(model.parameters(), lr=0.05), seed=1)
    retraced = []
    for _ in range(steps):
        vqmc.step(batch_size=64)
        retraced.append(sampler.last_stats.extras.get("retraced", 0))
    digest = hashlib.sha256(model.flat_parameters().tobytes()).hexdigest()
    return digest, retraced


def test_a_collapsing_run_ends_where_the_naive_sampler_takes_it():
    fast, retraced = _collapsing_run(AutoregressiveSampler())
    naive, _ = _collapsing_run(AutoregressiveSampler("naive"))
    assert fast == naive
    assert max(retraced) > 0


def test_the_step_groups_nothing_outside_the_sampler(monkeypatch):
    """The sampler's draw is where a batch is grouped: no layer of the step
    hashes it again, and a batch that retraces whole is hashed by no one."""
    calls = {"draw": 0, "step": 0}
    inside = []

    def counting(rows):
        calls["draw" if inside else "step"] += 1
        return distinct_rows(rows)

    for module in (rows_module, models_base, energy_module, vqmc_module,
                   samplers_base, autoregressive_module):
        if hasattr(module, "distinct_rows"):
            monkeypatch.setattr(module, "distinct_rows", counting)
    sampler = AutoregressiveSampler()
    draw = sampler.draw

    def traced_draw(*args):
        inside.append(1)
        try:
            return draw(*args)
        finally:
            inside.pop()

    sampler.draw = traced_draw
    ham = MaxCut.random(16, seed=3)
    model = MADE(16, rng=np.random.default_rng(0))
    vqmc = VQMC(model, ham, sampler, Adam(model.parameters(), lr=0.05), seed=1)
    whole = []
    for _ in range(80):
        before = calls["draw"]
        vqmc.step(batch_size=64)
        if sampler.last_stats.extras["retraced"] == 64:
            whole.append(calls["draw"] - before)
    assert calls["step"] == 0
    assert whole and set(whole) == {0}
