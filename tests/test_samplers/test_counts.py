"""The memory's draw as counts: exact in distribution, with the naive
sampler as the oracle.

Given a memory, ``incremental_sample`` draws how many samples end at each
remembered configuration and how many leave the memory's prefix trie, and
where, from one multinomial; only the samples that leave get uniforms. The
batch is then not the naive sampler's bit for bit, so it is held to the
enumerated ``|ψ|²`` (n ≤ 10) by χ², and to the properties that make the
counts a sample: they sum to the batch, each remembered configuration's
mean count is its probability times the batch, the trie's exits carry the
mass of the sites they leave at, a row that leaves keeps its forced prefix,
and the rows are placed uniformly. With no memory the draw is still the
naive sampler's, bit for bit.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from scipy import stats

from repro.models import MADE
from repro.perf import incremental as incremental_module
from repro.perf import incremental_sample
from repro.samplers import AutoregressiveSampler

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


class CountingGenerator:
    """A ``Generator`` that records the shape of every ``random`` draw."""

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self.shapes: list[tuple[int, ...]] = []

    def random(self, size=None, *args, **kwargs):
        self.shapes.append(() if size is None else tuple(np.atleast_1d(size)))
        return self._rng.random(size, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _scaled_made(n: int, seed: int, scale: float) -> MADE:
    model = MADE(n, hidden=12, rng=np.random.default_rng(seed))
    for p in model.parameters():
        p.data *= scale
    return model


def _every_configuration(n: int) -> np.ndarray:
    return np.array(list(itertools.product([0.0, 1.0], repeat=n)))


def _probabilities(model: MADE) -> np.ndarray:
    """``|ψ|²`` of every configuration, in :func:`_every_configuration` order."""
    p = np.exp(2.0 * model.log_psi(_every_configuration(model.n)).data)
    assert abs(p.sum() - 1.0) < 1e-12
    return p


def _index(x: np.ndarray) -> np.ndarray:
    """Each row's position in :func:`_every_configuration`."""
    return (x @ (2 ** np.arange(x.shape[1])[::-1])).astype(int)


def _forced_memory(kind: str, model: MADE, p: np.ndarray) -> np.ndarray:
    rng = np.random.default_rng(11)
    every = _every_configuration(model.n)
    if kind == "drawn":  # what a sampler remembers: configurations it drew
        return model.sample(4, rng, method="naive")
    if kind == "arbitrary":
        return (rng.random((3, model.n)) < 0.5).astype(float)
    # the most probable configuration beside the least probable one
    return every[[np.argmax(p), np.argmin(p)]]


def _chi_square(observed: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """χ² over the cells expected ≥ 5 times, the rest pooled into one."""
    big = expected >= 5.0
    o = np.append(observed[big], observed[~big].sum())
    e = np.append(expected[big], expected[~big].sum())
    keep = e > 0
    return float(((o[keep] - e[keep]) ** 2 / e[keep]).sum()), int(keep.sum()) - 1


@pytest.mark.parametrize("scale", [1.0, 3.0])
@pytest.mark.parametrize("kind", ["drawn", "arbitrary", "improbable"])
def test_pooled_counts_match_the_enumerated_distribution(kind, scale):
    """(a) n = 8: 200 batches of 256 under a forced memory, pooled, against
    the enumerated ``|ψ|²`` (the naive sampler's distribution)."""
    model = _scaled_made(8, seed=3, scale=scale)
    p = _probabilities(model)
    memory = _forced_memory(kind, model, p)
    if kind == "improbable":  # 8.5e-8 at scale 3; at scale 1 |ψ|² is nearly flat
        assert p[_index(memory[1:])[0]] == p.min() and (scale == 1.0 or p.min() < 1e-6)
    rng = np.random.default_rng(5)
    observed = np.zeros(p.size)
    for _ in range(200):
        result = incremental_sample(model, 256, rng, memory=memory)
        observed += np.bincount(_index(result.samples), minlength=p.size)
    chi2, dof = _chi_square(observed, observed.sum() * p)
    assert stats.chi2.sf(chi2, dof) > 1e-4, (chi2, dof)


def test_the_naive_sampler_passes_the_same_bound():
    """The χ² bound above is the oracle's own: the naive sampler's pooled
    draws pass it at the same size."""
    model = _scaled_made(8, seed=3, scale=3.0)
    p = _probabilities(model)
    x = model.sample(200 * 256, np.random.default_rng(5), method="naive")
    chi2, dof = _chi_square(np.bincount(_index(x), minlength=p.size), len(x) * p)
    assert stats.chi2.sf(chi2, dof) > 1e-4, (chi2, dof)


def test_each_remembered_configuration_is_counted_at_its_probability():
    """(b, c) Every batch's counts sum to the batch, and each remembered
    configuration's mean count is within 4σ of ``B·P_k``."""
    model = _scaled_made(8, seed=4, scale=3.0)
    p = _probabilities(model)
    memory = _every_configuration(8)[np.argsort(-p)[:3]]
    prob = p[_index(memory)]
    batch, draws = 64, 400
    rng = np.random.default_rng(6)
    counts = np.zeros((draws, len(memory)))
    for r in range(draws):
        result = incremental_sample(model, batch, rng, memory=memory)
        assert result.rows.counts.sum() == batch
        counts[r] = (result.samples[:, None, :] == memory).all(axis=2).sum(axis=0)
    sigma = np.sqrt(batch * prob * (1.0 - prob) / draws)
    assert np.all(np.abs(counts.mean(axis=0) - batch * prob) < 4.0 * sigma)


def _trie_case(n: int = 256):
    """Three configurations sharing their first 200 sites: the second leaves
    the first at site 210, the third at site 230."""
    rng = np.random.default_rng(8)
    base = (rng.random(n) < 0.5).astype(float)
    memory = np.repeat(base[None], 3, axis=0)
    memory[1, 210:] = (rng.random(n - 210) < 0.5).astype(float)
    memory[1, 210] = 1.0 - base[210]
    memory[2, 230] = 1.0 - base[230]
    return memory


def test_a_shared_prefix_has_its_exits_once():
    """(d) Sites the configurations share have one exit each, the first
    configuration's; a site where another continues with the other bit has
    none, and the outcomes sum to 1."""
    memory = _trie_case()
    model = MADE(256, hidden=16, rng=np.random.default_rng(9))
    z = model.logits(memory).data
    leaf, away = incremental_module._outcomes(memory, z)
    owned = np.isfinite(away)
    sites = np.arange(256)
    assert np.array_equal(owned[0], (sites != 210) & (sites != 230))
    assert np.array_equal(owned[1], sites > 210)
    assert np.array_equal(owned[2], sites > 230)
    assert np.all(np.isfinite(leaf))
    total = np.logaddexp.reduce(np.concatenate([leaf, away[owned]]))
    assert abs(total) < 1e-12
    # A repeated configuration is no second leaf and owns no exit.
    leaf, away = incremental_module._outcomes(memory[[0, 1, 0]], z[[0, 1, 0]])
    assert leaf[2] == -np.inf and not np.isfinite(away[2]).any()


def test_an_exit_at_a_collapsed_site_keeps_its_mass():
    """(e) At ``z = ±40`` the exit probability is ``σ(∓40)`` ≈ 4.2e-18, not
    the 0 that ``1 − σ(40)`` rounds to."""
    z = np.array([[40.0, -40.0, 40.0]])
    memory = np.array([[1.0, 0.0, 1.0]])  # the likely bit at every site
    leaf, away = incremental_module._outcomes(memory, z)
    tiny = np.exp(-40.0) / (1.0 + np.exp(-40.0))
    likely = 1.0 / (1.0 + np.exp(-40.0))
    np.testing.assert_allclose(np.exp(away[0]), tiny * likely ** np.arange(3), rtol=1e-13)
    np.testing.assert_allclose(np.exp(leaf[0]), likely**3, rtol=1e-15)
    assert 1.0 - likely == 0.0  # the trap the log-space form avoids
    # Remembering the unlikely bit at site 0: its exit is nearly all the mass.
    leaf, away = incremental_module._outcomes(np.array([[0.0, 0.0, 1.0]]), z)
    np.testing.assert_allclose(np.exp(away[0, 0]), likely, rtol=1e-15)
    np.testing.assert_allclose(np.exp(leaf[0]), tiny * likely**2, rtol=1e-13)


def _collapsed(n: int) -> MADE:
    """Every conditional at ``z = ±30`` whatever the prefix: the mode is
    drawn with probability ≈ 1 − n·1e-13."""
    model = MADE(n, hidden=10, rng=np.random.default_rng(12))
    for p in model.parameters():
        p.data[:] = 0.0
    model.fc_layers[-1].bias.data[:] = np.where(np.arange(n) % 3, 30.0, -30.0)
    return model


@pytest.mark.parametrize("sweeps", [3, 0], ids=["settled", "kernel"])
def test_a_row_that_leaves_keeps_its_forced_prefix(monkeypatch, sweeps):
    """(f) With all the mass put on one exit ``(k, i)``, every row takes
    ``M_k[:i]`` and the other bit at i, though the model gives that bit
    ``σ(−30)``: the bits are forced through the thresholds, whether the
    sweeps settle the rows or the kernel draws them; and no row equals a
    remembered configuration."""
    n, k, i = 12, 1, 7
    model = _collapsed(n)
    mode = (model.fc_layers[-1].bias.data > 0).astype(float)
    memory = np.stack([mode, mode.copy()])
    memory[1, 4] = 1.0 - mode[4]

    def one_exit(memory, z):
        leaf = np.full(len(memory), -np.inf)
        away = np.full(memory.shape, -np.inf)
        away[k, i] = 0.0
        return leaf, away

    monkeypatch.setattr(incremental_module, "_outcomes", one_exit)
    monkeypatch.setattr(incremental_module, "SETTLE_SWEEPS", sweeps)
    result = incremental_sample(model, 32, np.random.default_rng(0), memory=memory)
    x = result.samples
    assert np.all(x[:, :i] == memory[k, :i])
    assert np.all(x[:, i] == 1.0 - memory[k, i])
    assert np.all(x[:, i + 1 :] == mode[i + 1 :])  # the model's own bits after
    assert result.retraced == 0
    assert result.settled == (32 if sweeps else 0)
    assert not (x[:, None, :] == memory).all(axis=2).any()


def test_the_rows_that_leave_are_placed_uniformly():
    """(g) ``sample()`` places the rows that leave the memory uniformly over
    the batch, so any slice of it is a sample too."""
    model = _scaled_made(8, seed=3, scale=3.0)
    p = _probabilities(model)
    mode = _every_configuration(8)[np.argmax(p)]
    sampler = AutoregressiveSampler()
    rng = np.random.default_rng(13)
    batch, draws = 16, 2000
    where = np.zeros(batch)
    for _ in range(draws):
        sampler.memory = mode[None]  # each call refreshes it from its batch
        x = sampler.sample(model, batch, rng)
        where += (x != mode).any(axis=1)
    assert 0.05 < where.sum() / (batch * draws) < 0.95  # both kinds of row drawn
    chi2, dof = _chi_square(where, np.full(batch, where.sum() / batch))
    assert stats.chi2.sf(chi2, dof) > 1e-4, (chi2, dof)


@pytest.mark.parametrize("seed", range(4))
def test_no_memory_draws_the_naive_samples(seed):
    """(h) An empty memory, or none, is the naive sampler bit for bit, and
    the stream ends where it leaves it."""
    model = _scaled_made(9, seed=seed, scale=2.0)
    slow = np.random.default_rng(seed)
    naive = model.sample(40, slow, method="naive")
    for memory in (None, np.zeros((0, 9))):
        fast = np.random.default_rng(seed)
        assert np.array_equal(incremental_sample(model, 40, fast, memory=memory).samples, naive)
        assert fast.bit_generator.state == slow.bit_generator.state
    fast = np.random.default_rng(seed)
    x, rows = AutoregressiveSampler().draw(model, 40, fast)
    assert np.array_equal(x, naive)
    assert fast.bit_generator.state == slow.bit_generator.state


def test_a_covering_memory_draws_no_batch_of_uniforms():
    """When the memory covers the batch, no ``(n, B)`` uniform array is
    drawn: only the rows that leave get uniforms."""
    model = _collapsed(16)
    mode = (model.fc_layers[-1].bias.data > 0).astype(float)
    rng = CountingGenerator(np.random.default_rng(0))
    result = incremental_sample(model, 64, rng, memory=mode[None])
    assert result.retraced == 64
    assert np.all(result.samples == mode)
    assert (16, 64) not in rng.shapes and rng.shapes == []
    assert result.sweeps == () and result.settled == 0
