"""MADE wavefunction: normalisation, autoregressive property, exact sampling,
per-sample gradients."""

from __future__ import annotations

import numpy as np
import pytest

from repro.models import MADE
from repro.models.made import default_hidden_size, made_num_parameters
from repro.tensor import Tensor
from tests.conftest import enumerate_states


@pytest.fixture
def made(rng):
    return MADE(5, hidden=12, rng=rng)


class TestNormalisation:
    def test_probabilities_sum_to_one(self, made):
        probs = made.exact_distribution()
        assert probs.sum() == pytest.approx(1.0, abs=1e-10)

    def test_normalised_after_random_parameter_change(self, made, rng):
        # Normalisation is structural — it must survive arbitrary weights.
        for p in made.parameters():
            p.data[...] = rng.normal(size=p.shape) * 3.0
        assert made.exact_distribution().sum() == pytest.approx(1.0, abs=1e-10)

    def test_log_psi_is_half_log_prob(self, made, rng):
        x = (rng.random((7, 5)) < 0.5).astype(float)
        lp = made.log_prob(x).data
        lpsi = made.log_psi(x).data
        assert np.allclose(lpsi, lp / 2.0)


class TestAutoregressiveProperty:
    def test_conditional_i_independent_of_later_inputs(self, made, rng):
        """p(x_i | x_<i) must not change when x_{≥i} changes."""
        x = (rng.random((1, 5)) < 0.5).astype(float)
        base = made.conditionals(x)
        for i in range(5):
            x2 = x.copy()
            x2[0, i:] = 1.0 - x2[0, i:]
            cond2 = made.conditionals(x2)
            assert np.allclose(cond2[0, i], base[0, i]), f"site {i} leaked"

    def test_chain_rule_consistency(self, made):
        """log π(x) must equal the sum of conditional log-probs computed
        site by site (the factorisation of Eq. 7)."""
        states = enumerate_states(5)
        lp = made.log_prob(states).data
        cond = made.conditionals(states)
        manual = (
            states * np.log(cond) + (1.0 - states) * np.log1p(-cond)
        ).sum(axis=1)
        assert np.allclose(lp, manual, atol=1e-8)


class TestSampling:
    def test_sample_shape_and_binary(self, made, rng):
        x = made.sample(64, rng)
        assert x.shape == (64, 5)
        assert set(np.unique(x)) <= {0.0, 1.0}

    def test_sampling_is_exact(self, made, rng):
        """Empirical frequencies match the exact distribution (χ² sanity)."""
        probs = made.exact_distribution()
        n_samples = 20000
        x = made.sample(n_samples, rng)
        codes = (x @ (2 ** np.arange(4, -1, -1))).astype(int)
        counts = np.bincount(codes, minlength=32)
        tv = 0.5 * np.abs(counts / n_samples - probs).sum()
        # Plug-in TV of a 32-cell multinomial at 20k samples is ~0.02.
        assert tv < 0.05

    def test_sampler_respects_rng(self, made):
        a = made.sample(16, np.random.default_rng(0))
        b = made.sample(16, np.random.default_rng(0))
        assert np.array_equal(a, b)


class TestPerSampleGrads:
    def test_log_psi_agrees_with_autograd_path(self, made, rng):
        x = (rng.random((6, 5)) < 0.5).astype(float)
        lp_manual, _ = made.log_psi_and_grads(x)
        lp_auto = made.log_psi(x).data
        assert np.allclose(lp_manual, lp_auto, atol=1e-10)

    def test_grads_match_autograd_per_sample(self, made, rng):
        x = (rng.random((4, 5)) < 0.5).astype(float)
        _, o = made.log_psi_and_grads(x)
        for b in range(4):
            made.zero_grad()
            made.log_psi(x[b : b + 1]).sum().backward()
            assert np.allclose(np.asarray(o)[b], made.flat_grad(), atol=1e-10), f"sample {b}"

    def test_grad_matrix_shape(self, made, rng):
        x = (rng.random((3, 5)) < 0.5).astype(float)
        _, o = made.log_psi_and_grads(x)
        assert o.shape == (3, made.num_parameters())


class TestConfig:
    def test_default_hidden_size_formula(self):
        assert default_hidden_size(100) == round(5 * np.log(100) ** 2)

    def test_parameter_count_matches_paper(self, rng):
        """The paper's d counts every weight; the masks connect half of
        them, and only those are stored."""
        n, h = 10, 17
        made = MADE(n, hidden=h, rng=rng)
        assert made_num_parameters(n, h) == 2 * h * n + h + n
        assert made.num_parameters() == h * n + h + n

    def test_invalid_inputs_rejected(self, made):
        with pytest.raises(ValueError):
            made.log_psi(np.ones((2, 4)))  # wrong width
        with pytest.raises(ValueError):
            made.log_psi(np.full((2, 5), 0.5))  # non-binary

    def test_n_must_be_positive(self, rng):
        with pytest.raises(ValueError):
            MADE(0, rng=rng)


def _held_bytes(model) -> int:
    """Bytes of the arrays ``model`` holds, each buffer counted once (a view
    counts its whole base), found through its attributes and the ``repro``
    objects, containers and tensors they hold."""
    seen, total, todo = set(), 0, [model]
    while todo:
        obj = todo.pop()
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            if id(obj) not in seen:
                seen.add(id(obj))
                total += obj.nbytes
        elif isinstance(obj, Tensor):  # slotted: no vars()
            todo += [obj.data, obj.grad]
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif type(obj).__module__.startswith("repro.") and id(obj) not in seen:
            seen.add(id(obj))
            todo.extend(vars(obj).values())
    return total


class TestBuildMemory:
    """Building a model allocates little beyond what it keeps: the masks
    come from the degree rule, and nothing composes them into an n×n
    connectivity matrix to check it."""

    @pytest.mark.parametrize("sharded", [False, True], ids=["MADE", "ShardedMADE"])
    def test_peak_stays_below_twice_what_the_model_holds(self, sharded):
        import tracemalloc

        from repro.distributed import SerialCommunicator
        from repro.distributed.model_parallel import ShardedMADE

        n = 4096
        tracemalloc.start()
        try:
            if sharded:
                model = ShardedMADE(n, default_hidden_size(n), SerialCommunicator())
            else:
                model = MADE(n, rng=np.random.default_rng(0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = _held_bytes(model)
        assert held > 2 * default_hidden_size(n) * n  # every weight's bytes at least
        assert peak < 2 * held, f"peak {peak / 2**20:.1f} MiB, holds {held / 2**20:.1f} MiB"
