"""Property tests: fused single-flip log-ψ deltas match dense evaluation.

The blocked, mask-aware kernel's log-ratios ``log ψ(x^{(s)}) − log ψ(x)``
must agree to 1e-10 with the per-site loop it replaced (kept in
``flip_oracle.py``) and with the from-scratch dense computation, across
depths, widths on both sides of ``n−1``, both mask strategies, any list of
sites, any block size and any panel height (to the bit with one hidden
layer); its GEMMs must stay within 1.2× of the masks' MAC floor; and
``local_energies`` must give identical answers on its fused and dense paths.

The kernel evaluates a flip's tail as a product of Bernoulli odds,
``−Σ log(p + q·e^{−δ})`` (``TestOddsNumerics``). Mutations tried against
these tests, each of which fails them: ``q = 1 − p`` in ``_bernoulli_odds``
(``test_each_accurate_to_a_few_ulp``, the oracle comparison on uniform ``x``
at spreads 2 and 5, ``test_extreme_weights_never_nan``); the product range
guard removed (``log(0)`` raises under this module's warning filter: the
oracle comparison at spread 5, ``test_guard_branch_equals_product_branch``,
``test_extreme_weights_never_nan``); ``small`` left unfloored (``0·inf``:
the floor assertion, the oracle comparison at (256, spread 5),
``test_extreme_weights_never_nan``). The whole module turns every
``RuntimeWarning`` into an error, so an ``errstate`` in the kernel that is
scoped too narrowly cannot hide.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.energy import MAX_LOG_RATIO, local_energies
from repro.hamiltonians import MaxCut, TransverseFieldIsing
from repro.hamiltonians.base import SingleFlipRows
from repro.models import MADE
from repro.perf import flip_log_ratios, flips, forward_cache
from repro.tensor.tensor import no_grad
from tests.test_perf.flip_oracle import per_site_flip_log_ratios

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SETTINGS = dict(max_examples=100, deadline=None, derandomize=True)


@st.composite
def made_specs(draw):
    n = draw(st.integers(min_value=1, max_value=14))
    depth = draw(st.integers(min_value=1, max_value=3))
    # Widths straddle n−1: below it some inputs feed no hidden unit, at or
    # above it the 'cycle' degrees repeat and the layer needs a real sort.
    widths = [draw(st.integers(min_value=1, max_value=20)) for _ in range(depth)]
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    strategy = draw(st.sampled_from(["cycle", "random"]))
    return n, widths, seed, strategy


def any_sites(n):
    """Unsorted, possibly repeated, possibly empty flip sites."""
    return st.lists(st.integers(min_value=0, max_value=n - 1), max_size=2 * n).map(
        lambda sites: np.array(sites, dtype=np.int64)
    )


def _build(n, widths, seed, strategy="cycle", spread=0.7):
    rng = np.random.default_rng(seed)
    model = MADE(
        n,
        hidden=widths if len(widths) > 1 else widths[0],
        rng=rng,
        mask_strategy=strategy,
    )
    for p in model.parameters():
        p.data += rng.normal(size=p.shape) * spread
    return model


def _dense_ratios(model, x, sites):
    """Reference: from-scratch log ψ of every flipped neighbour."""
    bsz = x.shape[0]
    with no_grad():
        lp_x = model.log_psi(x).data
        out = np.empty((bsz, sites.size))
        for k, s in enumerate(sites):
            y = x.copy()
            y[:, s] = 1.0 - y[:, s]
            out[:, k] = model.log_psi(y).data - lp_x
    return out


class TestRatioIdentity:
    @settings(**SETTINGS)
    @given(spec=made_specs(), batch=st.integers(min_value=1, max_value=16))
    def test_matches_dense_all_sites(self, spec, batch):
        n, widths, seed, strategy = spec
        model = _build(n, widths, seed, strategy)
        x = (np.random.default_rng(seed + 1).random((batch, n)) < 0.5).astype(float)
        sites = np.arange(n)
        got = flip_log_ratios(model, sites, x)
        expect = _dense_ratios(model, x, sites)
        assert np.allclose(got, expect, atol=1e-10)
        assert np.allclose(got, per_site_flip_log_ratios(model, sites, x)[0], atol=1e-10)
        # The cache's log ψ is the model's.
        with no_grad():
            assert np.allclose(
                forward_cache(model, x).log_psi, model.log_psi(x).data, atol=1e-10
            )

    @settings(**SETTINGS)
    @given(spec=made_specs(), data=st.data())
    def test_matches_dense_site_subsets(self, spec, data):
        n, widths, seed, strategy = spec
        model = _build(n, widths, seed, strategy)
        x = (np.random.default_rng(seed + 2).random((4, n)) < 0.5).astype(float)
        sites = data.draw(any_sites(n), label="sites")
        got = flip_log_ratios(model, sites, x)
        assert got.shape == (4, sites.size)
        assert np.allclose(got, _dense_ratios(model, x, sites), atol=1e-10)
        assert np.allclose(got, per_site_flip_log_ratios(model, sites, x)[0], atol=1e-10)

    @settings(**SETTINGS)
    @given(
        spec=made_specs(),
        batch=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    def test_any_block_size_gives_the_same_ratios(self, spec, batch, data):
        """``BLOCK_ELEMS`` only sets how many sites share a GEMM: one site a
        block (S=1), a few, or — the default at these sizes — all K of them."""
        n, widths, seed, strategy = spec
        model = _build(n, widths, seed, strategy)
        x = (np.random.default_rng(seed + 3).random((batch, n)) < 0.5).astype(float)
        sites = data.draw(any_sites(n), label="sites")
        whole = flip_log_ratios(model, sites, x)
        assert np.allclose(whole, _dense_ratios(model, x, sites), atol=1e-10)
        for block_elems in (1, 3 * batch * n):
            with mock.patch.object(flips, "BLOCK_ELEMS", block_elems):
                blocked = flip_log_ratios(model, sites, x)
            assert np.allclose(blocked, whole, atol=1e-10)

    @settings(**SETTINGS)
    @given(
        spec=made_specs(),
        batch=st.integers(min_value=1, max_value=16),
        data=st.data(),
    )
    def test_any_panel_height_gives_the_same_ratios(self, spec, batch, data):
        """``PANEL`` only sets how many rows share a GEMM call: panels of 2 or
        3 rows, the default, or one GEMM a layer."""
        n, widths, seed, strategy = spec
        model = _build(n, widths, seed, strategy)
        x = (np.random.default_rng(seed + 6).random((batch, n)) < 0.5).astype(float)
        sites = data.draw(any_sites(n), label="sites")
        whole = flip_log_ratios(model, sites, x)
        for panel in (2, 3, 10**6):
            with mock.patch.object(flips, "PANEL", panel):
                paneled = flip_log_ratios(model, sites, x)
            assert np.allclose(paneled, whole, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("strategy", ["cycle", "random"])
    @pytest.mark.parametrize("n, h", [(12, 9), (30, 20), (64, 86), (256, 154)])
    def test_one_hidden_layer_panels_are_bit_identical(self, n, h, strategy):
        """A panel leaves out only trailing mask zeros of each row's sum, so
        with the paper's one hidden layer every panel height gives the same
        ratios to the bit, at every batch width BLAS treats differently.
        (A deep stack is held to roundoff above: there BLAS may order the
        shortened sums of its hidden→hidden products differently.)"""
        model = _build(n, [h], seed=n, strategy=strategy)
        sites = np.arange(n)
        for batch in (1, 2, 3, 4, 5, 9, 64):
            x = (np.random.default_rng(batch).random((batch, n)) < 0.5).astype(float)
            whole = flip_log_ratios(model, sites, x)
            for panel in (2, 3, 10**6):
                with mock.patch.object(flips, "PANEL", panel):
                    paneled = flip_log_ratios(model, sites, x)
                assert np.array_equal(paneled, whole)

    def test_deep_wide_stack_matches_the_oracle(self):
        """(64, (300, 300)): both hidden layers are wider than n, so the
        hidden→hidden GEMM runs in many panels of repeated reaches."""
        model = _build(64, [300, 300], seed=7)
        x = (np.random.default_rng(8).random((5, 64)) < 0.5).astype(float)
        sites = np.arange(64)
        got = flip_log_ratios(model, sites, x)
        assert np.allclose(got, per_site_flip_log_ratios(model, sites, x)[0], atol=1e-10)
        assert np.allclose(got, _dense_ratios(model, x, sites), atol=1e-10)

    @pytest.mark.parametrize("block_elems", [1, flips.BLOCK_ELEMS])
    def test_unmoved_logits_cancel_exactly(self, block_elems):
        """With every ReLU dead no flip moves any logit, so each ratio is
        the flipped site's own term — to the bit, not to roundoff: the
        kernel must not difference two evaluations of one unchanged term."""
        model = _build(9, [12, 7], seed=4, spread=0.1)
        model.fc1.bias.data[:] = -50.0
        x = (np.random.default_rng(5).random((6, 9)) < 0.5).astype(float)
        sites = np.arange(9)
        with mock.patch.object(flips, "BLOCK_ELEMS", block_elems):
            got = flip_log_ratios(model, sites, x)
        assert np.array_equal(got, 0.5 * (1.0 - 2.0 * x) * forward_cache(model, x).logits)

    def test_inputs_no_hidden_unit_sees_cost_only_their_own_term(self):
        """Paper shape: h = 154 < n−1 leaves inputs ≥ h feeding no hidden
        unit, so flipping one swaps its own Bernoulli target and nothing
        else — returned exactly, with no GEMM roundoff."""
        n, batch = 256, 8
        model = MADE(n, rng=np.random.default_rng(0))
        h = model.hidden
        assert h < n - 1
        x = (np.random.default_rng(1).random((batch, n)) < 0.5).astype(float)
        sites = np.arange(n)
        got = flip_log_ratios(model, sites, x)
        own_term = 0.5 * (1.0 - 2.0 * x) * forward_cache(model, x).logits
        assert np.array_equal(got[:, h:], own_term[:, h:])
        assert not np.array_equal(got[:, :h], own_term[:, :h])
        assert np.allclose(got, per_site_flip_log_ratios(model, sites, x)[0], atol=1e-10)

    def test_rejects_out_of_range_sites(self, rng):
        model = _build(4, [10], 0)
        x = np.zeros((2, 4))
        with pytest.raises(ValueError):
            flip_log_ratios(model, np.array([4]), x)


def _clipped_ratios(log_ratios):
    """What ``local_energies`` makes of the kernel's output."""
    return np.exp(np.clip(log_ratios, -MAX_LOG_RATIO, MAX_LOG_RATIO))


def _configurations(model, kind, batch, seed):
    rng = np.random.default_rng(seed)
    if kind == "model":
        return model.sample(batch, rng)
    return (rng.random((batch, model.n)) < 0.5).astype(float)


def _largest_logit_move(model, x):
    """(B, n): the most any one logit moves when bit ``s`` of row ``b`` flips."""
    base = forward_cache(model, x).logits
    moved = np.empty(x.shape)
    for s in range(model.n):
        y = x.copy()
        y[:, s] = 1.0 - y[:, s]
        moved[:, s] = np.abs(forward_cache(model, y).logits - base).max(axis=1)
    return moved


SHAPES = [(14, 20), (64, 86), (256, 154)]


class TestOddsNumerics:
    """``log σ(u+δ) − log σ(u) = −log(p + q·e^{−δ})`` with ``p = σ(u)``,
    ``q = σ(−u)``: exact cancellation needs ``p + q == 1.0`` to the bit, and
    accuracy at large weights needs BOTH of them accurate however small."""

    @staticmethod
    def _logits():
        rng = np.random.default_rng(0)
        edge = np.array([0.0, 5e-324, 1e-300, 1e-17, 36.7, 37.5, 709.7, 745.2, 800.0])
        u = np.concatenate(
            [np.linspace(-800.0, 800.0, 400_001), rng.uniform(-800, 800, 100_000),
             rng.normal(size=100_000) * 5.0, edge]
        )
        return np.concatenate([u, -u])  # −0.0 included

    def test_p_plus_q_is_exactly_one(self):
        u = self._logits()
        p, q = flips._bernoulli_odds(u)
        assert np.array_equal(p + q, np.ones_like(u))
        assert p.min() > 0.0 and q.min() > 0.0  # floored: never 0·inf
        flipped = flips._bernoulli_odds(-u)
        assert np.array_equal(flipped[0], q) and np.array_equal(flipped[1], p)

    def test_each_accurate_to_a_few_ulp(self):
        u = self._logits()
        u = u[np.abs(u) < 700.0]
        p, q = flips._bernoulli_odds(u)
        wide = u.astype(np.longdouble)
        for got, ref in ((p, 1.0 / (1.0 + np.exp(-wide))), (q, 1.0 / (1.0 + np.exp(wide)))):
            ulps = np.abs(got - ref) / np.spacing(ref.astype(np.float64))
            assert ulps.max() < 4.0

    @pytest.mark.parametrize("n, h", SHAPES)
    @pytest.mark.parametrize("spread", [0.1, 0.7, 2.0, 5.0])
    @pytest.mark.parametrize("kind", ["model", "uniform"])
    def test_matches_oracle_after_the_clip(self, n, h, spread, kind):
        """Log-ratios reach ±1.2e3 at (64, spread 5) — far past the ±80 clip
        and, in some blocks, past the product guard — and what the energy sees
        still agrees with the per-site loop to 1e-9 relative. The contract
        ends where ``e^{−δ}`` itself overflows, i.e. where ONE flip moves ONE
        logit by more than 709: only (256, spread 5) gets there, on < 2 % of
        its flips, and there the kernel may answer ±inf, never NaN."""
        model = _build(n, [h], seed=n, spread=spread)
        x = _configurations(model, kind, 8, seed=n + 1)
        sites = np.arange(n)
        got = flip_log_ratios(model, sites, x)
        expect, _ = per_site_flip_log_ratios(model, sites, x)
        inside = _largest_logit_move(model, x) < 709.0
        assert inside.all() or ((n, spread) == (256, 5.0) and inside.mean() > 0.98)
        assert np.allclose(
            _clipped_ratios(got)[inside], _clipped_ratios(expect)[inside], rtol=1e-9, atol=0.0
        )
        assert not np.isnan(got).any()

    @pytest.mark.parametrize("n, h", SHAPES)
    @pytest.mark.parametrize("spread", [20.0, 100.0])
    @pytest.mark.parametrize("kind", ["model", "uniform"])
    def test_extreme_weights_never_nan(self, n, h, spread, kind):
        """Single logits move by thousands: exp overflows, odds hit their
        floor, products meet 0·inf. Log-ratios may be ±inf, never NaN."""
        model = _build(n, [h], seed=n, spread=spread)
        x = _configurations(model, kind, 8, seed=n + 1)
        got = flip_log_ratios(model, np.arange(n), x)
        assert not np.isnan(got).any()
        assert np.all(np.isfinite(_clipped_ratios(got)))

    @pytest.mark.parametrize("n, h", SHAPES)
    @pytest.mark.parametrize("spread", [0.7, 2.0])
    def test_guard_branch_equals_product_branch(self, n, h, spread):
        """A block whose chunk products leave [PROD_MIN, PROD_MAX] reduces the
        same ``f`` as ``Σ log f``; forced on every block (at spreads where no
        block needs it) it moves the answer by roundoff and no more."""
        model = _build(n, [h], seed=n, spread=spread)
        x = _configurations(model, "model", 8, seed=n + 1)
        sites = np.arange(n)
        normal = flip_log_ratios(model, sites, x)
        with mock.patch.object(flips, "PROD_MIN", np.inf):
            forced = flip_log_ratios(model, sites, x)
        assert not np.array_equal(forced, normal)
        assert np.allclose(forced, normal, rtol=1e-12, atol=1e-12)


class TestWorkingSet:
    def test_peak_allocation_is_bounded_by_the_block_not_the_problem(self):
        """One call at ``tim256``'s shape stays under 6 MB (the dense path's
        neighbour tensor alone is 33.6 MB), and four times the batch costs
        less than three times the memory: blocks are ``BLOCK_ELEMS``, only the
        per-call tables grow with ``B``."""
        n = 256
        model = MADE(n, rng=np.random.default_rng(0))
        assert model.hidden == 154  # the paper's h = 5·ln²n
        sites = np.arange(n)
        peaks = {}
        for batch in (64, 256):
            x = _configurations(model, "model", batch, seed=1)
            flip_log_ratios(model, sites, x)
            tracemalloc.start()
            try:
                flip_log_ratios(model, sites, x)
                peaks[batch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] < 6e6
        assert peaks[256] < 3 * peaks[64]


class TestGemmCost:
    @staticmethod
    def _macs_per_sample(model, x):
        """Multiply-accumulates of every ``np.matmul`` the kernel calls."""
        total = 0
        matmul = np.matmul

        def counting(a, b, *args, **kwargs):
            nonlocal total
            stack = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
            total += int(np.prod(stack)) * a.shape[-2] * a.shape[-1] * b.shape[-1]
            return matmul(a, b, *args, **kwargs)

        with mock.patch.object(flips.np, "matmul", counting):
            flip_log_ratios(model, np.arange(model.n), x)
        return total / x.shape[0]

    @pytest.mark.parametrize("strategy", ["cycle", "random"])
    def test_within_a_fifth_of_the_mask_floor(self, strategy):
        """Unit ``k`` of reach ``m_k`` is moved by ``m_k`` flips and read by
        ``n − m_k`` outputs, so no kernel does fewer than ``Σ m_k (n − m_k)``
        MACs a sample. One rectangle a block paid 1.35× that with 'cycle'
        masks and 2.07× with 'random' ones (the spread degrees the masks get
        once their degree hole is closed); panels stay within 1.2× of it."""
        n, batch = 256, 64
        model = MADE(n, rng=np.random.default_rng(0), mask_strategy=strategy)
        assert model.hidden == 154
        mask = model.fc_layers[0].pattern
        reach = np.where(mask, np.arange(1, n + 1), 0).max(axis=1)
        floor = float((reach * (n - reach)).sum())
        x = (np.random.default_rng(1).random((batch, n)) < 0.5).astype(float)
        macs = self._macs_per_sample(model, x)
        assert floor <= macs <= 1.2 * floor


class TestLocalEnergyPaths:
    @settings(**SETTINGS)
    @given(
        n=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_fused_equals_dense_on_tim(self, n, seed):
        model = _build(n, [3 * n], seed)
        ham = TransverseFieldIsing.random(n, seed=seed)
        x = (np.random.default_rng(seed).random((8, n)) < 0.5).astype(float)
        fused = local_energies(model, ham, x, fast=True)
        dense = local_energies(model, ham, x, fast=False)
        assert np.allclose(fused, dense, atol=1e-9)

    @settings(**SETTINGS)
    @given(
        n=st.integers(min_value=2, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_fused_equals_dense_on_pure_x_pauli(self, n, seed):
        from repro.hamiltonians.pauli import PauliStringHamiltonian

        rng = np.random.default_rng(seed)
        flipped = rng.permutation(n)[: max(1, n // 2)]  # a subset, out of order
        terms = [(f"X{i}", -float(rng.random())) for i in flipped]
        terms.append((f"Z0 Z{n - 1}", 0.7))
        ham = PauliStringHamiltonian(n, terms)
        model = _build(n, [3 * n], seed, "random")
        x = (rng.random((8, n)) < 0.5).astype(float)
        fused = local_energies(model, ham, x, fast=True)
        dense = local_energies(model, ham, x, fast=False)
        assert np.allclose(fused, dense, atol=1e-9)

    def test_fused_is_the_default_for_made_and_flips(self, rng, monkeypatch):
        """Auto dispatch must never fall back to materialising neighbours."""
        model = _build(6, [12], 5)
        ham = TransverseFieldIsing.random(6, seed=5)

        def boom(x):
            raise AssertionError("dense connected() path used despite flip structure")

        monkeypatch.setattr(ham, "connected", boom)
        x = (rng.random((4, 6)) < 0.5).astype(float)
        energies = local_energies(model, ham, x)
        assert np.all(np.isfinite(energies))

    def test_only_the_dense_path_reads_log_psi_x(self, rng):
        """The fused kernel needs the activations, so it runs its own forward
        pass: a well-shaped but wrong ``log_psi_x`` cannot change its result,
        while the dense path takes it as given."""
        model = _build(6, [12], 9)
        ham = TransverseFieldIsing.random(6, seed=9)
        x = (rng.random((5, 6)) < 0.5).astype(float)
        wrong = np.full(5, 3.0)
        fused = local_energies(model, ham, x, fast=True)
        assert np.array_equal(local_energies(model, ham, x, log_psi_x=wrong, fast=True), fused)
        with no_grad():
            right = model.log_psi(x).data
        dense = local_energies(model, ham, x, fast=False)
        assert np.array_equal(local_energies(model, ham, x, log_psi_x=right, fast=False), dense)
        assert not np.allclose(local_energies(model, ham, x, log_psi_x=wrong, fast=False), dense)

    def test_fast_true_requires_support(self, rng):
        from repro.models import RBM

        ham = TransverseFieldIsing.random(4, seed=0)
        with pytest.raises(ValueError):
            local_energies(RBM(4, rng=rng), ham, np.zeros((2, 4)), fast=True)

    def test_diagonal_hamiltonian_short_circuits(self, rng):
        model = _build(8, [10], 1)
        ham = MaxCut.random(8, seed=1)
        x = (rng.random((5, 8)) < 0.5).astype(float)
        assert np.allclose(local_energies(model, ham, x), ham.diagonal(x))


class TestFlipStructure:
    def test_zzx_flip_list_matches_connected(self):
        ham = TransverseFieldIsing.random(7, seed=11)
        flips = ham.single_flips()
        x = (np.random.default_rng(0).random((3, 7)) < 0.5).astype(float)
        nbrs, amps = ham.connected(x)
        assert flips.k == nbrs.shape[1]
        for k in range(flips.k):
            expect = x.copy()
            expect[:, flips.sites[k]] = 1.0 - expect[:, flips.sites[k]]
            assert np.array_equal(nbrs[:, k], expect)
            assert np.allclose(amps[:, k], flips.amplitudes[k])

    def test_maxcut_has_empty_flip_list(self):
        assert MaxCut.random(6, seed=0).single_flips().k == 0

    def test_pauli_pure_x_supported(self):
        from repro.hamiltonians.pauli import PauliStringHamiltonian

        ham = PauliStringHamiltonian(
            4, [("X0", -0.5), ("X2", -1.0), ("X0", -0.25), ("Z1 Z3", 0.7)]
        )
        flips = ham.single_flips()
        assert flips is not None
        assert np.array_equal(flips.sites, [0, 2])
        assert np.allclose(flips.amplitudes, [-0.75, -1.0])

    def test_pauli_mixed_terms_unsupported(self):
        from repro.hamiltonians.pauli import PauliStringHamiltonian

        assert (
            PauliStringHamiltonian(4, [("Z0 X1", -0.5)], check=False).single_flips()
            is None
        )
        assert PauliStringHamiltonian(4, [("X0 X1", -0.5)]).single_flips() is None

    def test_single_flip_rows_validation(self):
        with pytest.raises(ValueError):
            SingleFlipRows(sites=np.array([0, 0]), amplitudes=np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            SingleFlipRows(sites=np.array([0, 1]), amplitudes=np.array([1.0]))

    def test_rejects_non_made(self, rng):
        from repro.models import RBM

        rbm, x = RBM(4, rng=rng), np.zeros((2, 4))
        with pytest.raises(TypeError):
            flip_log_ratios(rbm, np.arange(4), x)
        with pytest.raises(TypeError):
            forward_cache(rbm, x)
