"""Sample-space CG for stochastic reconfiguration.

``solver='cg'`` runs one recurrence in one of two coordinate systems. Pinned
here:

- the recurrence is SciPy's ``sparse.linalg.cg`` operation for operation
  (SciPy stays in the tests as the reference implementation);
- sample space ≡ the dense solve at tolerance and ≡ the parameter-space
  iterate after the same small budget, for *any* right-hand side — not only
  one in the row space of ``O`` — and reports the true residual;
- distributed sample-space solves (equal and unequal shards, threads and
  processes) match the serial solve, are bit-identical across ranks and
  congruent under the sanitizer;
- the space is chosen from ``N``, ``d`` and ``cg_maxiter`` exactly as
  documented.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CommSanitizer
from repro.distributed import run_threaded
from repro.distributed.mp import run_processes
from repro.obs import Metrics, Tracer
from repro.optim import StochasticReconfiguration
from repro.optim import sr as sr_mod
from repro.optim.sr import SAMPLE_ROWS_PER_ITERATION


def _dense_solve(o, g, shift):
    return StochasticReconfiguration(diag_shift=shift, solver="dense").natural_gradient(o, g)


def _true_residual(o, g, shift, delta):
    s = StochasticReconfiguration.fisher_matrix(o)
    return np.linalg.norm(s @ delta + shift * delta - g) / np.linalg.norm(g)


def _parameter_space_cg(o, g, shift, tol, maxiter):
    """The d-vector recurrence on an input whose own solve takes sample space."""
    matvec, _ = StochasticReconfiguration(diag_shift=shift).fisher_operator(o)
    return sr_mod._cg(matvec, np.dot, g, tol, maxiter)


def _unequal_shards(o, world):
    bounds = np.linspace(0, o.shape[0], world + 1).astype(int)
    bounds[1:-1] += np.arange(1, world) % 3 - 1
    return [o[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


#: N in [2, 24], d in [N + 1, 60]: always the sample-space side of the rule
shapes = st.integers(2, 24).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(n + 1, 60))
)


class TestOneLoop:
    @pytest.mark.parametrize("maxiter", [1, 7, None])
    def test_recurrence_is_scipys_bit_for_bit(self, maxiter, rng):
        o = rng.normal(size=(40, 12))
        g = rng.normal(size=12)
        matvec, _ = StochasticReconfiguration(diag_shift=1e-3).fisher_operator(o)
        counted = []
        ref, info = scipy.sparse.linalg.cg(
            scipy.sparse.linalg.LinearOperator((12, 12), matvec=matvec),
            g, rtol=1e-10, atol=0.0, maxiter=maxiter, callback=counted.append,
        )
        x, iterations, residual, converged = sr_mod._cg(matvec, np.dot, g, 1e-10, maxiter)
        assert np.array_equal(x, ref)
        assert iterations == len(counted)
        assert converged == (info == 0)
        assert residual == pytest.approx(_true_residual(o, g, 1e-3, x), rel=1e-6, abs=1e-14)

    def test_parameter_space_solve_is_that_recurrence(self, rng):
        """N >= d still runs the d-vector path, bit for bit as before."""
        o = rng.normal(size=(40, 12))
        g = rng.normal(size=12)
        sr = StochasticReconfiguration(diag_shift=1e-3, solver="cg", cg_maxiter=5)
        x, *_ = _parameter_space_cg(o, g, 1e-3, sr.cg_tol, 5)
        assert np.array_equal(sr.natural_gradient(o, g), x)
        assert sr.last_solve.space == "parameter"

    def test_zero_gradient_solves_to_zero(self, rng):
        sr = StochasticReconfiguration(solver="cg")
        delta = sr.natural_gradient(rng.normal(size=(6, 20)), np.zeros(20))
        info = sr.last_solve
        assert not delta.any() and info.space == "sample"
        assert info.iterations == 0 and info.residual == 0.0 and not info.incomplete


class TestSampleSpaceEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1), shift=st.floats(1e-3, 1.0))
    def test_matches_dense_solve_at_tolerance(self, shape, seed, shift):
        n, d = shape
        rng = np.random.default_rng(seed)
        o, g = rng.normal(size=(n, d)), rng.normal(size=d)  # g: not in the row space
        sr = StochasticReconfiguration(diag_shift=shift, solver="cg")
        delta = sr.natural_gradient(o, g)
        info = sr.last_solve
        assert info.space == "sample" and not info.incomplete
        ref = _dense_solve(o, g, shift)
        assert np.linalg.norm(delta - ref) <= 1e-8 * np.linalg.norm(ref)
        assert info.residual == pytest.approx(_true_residual(o, g, shift, delta), abs=1e-8)

    @settings(max_examples=80, deadline=None)
    @given(
        shape=shapes.filter(lambda nd: nd[0] >= 3),
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(0.0, 1.0),
        budget=st.integers(1, 6),
        in_row_space=st.booleans(),
    )
    def test_iterate_k_is_the_parameter_space_iterate(
        self, shape, seed, shift, budget, in_row_space
    ):
        n, d = shape
        # span{rows of Oc, g} has dimension >= N - 1, and CG is exact (its
        # next step a division of rounding by rounding) once it is used up
        budget = min(budget, n - 2)
        rng = np.random.default_rng(seed)
        o = rng.normal(size=(n, d))
        # the gradient VQMC hands over lies in the row space; an arbitrary
        # one does not, and the bordered row of Q covers both
        g = rng.normal(size=n) @ (o - o.mean(axis=0)) if in_row_space else rng.normal(size=d)
        sr = StochasticReconfiguration(
            diag_shift=shift, solver="cg", cg_tol=1e-14, cg_maxiter=budget
        )
        delta = sr.natural_gradient(o, g)
        info = sr.last_solve
        # 17..24 rows on a budget of 1: the rule keeps those in parameter
        # space, where the comparison holds trivially
        in_sample_space = n <= SAMPLE_ROWS_PER_ITERATION * budget
        assert info.space == ("sample" if in_sample_space else "parameter")
        ref, iterations, residual, _ = _parameter_space_cg(o, g, shift, 1e-14, budget)
        assert np.linalg.norm(delta - ref) <= 1e-9 * np.linalg.norm(ref)
        assert info.iterations == iterations == budget
        assert info.residual == pytest.approx(residual, abs=1e-9)
        assert info.residual == pytest.approx(_true_residual(o, g, shift, delta), abs=1e-9)

    def test_exhausted_krylov_space_ends_the_solve(self, rng):
        """Two samples span one centred direction: one iteration solves the
        system, and whatever rounding leaves of the residual must not be
        iterated on (λ = 0: nothing damps it)."""
        o = rng.normal(size=(2, 3))
        g = rng.normal(size=2) @ (o - o.mean(axis=0))
        sr = StochasticReconfiguration(diag_shift=0.0, solver="cg", cg_tol=1e-14)
        delta = sr.natural_gradient(o, g)
        ref, *_ = _parameter_space_cg(o, g, 0.0, 1e-14, 1)
        assert sr.last_solve.space == "sample" and sr.last_solve.iterations <= 3
        np.testing.assert_allclose(delta, ref, rtol=1e-7)
        # the Gram matrix resolves a residual norm to about sqrt(eps) only
        assert sr.last_solve.residual < 1e-6

    def test_duplicate_samples_make_the_gram_matrix_singular_not_the_solve(self, rng):
        """A converged VQMC batch repeats configurations: rows of Q repeat,
        G is rank-deficient, and the solve must not notice."""
        base = rng.normal(size=(5, 30))
        o = base[rng.integers(0, 5, size=20)]
        g = rng.normal(size=20) @ (o - o.mean(axis=0)) / 20
        sr = StochasticReconfiguration(diag_shift=1e-3, solver="cg")
        delta = sr.natural_gradient(o, g)
        ref = _dense_solve(o, g, 1e-3)
        assert sr.last_solve.space == "sample" and not sr.last_solve.incomplete
        assert np.linalg.norm(delta - ref) <= 1e-7 * np.linalg.norm(ref)


def _distributed_worker(comm, rank, shards, g, shift, budget):
    sr = StochasticReconfiguration(diag_shift=shift, solver="cg", cg_maxiter=budget)
    return sr.natural_gradient(shards[rank], g, comm=comm), sr.last_solve


class TestDistributedSampleSpace:
    @settings(max_examples=20, deadline=None)
    @given(
        shape=shapes.filter(lambda nd: nd[0] >= 8),  # two rows a rank, and to spare
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(1e-3, 1.0),
        unequal=st.booleans(),
        budget=st.sampled_from([3, None]),
    )
    def test_four_thread_ranks_match_serial(self, shape, seed, shift, unequal, budget):
        n, d = shape
        rng = np.random.default_rng(seed)
        o, g = rng.normal(size=(n, d)), rng.normal(size=d)
        shards = _unequal_shards(o, 4) if unequal else np.array_split(o, 4)
        serial = StochasticReconfiguration(diag_shift=shift, solver="cg", cg_maxiter=budget)
        ref = serial.natural_gradient(o, g)
        results = run_threaded(_distributed_worker, 4, args=(shards, g, shift, budget))
        for sol, info in results:
            assert info.space == "sample" and info.distributed and info.samples == n
            assert info.iterations == serial.last_solve.iterations or budget is None
            assert np.linalg.norm(sol - ref) <= 1e-8 * np.linalg.norm(ref)
            assert np.array_equal(sol, results[0][0])  # bit-identical across ranks

    @pytest.mark.parametrize("unequal", [False, True])
    def test_two_process_ranks_match_serial(self, unequal):
        rng = np.random.default_rng(7)
        o, g = rng.normal(size=(18, 41)), rng.normal(size=41)
        shards = [o[:5], o[5:]] if unequal else np.array_split(o, 2)
        ref = StochasticReconfiguration(diag_shift=1e-2, solver="cg").natural_gradient(o, g)
        results = run_processes(_distributed_worker, 2, args=(shards, g, 1e-2, None))
        for sol, info in results:
            assert info.space == "sample"
            assert np.linalg.norm(sol - ref) <= 1e-8 * np.linalg.norm(ref)
        assert np.array_equal(results[0][0], results[1][0])

    def test_more_ranks_than_columns_to_share(self):
        """d < L leaves some ranks a zero-width block; they still take part."""
        rng = np.random.default_rng(3)
        o, g = rng.normal(size=(2, 3)), rng.normal(size=3)
        shards = [o[:1], o[1:], o[:0], o[:0]]
        ref = StochasticReconfiguration(diag_shift=0.1, solver="cg").natural_gradient(o, g)
        for sol, info in run_threaded(_distributed_worker, 4, args=(shards, g, 0.1, None)):
            assert info.space == "sample"
            np.testing.assert_allclose(sol, ref, rtol=1e-10)

    def test_congruent_collectives_under_the_sanitizer(self):
        rng = np.random.default_rng(5)
        o, g = rng.normal(size=(24, 60)), rng.normal(size=60)
        shards = _unequal_shards(o, 3)

        def worker(comm, rank):
            sane = CommSanitizer(comm, timeout=20.0)
            sr = StochasticReconfiguration(diag_shift=1e-3, solver="cg")
            sol = sr.natural_gradient(shards[rank], g, comm=sane)
            sane.barrier()  # flush + verify outstanding fingerprints
            return sol, [r.kind for r in sane.records]

        results = run_threaded(worker, 3)
        for sol, kinds in results:
            # centring, transposition, Gram matrix, assembled direction
            assert kinds == ["allreduce", "alltoall", "allreduce", "allreduce", "barrier"]
            assert np.array_equal(sol, results[0][0])


class TestSpaceRule:
    @pytest.mark.parametrize(
        "n,d,budget,space",
        [
            (9, 10, None, "sample"),  # N < d, no budget: the smaller system
            (10, 10, None, "parameter"),  # N = d: nothing to gain
            (11, 10, 4, "parameter"),
            (SAMPLE_ROWS_PER_ITERATION * 2 - 1, 60, 2, "sample"),
            (SAMPLE_ROWS_PER_ITERATION * 2, 60, 2, "sample"),
            (SAMPLE_ROWS_PER_ITERATION * 2 + 1, 60, 2, "parameter"),  # Gram product not worth 2 iterations
        ],
    )
    def test_boundaries(self, n, d, budget, space, rng):
        sr = StochasticReconfiguration(solver="cg", cg_maxiter=budget)
        sr.natural_gradient(rng.normal(size=(n, d)), rng.normal(size=d))
        assert sr.last_solve.space == space

    def test_distributed_rule_reads_the_global_count(self):
        """Each rank holds fewer rows than 16·k; together they hold more."""
        rng = np.random.default_rng(11)
        o, g = rng.normal(size=(40, 60)), rng.normal(size=60)
        results = run_threaded(
            _distributed_worker, 2, args=(np.array_split(o, 2), g, 1e-3, 2)
        )
        assert [info.space for _, info in results] == ["parameter", "parameter"]

    def test_path_taken_is_on_the_span_and_counted(self, rng):
        tracer, metrics = Tracer(), Metrics()
        sr = StochasticReconfiguration(solver="cg")
        sr.attach_tracer(tracer)
        sr.metrics = metrics
        sr.natural_gradient(rng.normal(size=(8, 20)), rng.normal(size=20))
        sr.natural_gradient(rng.normal(size=(20, 8)), rng.normal(size=8))
        spaces = [e.attrs["space"] for e in tracer.events if e.name == "sr.cg"]
        assert spaces == ["sample", "parameter"]
        counters = metrics.snapshot()["counters"]
        assert counters["sr.solves"] == 2 and counters["sr.sample_space_solves"] == 1
