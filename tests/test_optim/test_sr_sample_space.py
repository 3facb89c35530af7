"""The sample-space solve of stochastic reconfiguration, on an array ``O``.

``solver='cg'`` is one direct N×N solve (Woodbury through the centred Gram
matrix). Pinned here — the factored ``O`` has ``test_sr_factored.py``:

- it ≡ the dense d×d solve for *any* right-hand side — not only one in the
  row space of ``O`` — on rank-deficient batches too, and reports the
  residual of the system it factorised;
- at ``diag_shift=0`` it returns the minimum-norm solution for a row-space
  right-hand side and refuses any other, naming ``diag_shift``;
- distributed solves (equal and unequal shards, threads and processes)
  match the serial solve, are bit-identical across ranks and issue exactly
  one allgather under the sanitizer;
- ``'auto'`` resolves on ``d`` and the *global* ``N``; the path taken is on
  the spans and counted.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CommSanitizer
from repro.distributed import run_threaded
from repro.distributed.mp import run_processes
from repro.obs import Metrics, Tracer
from repro.optim import StochasticReconfiguration


def _dense_solve(o, g, shift):
    return StochasticReconfiguration(diag_shift=shift, solver="dense").natural_gradient(o, g)


def _unequal_shards(o, world):
    bounds = np.linspace(0, o.shape[0], world + 1).astype(int)
    bounds[1:-1] += np.arange(1, world) % 3 - 1
    return [o[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


#: N in [2, 24], d in [N + 1, 60]: the side where 'auto' takes sample space
shapes = st.integers(2, 24).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(n + 1, 60))
)


class TestOneLoop:
    def test_zero_gradient_solves_to_zero(self, rng):
        sr = StochasticReconfiguration(solver="cg")
        delta = sr.natural_gradient(rng.normal(size=(6, 20)), np.zeros(20))
        info = sr.last_solve
        assert not delta.any() and info.solver == "cg"
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
        assert info.solver == "cg" and info.gram == "dense" and not info.incomplete
        ref = _dense_solve(o, g, shift)
        assert np.linalg.norm(delta - ref) <= 1e-8 * np.linalg.norm(ref)
        assert info.residual <= 1e-10

    def test_exhausted_krylov_space_ends_the_solve(self, rng):
        """Two samples span one centred direction and λ = 0 damps nothing:
        the centred system is singular, and the solve returns the
        minimum-norm solution for a row-space right-hand side."""
        o = rng.normal(size=(2, 3))
        oc = o - o.mean(axis=0)
        g = rng.normal(size=2) @ oc
        sr = StochasticReconfiguration(diag_shift=0.0, solver="cg")
        delta = sr.natural_gradient(o, g)
        ref = np.linalg.pinv(oc.T @ oc / 2) @ g
        assert sr.last_solve.solver == "cg" and sr.last_solve.iterations == 0
        np.testing.assert_allclose(delta, ref, rtol=1e-7)
        assert sr.last_solve.residual < 1e-6

    def test_duplicate_samples_make_the_gram_matrix_singular_not_the_solve(self, rng):
        """A converged VQMC batch repeats configurations: rows of O repeat,
        G is rank-deficient, and the solve must not notice."""
        base = rng.normal(size=(5, 30))
        o = base[rng.integers(0, 5, size=20)]
        g = rng.normal(size=20) @ (o - o.mean(axis=0)) / 20
        sr = StochasticReconfiguration(diag_shift=1e-3, solver="cg")
        delta = sr.natural_gradient(o, g)
        ref = _dense_solve(o, g, 1e-3)
        assert sr.last_solve.solver == "cg" and not sr.last_solve.incomplete
        assert np.linalg.norm(delta - ref) <= 1e-7 * np.linalg.norm(ref)


def _distributed_worker(comm, rank, shards, g, shift, solver="cg"):
    sr = StochasticReconfiguration(diag_shift=shift, solver=solver)
    return sr.natural_gradient(shards[rank], g, comm=comm), sr.last_solve


class TestDistributedSampleSpace:
    @settings(max_examples=20, deadline=None)
    @given(
        shape=shapes.filter(lambda nd: nd[0] >= 8),  # two rows a rank, and to spare
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(1e-3, 1.0),
        unequal=st.booleans(),
    )
    def test_four_thread_ranks_match_serial(self, shape, seed, shift, unequal):
        n, d = shape
        rng = np.random.default_rng(seed)
        o, g = rng.normal(size=(n, d)), rng.normal(size=d)
        shards = _unequal_shards(o, 4) if unequal else np.array_split(o, 4)
        ref = StochasticReconfiguration(diag_shift=shift, solver="cg").natural_gradient(o, g)
        results = run_threaded(_distributed_worker, 4, args=(shards, g, shift))
        for sol, info in results:
            assert info.solver == "cg" and info.distributed and info.samples == n
            assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)
            assert np.array_equal(sol, results[0][0])  # bit-identical across ranks

    @pytest.mark.parametrize("unequal", [False, True])
    def test_two_process_ranks_match_serial(self, unequal):
        rng = np.random.default_rng(7)
        o, g = rng.normal(size=(18, 41)), rng.normal(size=41)
        shards = [o[:5], o[5:]] if unequal else np.array_split(o, 2)
        ref = StochasticReconfiguration(diag_shift=1e-2, solver="cg").natural_gradient(o, g)
        results = run_processes(_distributed_worker, 2, args=(shards, g, 1e-2))
        for sol, info in results:
            assert info.solver == "cg"
            assert np.linalg.norm(sol - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.array_equal(results[0][0], results[1][0])

    def test_more_ranks_than_columns_to_share(self):
        """Ranks that hold no rows (and d < L) still take part."""
        rng = np.random.default_rng(3)
        o, g = rng.normal(size=(2, 3)), rng.normal(size=3)
        shards = [o[:1], o[1:], o[:0], o[:0]]
        ref = StochasticReconfiguration(diag_shift=0.1, solver="cg").natural_gradient(o, g)
        for sol, info in run_threaded(_distributed_worker, 4, args=(shards, g, 0.1)):
            assert info.solver == "cg" and info.samples == 2
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
            # the rows of O, once — nothing is reduced inside the solve
            assert kinds == ["allgather", "barrier"]
            assert np.array_equal(sol, results[0][0])


class TestSpaceRule:
    @pytest.mark.parametrize(
        "n,d,budget,space",
        [
            (9, 10, None, "sample"),  # N < d: the smaller system
            (10, 10, None, ""),  # N = d: nothing to gain, dense
            (11, 10, 4, ""),
            (31, 60, 2, "sample"),
            (32, 60, 2, "sample"),
            (33, 60, 2, "sample"),  # a direct solve has no budget to weigh N against
        ],
    )
    def test_boundaries(self, n, d, budget, space, rng):
        sr = StochasticReconfiguration(solver="auto", cg_maxiter=budget)
        sr.natural_gradient(rng.normal(size=(n, d)), rng.normal(size=d))
        assert (sr.last_solve.solver == "cg") == (space == "sample")

    def test_distributed_rule_reads_the_global_count(self):
        """Each rank holds fewer rows than d; together they hold more."""
        rng = np.random.default_rng(11)
        o, g = rng.normal(size=(40, 30)), rng.normal(size=30)
        results = run_threaded(
            _distributed_worker, 2, args=(np.array_split(o, 2), g, 1e-3, "auto")
        )
        assert [info.solver for _, info in results] == ["dense", "dense"]

    def test_path_taken_is_on_the_span_and_counted(self, rng):
        tracer, metrics = Tracer(), Metrics()
        sr = StochasticReconfiguration(solver="auto")
        sr.attach_tracer(tracer)
        sr.metrics = metrics
        sr.natural_gradient(rng.normal(size=(8, 20)), rng.normal(size=20))
        sr.natural_gradient(rng.normal(size=(20, 8)), rng.normal(size=8))
        names = [e.name for e in tracer.events]
        assert names == ["sr.gram", "sr.cholesky", "sr.dense"]
        assert tracer.events[0].attrs["gram"] == "dense"
        counters = metrics.snapshot()["counters"]
        assert counters["sr.solves"] == 2 and counters["sr.sample_space_solves"] == 1
        assert counters["sr.dense_jacobian"] == 1
