"""Distributed SR engine: parity, comm volume, congruence.

The acceptance bar of the communicator-aware engine (`repro.optim.sr`):

- distributed solves (`cg` *and* `dense`) reproduce the serial big-batch
  solve within 1e-6 relative error, on threads and processes backends,
  with equal and unequal per-rank shards;
- with `solver='cg'` no d×d array is ever moved — per-solve collective
  volume is this rank's rows of O, once, counted exactly from `CommStats`;
- the distributed solution satisfies the dense global-S system
  (hypothesis property);
- every rank issues a congruent collective sequence (CommSanitizer).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import CommSanitizer
from repro.distributed import run_threaded
from repro.distributed.mp import run_processes
from repro.optim import StochasticReconfiguration

WORLD = 4


def _problem(d: int, batch: int = 64, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, d)), rng.normal(size=d)


def _shards(o: np.ndarray, world: int, unequal: bool = False):
    if not unequal:
        return np.array_split(o, world)
    # Deliberately lopsided split: exercises global-count normalisation.
    bounds = np.linspace(0, o.shape[0], world + 1).astype(int)
    bounds[1:-1] += np.arange(1, world) % 3 - 1
    return [o[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _mp_worker(comm, rank, shards, g, solver):
    sr = StochasticReconfiguration(diag_shift=1e-3, solver=solver)
    return sr.natural_gradient(shards[rank], g, comm=comm)


class TestDistributedParity:
    @pytest.mark.parametrize("solver", ["dense", "cg"])
    @pytest.mark.parametrize("unequal", [False, True])
    def test_threads_matches_serial_big_batch(self, solver, unequal):
        o, g = _problem(d=24)
        ref = StochasticReconfiguration(
            diag_shift=1e-3, solver="dense"
        ).natural_gradient(o, g)
        shards = _shards(o, WORLD, unequal=unequal)

        def worker(comm, rank):
            sr = StochasticReconfiguration(diag_shift=1e-3, solver=solver)
            return sr.natural_gradient(shards[rank], g, comm=comm)

        results = run_threaded(worker, WORLD)
        for sol in results:
            assert np.linalg.norm(sol - ref) / np.linalg.norm(ref) < 1e-6
        # Bit-identical across ranks: every rank solved the same system
        # from identical allreduce results — the congruence invariant.
        for sol in results[1:]:
            assert np.array_equal(sol, results[0])

    @pytest.mark.parametrize("solver", ["dense", "cg"])
    def test_processes_matches_serial_big_batch(self, solver):
        o, g = _problem(d=12, batch=32, seed=3)
        ref = StochasticReconfiguration(
            diag_shift=1e-3, solver="dense"
        ).natural_gradient(o, g)
        shards = _shards(o, 2)
        results = run_processes(_mp_worker, 2, args=(shards, g, solver))
        for sol in results:
            assert np.linalg.norm(sol - ref) / np.linalg.norm(ref) < 1e-6

    def test_cg_beyond_dense_threshold(self):
        """The regime the bug locked out: solver honoured past the dense
        crossover, still matching the serial dense solve."""
        o, g = _problem(d=120, batch=96, seed=1)
        ref = StochasticReconfiguration(
            diag_shift=1e-3, solver="dense"
        ).natural_gradient(o, g)
        shards = _shards(o, WORLD)

        def worker(comm, rank):
            sr = StochasticReconfiguration(diag_shift=1e-3, solver="auto")
            sol = sr.natural_gradient(shards[rank], g, comm=comm)
            return sol, sr.last_solve

        for sol, info in run_threaded(worker, WORLD):
            # 24 local rows, 96 global: 'auto' resolved on the global count
            assert info.solver == "cg" and info.samples == 96
            assert np.linalg.norm(sol - ref) / np.linalg.norm(ref) < 1e-6

    def test_serial_comm_is_equivalent_to_no_comm(self):
        from repro.distributed.serial import SerialCommunicator

        o, g = _problem(d=10)
        sr = StochasticReconfiguration(diag_shift=1e-3, solver="cg")
        a = sr.natural_gradient(o, g)
        b = sr.natural_gradient(o, g, comm=SerialCommunicator())
        assert np.array_equal(a, b)


class TestCommVolume:
    def test_cg_never_moves_dxd(self):
        """Acceptance criterion: with solver='cg' the per-solve collective
        volume never reaches the d×d matrix the dense path pays for,
        counted from ``CommStats``: one allgather of this rank's rows,
        whatever ``N`` is against ``d`` and whatever ``cg_maxiter`` says."""
        d = 200
        dxd = d * d * 8

        def worker(comm, rank, shards, g, solver, budget):
            sr = StochasticReconfiguration(
                diag_shift=1.0, solver=solver, cg_maxiter=budget
            )
            sr.natural_gradient(shards[rank], g, comm=comm)
            return sr.last_solve

        for batch, unequal in ((256, False), (128, True)):
            o, g = _problem(d=d, batch=batch, seed=2)
            shards = _shards(o, WORLD, unequal=unequal)
            for budget in (8, None):
                infos = run_threaded(worker, WORLD, args=(shards, g, "cg", budget))
                for rank, info in enumerate(infos):
                    assert info.solver == "cg" and info.iterations == 0
                    assert info.comm_bytes == len(shards[rank]) * d * 8 < dxd
            dense = run_threaded(worker, WORLD, args=(shards, g, "dense", None))[0]
            assert dense.comm_bytes >= dxd  # the dense path is inherently O(d²)

    def test_metrics_record_iterations_and_bytes(self):
        from repro.obs import Metrics

        o, g = _problem(d=16)
        shards = _shards(o, 2)

        def worker(comm, rank):
            sr = StochasticReconfiguration(diag_shift=1e-3, solver="cg")
            sr.metrics = Metrics()
            sr.natural_gradient(shards[rank], g, comm=comm)
            return sr.metrics.snapshot(), sr.last_solve

        snap, info = run_threaded(worker, 2)[0]
        assert snap["counters"]["sr.solves"] == 1
        assert snap["counters"]["sr.sample_space_solves"] == 1
        assert info.iterations == 0  # a direct solve
        assert snap["counters"]["sr.comm_bytes"] == info.comm_bytes > 0
        assert snap["gauges"]["sr.residual"] == info.residual < 1e-6


class TestMatvecProperty:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 12),
        batch=st.integers(4, 24),
        diag_shift=st.floats(1e-3, 1.0),
        solver=st.sampled_from(["cg", "dense", "auto"]),
    )
    def test_distributed_matvec_equals_dense_global_s(
        self, seed, d, batch, diag_shift, solver
    ):
        """∀ F: the sharded solution δ satisfies (S_global + λI) δ == F."""
        rng = np.random.default_rng(seed)
        o = rng.normal(size=(batch, d))
        f = rng.normal(size=d)
        s = StochasticReconfiguration.fisher_matrix(o)
        shards = _shards(o, 2, unequal=batch % 2 == 1)

        def worker(comm, rank):
            sr = StochasticReconfiguration(diag_shift=diag_shift, solver=solver)
            return sr.natural_gradient(shards[rank], f, comm=comm), sr.last_solve

        for delta, info in run_threaded(worker, 2):
            assert info.samples == batch
            np.testing.assert_allclose(
                s @ delta + diag_shift * delta, f, atol=1e-9, rtol=1e-9
            )

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 10))
    def test_serial_operator_matches_dense(self, seed, d):
        rng = np.random.default_rng(seed)
        o = rng.normal(size=(16, d))
        f = rng.normal(size=d)
        sr = StochasticReconfiguration(diag_shift=0.5, solver="cg")
        delta = sr.natural_gradient(o, f)
        assert sr.last_solve.samples == 16
        np.testing.assert_allclose(
            StochasticReconfiguration.fisher_matrix(o) @ delta + 0.5 * delta,
            f,
            atol=1e-10,
        )


class TestSanitizerCongruence:
    @pytest.mark.parametrize("solver", ["dense", "cg"])
    def test_all_ranks_issue_congruent_collectives(self, solver):
        """Every rank must run the identical collective sequence through a
        solve — same count, kinds, shapes — or the sanitizer raises."""
        o, g = _problem(d=20, batch=48, seed=5)
        shards = _shards(o, 3, unequal=True)

        def worker(comm, rank):
            sane = CommSanitizer(comm, timeout=20.0)
            sr = StochasticReconfiguration(diag_shift=1e-3, solver=solver)
            sol = sr.natural_gradient(shards[rank], g, comm=sane)
            sane.barrier()  # flush + verify outstanding fingerprints
            return sol, [r.kind for r in sane.records]

        results = run_threaded(worker, 3)
        kinds = results[0][1]
        for _, k in results[1:]:
            assert k == kinds

    def test_vqmc_sr_steps_congruent_under_sanitizer(self, small_tim):
        """End to end: VQMC SR-CG training steps under the sanitizer —
        replicas in lock-step, no mismatched collective."""
        from repro.core.vqmc import VQMC
        from repro.models import MADE
        from repro.optim import SGD
        from repro.samplers import AutoregressiveSampler

        def worker(comm, rank):
            sane = CommSanitizer(comm, timeout=30.0)
            model = MADE(6, hidden=8, rng=np.random.default_rng(0))
            vqmc = VQMC(
                model, small_tim, AutoregressiveSampler(),
                SGD(model.parameters(), lr=0.05),
                sr=StochasticReconfiguration(solver="cg"),
                comm=sane, seed=np.random.default_rng(100 + rank),
            )
            vqmc.run(3, batch_size=16)
            assert vqmc.sr.last_solve.solver == "cg"
            assert vqmc.sr.last_solve.distributed
            sane.barrier()
            return model.flat_parameters()

        results = run_threaded(worker, 3)
        for r in results[1:]:
            assert np.allclose(r, results[0], atol=1e-12)
