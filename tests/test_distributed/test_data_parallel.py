"""Data-parallel VQMC: gradient exactness, replica consistency, backends."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.vqmc import VQMC
from repro.distributed import run_threaded
from repro.distributed.data_parallel import run_data_parallel
from repro.distributed.mp import run_processes
from repro.distributed.serial import SerialCommunicator
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.optim import SGD, Adam, StochasticReconfiguration
from repro.samplers import AutoregressiveSampler, Sampler
from repro.utils.rng import spawn_generators


def _builder_factory(n=6, seed=7, lr=0.05, sr=False):
    def builder(rank):
        model = MADE(n, hidden=8, rng=np.random.default_rng(seed))
        ham = TransverseFieldIsing.random(n, seed=1)
        opt = Adam(model.parameters(), lr=lr)
        if sr:
            return model, ham, AutoregressiveSampler(), SGD(model.parameters(), lr=0.1), StochasticReconfiguration()
        return model, ham, AutoregressiveSampler(), opt

    return builder


class TestReplicaConsistency:
    def test_all_ranks_hold_identical_parameters_after_training(self):
        """The whole point of data parallelism: replicas never diverge."""

        def worker(comm, rank):
            model = MADE(6, hidden=8, rng=np.random.default_rng(rank))  # ≠ inits!
            ham = TransverseFieldIsing.random(6, seed=1)
            vqmc = VQMC(
                model, ham, AutoregressiveSampler(),
                SGD(model.parameters(), lr=0.1),
                comm=comm, seed=np.random.default_rng(100 + rank),
            )
            vqmc.run(5, batch_size=32)
            return model.flat_parameters()

        results = run_threaded(worker, 4)
        for r in results[1:]:
            assert np.allclose(r, results[0], atol=1e-12)

    def test_broadcast_aligns_different_inits(self):
        def worker(comm, rank):
            model = MADE(6, hidden=8, rng=np.random.default_rng(rank * 11))
            ham = TransverseFieldIsing.random(6, seed=1)
            VQMC(
                model, ham, AutoregressiveSampler(),
                SGD(model.parameters(), lr=0.1), comm=comm,
                seed=rank,
            )
            return model.flat_parameters()

        results = run_threaded(worker, 3)
        for r in results[1:]:
            assert np.allclose(r, results[0])


class TestGradientExactness:
    def test_distributed_gradient_equals_big_batch(self, small_tim):
        """L ranks × mbs samples with global centring must reproduce the
        single-process gradient over the concatenated batch exactly."""
        n, total = 6, 64
        L = 4
        mbs = total // L
        # Pre-draw the global batch and give each rank its slice via a
        # deterministic per-rank sampler stub.
        master = MADE(n, hidden=8, rng=np.random.default_rng(3))
        ham = small_tim
        full_x = master.sample(total, np.random.default_rng(5))

        class FixedSampler(Sampler):
            exact = True

            def __init__(self, x):
                self.x = x

            def sample(self, model, batch_size, rng):
                assert batch_size == self.x.shape[0]
                return self.x

            @property
            def last_stats(self):
                from repro.samplers.base import SamplerStats

                return SamplerStats()

        # Single-process reference.
        ref_model = MADE(n, hidden=8, rng=np.random.default_rng(3))
        ref = VQMC(
            ref_model, ham, FixedSampler(full_x),
            SGD(ref_model.parameters(), lr=0.1), seed=0,
        )
        ref.step(batch_size=total)
        expect = ref_model.flat_parameters()

        def worker(comm, rank):
            model = MADE(n, hidden=8, rng=np.random.default_rng(3))
            shard = full_x[rank * mbs : (rank + 1) * mbs]
            vqmc = VQMC(
                model, ham, FixedSampler(shard),
                SGD(model.parameters(), lr=0.1), comm=comm, seed=0,
            )
            vqmc.step(batch_size=mbs)
            return model.flat_parameters()

        results = run_threaded(worker, L)
        for r in results:
            assert np.allclose(r, expect, atol=1e-12)

    def test_autograd_exact_with_unequal_rank_batches(self, small_tim):
        """Regression: the removed autograd path normalised by `bsz ×
        world_size`, i.e. it assumed equal per-rank batches — unequal shards
        (the elastic-shrink shape) gave a biased gradient. The step must use
        the global sample count."""
        n, total, L = 6, 48, 2
        splits = [30, 18]  # deliberately unequal
        master = MADE(n, hidden=8, rng=np.random.default_rng(3))
        full_x = master.sample(total, np.random.default_rng(5))

        class FixedSampler(Sampler):
            exact = True

            def __init__(self, x):
                self.x = x

            def sample(self, model, batch_size, rng):
                return self.x

            @property
            def last_stats(self):
                from repro.samplers.base import SamplerStats

                return SamplerStats()

        ref_model = MADE(n, hidden=8, rng=np.random.default_rng(3))
        ref = VQMC(
            ref_model, small_tim, FixedSampler(full_x),
            SGD(ref_model.parameters(), lr=0.1), seed=0,
        )
        ref.step(batch_size=total)
        expect = ref_model.flat_parameters()

        offsets = np.concatenate([[0], np.cumsum(splits)])

        def worker(comm, rank):
            model = MADE(n, hidden=8, rng=np.random.default_rng(3))
            shard = full_x[offsets[rank]:offsets[rank + 1]]
            vqmc = VQMC(
                model, small_tim, FixedSampler(shard),
                SGD(model.parameters(), lr=0.1), comm=comm, seed=0,
            )
            vqmc.step(batch_size=splits[rank])
            return model.flat_parameters()

        for r in run_threaded(worker, L):
            assert np.allclose(r, expect, atol=1e-12)

    @pytest.mark.parametrize("solver,atol", [("dense", 1e-9), ("cg", 1e-6)])
    def test_distributed_sr_equals_big_batch_sr(self, small_tim, solver, atol):
        """Distributed SR = single-process big-batch SR, for BOTH solvers —
        the configured solver must be honoured when `comm.size > 1`
        (regression: CG used to be silently replaced by a dense solve)."""
        n, total, L = 6, 32, 2
        mbs = total // L
        master = MADE(n, hidden=8, rng=np.random.default_rng(3))
        full_x = master.sample(total, np.random.default_rng(5))

        class FixedSampler(Sampler):
            exact = True

            def __init__(self, x):
                self.x = x

            def sample(self, model, batch_size, rng):
                return self.x

            @property
            def last_stats(self):
                from repro.samplers.base import SamplerStats

                return SamplerStats()

        ref_model = MADE(n, hidden=8, rng=np.random.default_rng(3))
        ref = VQMC(
            ref_model, small_tim, FixedSampler(full_x),
            SGD(ref_model.parameters(), lr=0.1),
            sr=StochasticReconfiguration(solver="dense"), seed=0,
        )
        ref.step(batch_size=total)
        expect = ref_model.flat_parameters()

        def worker(comm, rank):
            model = MADE(n, hidden=8, rng=np.random.default_rng(3))
            shard = full_x[rank * mbs : (rank + 1) * mbs]
            vqmc = VQMC(
                model, small_tim, FixedSampler(shard),
                SGD(model.parameters(), lr=0.1),
                sr=StochasticReconfiguration(solver=solver),
                comm=comm, seed=0,
            )
            vqmc.step(batch_size=mbs)
            assert vqmc.sr.last_solve.solver == solver
            assert vqmc.sr.last_solve.distributed
            return model.flat_parameters()

        for r in run_threaded(worker, L):
            assert np.allclose(r, expect, atol=atol)


def _hand_built_worker(comm, rank, builder, iterations, mbs, seed):
    """What ``run_data_parallel`` must equal: a bare ``VQMC.run`` per rank."""
    model, ham, sampler, opt, *sr = builder(rank)
    vqmc = VQMC(
        model, ham, sampler, opt, sr=sr[0] if sr else None, comm=comm,
        seed=spawn_generators(seed, comm.size)[rank],
    )
    vqmc.run(iterations, batch_size=mbs)
    return model.flat_parameters()


class TestRunDataParallel:
    @pytest.mark.parametrize("sr", [False, True], ids=["adam", "sgd+sr"])
    @pytest.mark.parametrize(
        "backend,world",
        [("threads", 1), ("threads", 2), ("threads", 4), ("processes", 2)],
    )
    def test_static_equals_hand_built_equals_idle_supervision(
        self, backend, world, sr, tmp_path
    ):
        """One worker serves both modes: the static run is a hand-built
        ``VQMC(comm=…).run(…)`` per rank, bit for bit, and a supervised run
        in which nothing fails is the static run, bit for bit."""
        builder, iters, mbs, seed = _builder_factory(sr=sr), 4, 16, 11
        args = (builder, iters, mbs, seed)
        if world == 1:
            hand = [_hand_built_worker(SerialCommunicator(), 0, *args)]
        else:
            runner = run_threaded if backend == "threads" else run_processes
            hand = runner(_hand_built_worker, world, args=args, timeout=120.0)

        static = run_data_parallel(
            builder, world, iters, mbs, seed=seed, backend=backend
        )
        supervised = run_data_parallel(
            builder, world, iters, mbs, seed=seed, backend=backend,
            checkpoint_dir=tmp_path / "ckpt", checkpoint_every=2,
        )
        assert len(static.final_params) == len(static.reports) == world
        for rank in range(world):
            assert np.array_equal(static.final_params[rank], hand[rank])
            assert np.array_equal(supervised.final_params[rank], hand[rank])
            assert static.reports[rank].completed_steps == iters
            assert supervised.reports[rank].restores == []
        assert np.array_equal(static.energy, supervised.energy)
        assert static.final_energy == supervised.final_energy
        assert static.reports[0].checkpoint_dir == ""
        assert list((tmp_path / "ckpt").glob("checkpoint_*.npz"))

    def test_world_size_one_uses_serial(self):
        res = run_data_parallel(_builder_factory(), 1, iterations=5, mini_batch_size=32)
        assert res.world_size == 1
        assert res.effective_batch_size == 32
        assert len(res.energy) == 5

    def test_threads_backend(self):
        res = run_data_parallel(
            _builder_factory(), 3, iterations=5, mini_batch_size=16, seed=1
        )
        assert res.world_size == 3
        assert res.effective_batch_size == 48
        assert res.wall_time > 0

    def test_process_backend(self):
        res = run_data_parallel(
            _builder_factory(), 2, iterations=3, mini_batch_size=16,
            seed=1, backend="processes",
        )
        assert res.world_size == 2
        assert np.isfinite(res.final_energy)

    def test_with_sr(self):
        res = run_data_parallel(
            _builder_factory(sr=True), 2, iterations=5, mini_batch_size=16, seed=2
        )
        assert np.isfinite(res.final_energy)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            run_data_parallel(
                _builder_factory(), 2, iterations=1, mini_batch_size=4,
                backend="quantum",
            )

    def test_unknown_backend_rejected_at_world_size_one(self):
        """Regression: the serial shortcut used to silently ignore an
        invalid backend instead of validating it."""
        with pytest.raises(ValueError, match="quantum"):
            run_data_parallel(
                _builder_factory(), 1, iterations=1, mini_batch_size=4,
                backend="quantum",
            )

    def test_larger_effective_batch_does_not_hurt(self):
        """Fig. 4's qualitative claim at miniature scale: more ranks (bigger
        effective batch) converge at least as well, on average."""
        small = run_data_parallel(
            _builder_factory(lr=0.05), 1, iterations=40, mini_batch_size=8, seed=3
        )
        big = run_data_parallel(
            _builder_factory(lr=0.05), 8, iterations=40, mini_batch_size=8, seed=3
        )
        # Average energy over the last 10 iterations, generous tolerance.
        assert big.energy[-10:].mean() <= small.energy[-10:].mean() + 0.3


class TestSerialCommunicator:
    def test_properties(self):
        comm = SerialCommunicator()
        assert comm.size == 1 and comm.rank == 0
        comm.barrier()
        assert np.allclose(comm.allreduce(np.arange(3.0)), np.arange(3.0))
        assert np.allclose(comm.broadcast(np.ones(2)), 1.0)
        assert len(comm.allgather(np.ones(2))) == 1

    def test_point_to_point_rejected(self):
        comm = SerialCommunicator()
        with pytest.raises(RuntimeError):
            comm.send(0, np.ones(1))
        with pytest.raises(RuntimeError):
            comm.recv(0)
