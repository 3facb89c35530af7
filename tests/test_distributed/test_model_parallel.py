"""Model parallelism: a sharded MADE must be numerically identical to the
single-process reference, shard-for-shard and end-to-end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed import run_threaded
from repro.distributed.model_parallel import ShardedMADE, shard_bounds
from repro.distributed.serial import SerialCommunicator
from repro.models import MADE

N, HIDDEN, SEED = 8, 13, 123


def reference_made() -> MADE:
    return MADE(N, hidden=HIDDEN, rng=np.random.default_rng(SEED))


def dense_o(ref: MADE, o: np.ndarray) -> np.ndarray:
    """The reference's per-sample rows in the sharded model's dense layout
    ``[W1 | b1 | W2 | b2]``: each packed weight block scattered into its
    mask, zero where the mask is."""
    parts, at = [], 0
    for layer in ref.fc_layers:
        live, size = layer.pattern, layer.weight.size
        block = np.zeros((len(o), *live.shape))
        block[:, live] = o[:, at:at + size]
        parts += [block.reshape(len(o), -1), o[:, at + size:at + size + layer.bias.size]]
        at += size + layer.bias.size
    return np.concatenate(parts, axis=1)


class TestShardBounds:
    def test_partition_covers_everything(self):
        bounds = shard_bounds(13, 4)
        assert bounds[0][0] == 0 and bounds[-1][1] == 13
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c
        sizes = [b - a for a, b in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_single_shard(self):
        assert shard_bounds(7, 1) == [(0, 7)]


class TestEquivalence:
    def test_serial_shard_equals_reference(self, rng):
        sharded = ShardedMADE(N, HIDDEN, SerialCommunicator(), seed=SEED)
        ref = reference_made()
        x = (rng.random((9, N)) < 0.5).astype(float)
        assert np.allclose(sharded.log_prob_array(x), ref.log_prob(x).data, atol=1e-12)
        assert np.allclose(sharded.conditionals(x), ref.conditionals(x), atol=1e-12)

    @pytest.mark.parametrize("world", [2, 3, 4])
    def test_multi_rank_forward_equals_reference(self, world, rng):
        ref = reference_made()
        x = (rng.random((6, N)) < 0.5).astype(float)
        expect = ref.log_prob(x).data

        def worker(comm, rank):
            model = ShardedMADE(N, HIDDEN, comm, seed=SEED)
            return model.log_prob_array(x)

        for got in run_threaded(worker, world):
            assert np.allclose(got, expect, atol=1e-10)

    def test_sampling_identical_across_ranks_and_to_reference(self):
        ref = reference_made()
        expect = ref.sample(32, np.random.default_rng(7))

        def worker(comm, rank):
            model = ShardedMADE(N, HIDDEN, comm, seed=SEED)
            return model.sample(32, np.random.default_rng(7))

        results = run_threaded(worker, 3)
        for got in results:
            assert np.array_equal(got, expect)

    def test_gathered_weights_match_reference(self):
        ref = reference_made()

        def worker(comm, rank):
            # the shards, reassembled: hidden units split w1/b1 by rows and
            # w2 by columns; one rank owns the output bias
            model = ShardedMADE(N, HIDDEN, comm, seed=SEED)
            b2 = model.b2.data if model.owns_output_bias else np.zeros(N)
            return {
                "w1": np.concatenate(comm.allgather(model.w1.data), axis=0),
                "b1": np.concatenate(comm.allgather(model.b1.data), axis=0),
                "w2": np.concatenate(comm.allgather(model.w2.data), axis=1),
                "b2": comm.allreduce(b2, op="sum"),
            }

        # the reference stores the connected weights only
        for full in run_threaded(worker, 4):
            assert np.allclose(full["w1"][ref.fc1.pattern], ref.fc1.weight.data)
            assert np.allclose(full["b1"], ref.fc1.bias.data)
            assert np.allclose(full["w2"][ref.fc2.pattern], ref.fc2.weight.data)
            assert np.allclose(full["b2"], ref.fc2.bias.data)

    def test_per_sample_grads_concatenate_to_reference(self, rng):
        """Stacking every rank's shard gradients must reproduce the full
        per-sample gradient of the reference model (up to reordering)."""
        ref = reference_made()
        x = (rng.random((5, N)) < 0.5).astype(float)
        o_ref = dense_o(ref, np.asarray(ref.log_psi_and_grads(x)[1]))
        # Reference layout: [W1 (h,n) | b1 (h) | W2 (n,h) | b2 (n)].
        h, n = HIDDEN, N
        w1_ref = o_ref[:, : h * n].reshape(5, h, n)
        b1_ref = o_ref[:, h * n : h * n + h]
        w2_ref = o_ref[:, h * n + h : h * n + h + n * h].reshape(5, n, h)
        b2_ref = o_ref[:, -n:]

        def worker(comm, rank):
            model = ShardedMADE(N, HIDDEN, comm, seed=SEED)
            _, o = model.log_psi_and_grads(x)
            return model.shard, o

        results = run_threaded(worker, 3)
        for (lo, hi), o in results:
            hr = hi - lo
            w1 = o[:, : hr * n].reshape(5, hr, n)
            b1 = o[:, hr * n : hr * n + hr]
            w2 = o[:, hr * n + hr : hr * n + hr + n * hr].reshape(5, n, hr)
            b2 = o[:, -n:]
            assert np.allclose(w1, w1_ref[:, lo:hi], atol=1e-10)
            assert np.allclose(b1, b1_ref[:, lo:hi], atol=1e-10)
            assert np.allclose(w2, w2_ref[:, :, lo:hi], atol=1e-10)
            if lo == 0:  # rank 0 owns the output bias
                assert np.allclose(b2, b2_ref, atol=1e-10)
            else:
                assert np.allclose(b2, 0.0)


class TestTraining:
    def test_model_parallel_vqmc_matches_single_process(self):
        """Full VQMC training with a sharded model must track the reference
        run step for step (same samples, same updates)."""
        from repro.core.vqmc import VQMC
        from repro.hamiltonians import TransverseFieldIsing
        from repro.optim import SGD
        from repro.samplers import AutoregressiveSampler

        ham = TransverseFieldIsing.random(N, seed=5)
        iters, bs = 5, 32

        ref = reference_made()
        vqmc_ref = VQMC(
            ref, ham, AutoregressiveSampler(), SGD(ref.parameters(), lr=0.1),
            seed=9,
        )
        ref_energies = [vqmc_ref.step(batch_size=bs).stats.mean for _ in range(iters)]

        def worker(comm, rank):
            model = ShardedMADE(N, HIDDEN, comm, seed=SEED)
            vqmc = VQMC(
                model, ham, AutoregressiveSampler(),
                SGD(model.parameters(), lr=0.1),
                seed=9,
            )
            return [vqmc.step(batch_size=bs).stats.mean for _ in range(iters)]

        for energies in run_threaded(worker, 3):
            assert np.allclose(energies, ref_energies, atol=1e-9)

    def test_default_config_trains_with_adam(self):
        """Adam, no SR, the default config: the step takes the closed form
        (``log_psi`` records no graph, so a tape backward through it could
        not run), moves the parameters, and matches the per-sample oracle
        step on the same batch."""
        from repro.core.energy import grad_from_per_sample, local_energies
        from repro.core.vqmc import VQMC
        from repro.hamiltonians import TransverseFieldIsing
        from repro.optim import Adam
        from repro.samplers import AutoregressiveSampler

        n, hidden, bs = 12, 20, 64
        ham = TransverseFieldIsing.random(n, seed=4)
        model = ShardedMADE(n, hidden, SerialCommunicator(), seed=1)
        before = model.flat_parameters()
        vqmc = VQMC(model, ham, AutoregressiveSampler(), Adam(model.parameters()), seed=2)
        vqmc.step(batch_size=bs)
        assert not np.allclose(model.flat_parameters(), before)

        oracle = ShardedMADE(n, hidden, SerialCommunicator(), seed=1)
        x = AutoregressiveSampler().sample(oracle, bs, np.random.default_rng(2))
        _, o = oracle.log_psi_and_grads(x)
        oracle.set_flat_grad(grad_from_per_sample(o, local_energies(oracle, ham, x)))
        Adam(oracle.parameters()).step()
        np.testing.assert_allclose(model.flat_parameters(), oracle.flat_parameters(),
                                   rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("world", [1, 2, 4])
    def test_each_rank_holds_only_its_shard(self, world):
        """Counting the arrays a view keeps alive (``.base``), the ranks
        together hold one copy of the weights and masks plus one output
        bias each — no rank keeps the full matrices its shard was cut from."""
        n, hidden = 16, 40

        def held(comm, rank):
            model = ShardedMADE(n, hidden, comm, seed=0)
            arrays = [model.mask1, model.mask2, *(p.data for p in model.parameters())]
            return sum((a if a.base is None else a.base).nbytes for a in arrays)

        ranks = run_threaded(held, world)
        floats = 2 * hidden * n + hidden  # w1, w2, b1 split; b2 on every rank
        masks = 2 * hidden * n  # one byte a flag
        assert sum(ranks) == 8 * (floats + world * n) + masks

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardedMADE(N, 1, _FakeComm(4), seed=0)


class _FakeComm:
    def __init__(self, size):
        self.size = size
        self.rank = 0
