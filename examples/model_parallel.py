"""Model parallelism: sharding the MADE hidden layer across ranks.

The paper's §4 names two parallelisation avenues and implements only the
second (sampling parallelism). This example runs the first: each rank
stores 1/L of the hidden layer; a forward pass combines the per-rank
partial logits with one allreduce. The sharded ensemble is numerically
identical to the single-process model — verified live below — while each
rank holds only ~1/L of the parameters (the paper's memory-bound regime).

Run:  python examples/model_parallel.py
"""

from __future__ import annotations

import numpy as np

from repro.core import VQMC
from repro.distributed import run_threaded
from repro.distributed.model_parallel import ShardedMADE
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.models.made import made_num_parameters
from repro.optim import SGD
from repro.samplers import AutoregressiveSampler

N, HIDDEN, SEED = 16, 48, 7
ITERS, BATCH = 60, 128


def worker(comm, rank):
    model = ShardedMADE(N, HIDDEN, comm, seed=SEED)
    local_params = model.num_parameters()
    ham = TransverseFieldIsing.random(N, seed=99)
    vqmc = VQMC(
        model, ham, AutoregressiveSampler(),
        SGD(model.parameters(), lr=0.1),
        seed=3,  # same stream on every rank: replicas must see the same batch
    )
    energies = [vqmc.step(batch_size=BATCH).stats.mean for _ in range(ITERS)]
    return local_params, energies


def main() -> None:
    ham = TransverseFieldIsing.random(N, seed=99)
    reference = MADE(N, hidden=HIDDEN, rng=np.random.default_rng(SEED))
    # The shards store dense weight blocks; the reference stores only the
    # weights its masks connect, so its row shows the dense count they split.
    total_params = made_num_parameters(N, HIDDEN)
    vqmc_ref = VQMC(
        reference, ham, AutoregressiveSampler(),
        SGD(reference.parameters(), lr=0.1), seed=3,
    )
    ref_energies = [vqmc_ref.step(batch_size=BATCH).stats.mean for _ in range(ITERS)]

    print(f"TIM n={N}, MADE h={HIDDEN} — {total_params} parameters total\n")
    print(f"{'ranks':>5s} {'params/rank':>12s} {'final E':>10s} "
          f"{'max |ΔE| vs reference':>22s}")
    print(f"{1:5d} {total_params:12d} {ref_energies[-1]:10.4f} {'—':>22s}")
    for world in (2, 4):
        results = run_threaded(worker, world)
        local_params = results[0][0]
        max_dev = max(
            abs(np.asarray(e) - np.asarray(ref_energies)).max()
            for _, e in results
        )
        print(f"{world:5d} {local_params:12d} {results[0][1][-1]:10.4f} "
              f"{max_dev:22.2e}")
    print(
        "\nEvery sharded run tracks the single-process training trajectory to\n"
        "machine precision while storing ~1/L of the weights per rank."
    )


if __name__ == "__main__":
    main()
