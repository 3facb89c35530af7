"""The contract of ``VQMC.step``, as one table.

Every way the step can run — plain or SR × distinct or collapsed batch ×
world — is held to a reference step assembled from the kept oracles
(``grad_from_per_sample`` on every row's ``log_psi_and_grads``,
``StochasticReconfiguration.natural_gradient``), none of which the driver
calls:

- serial, on a batch of distinct rows: bit-equal parameters;
- 2 thread ranks: the reference is the big-batch oracle on the union of the
  ranks' samples (N-rank ≡ big-batch), equal up to summation order, so those
  rows are held to 1e-10.

A plain row is also held to 1e-10 against ``grad_via_autograd``, the tape's
REINFORCE gradient: the closed form and the autograd engine are two
derivations of one gradient.

The ``sr`` rows are held to the same bounds as the others: the
natural-gradient solve is direct (``O`` in factored form, an exact
sample-space system; on 2 ranks one allgather of layer factors), so SR
amplifies roundoff by the system's condition number and by nothing else.
The ``collapsed`` rows run on a model that draws at most eight distinct
configurations, so the step evaluates every per-row quantity — ``log ψ``
and ``O``, the local energies and the SR system — once per distinct row,
and every batch sum becomes a count-weighted sum (on 2 ranks: rows grouped
across both ranks after the allgather). The oracle evaluates every row,
and a grouped sum adds in another order, so the collapsed rows are held to
1e-10 against it; the other rows draw no repeats at this size, which each
step checks, and stay bit-equal. The oracle steps on the driver's batches:
on distinct rows they must be the oracle sampler's own draws bit for bit,
while a collapsed model's are drawn from the sampler's memory as counts,
exact in distribution but on another stream. The step's ``distinct`` / ``rows`` span
attributes must report the distinct rows, on the gradient phase too.

The same rows pin the timer contract: the keys of ``phase_seconds`` are the
step's depth-1 span names, and the phases fit inside ``step_time``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import VQMC, VQMCConfig
from repro.core.energy import grad_from_per_sample, grad_via_autograd, local_energies
from repro.distributed.threads import run_threaded
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.obs import Tracer
from repro.optim import SGD, StochasticReconfiguration
from repro.samplers import AutoregressiveSampler
from repro.utils.rng import spawn_generators

N, BATCH, STEPS, SEED = 20, 32, 3, 5
#: sites a collapsed model leaves random: at most 2**3 distinct configurations
FREE_SITES = 3

def _parts(sr_on: bool, collapsed: bool = False):
    model = MADE(N, hidden=8, rng=np.random.default_rng(7))
    if collapsed:  # σ(30) rounds to 1 in sampling: sites ≥ FREE_SITES are 1
        model.fc_layers[-1].bias.data[FREE_SITES:] = 30.0
    ham = TransverseFieldIsing.random(N, seed=99)
    sr = StochasticReconfiguration() if sr_on else None
    return model, ham, sr, SGD(model.parameters(), lr=0.01)


def _reference(sr_on: bool, collapsed: bool, world: int, batches, autograd: bool = False):
    """Big-batch oracle steps over the driver's ``batches`` (per step, the
    ranks' batches in rank order); ``autograd`` takes the plain gradient
    from the tape instead of ``O``.

    On distinct rows each batch must be the oracle sampler's own draw from
    the ranks' streams, bit for bit. A collapsed model's batches repeat, so
    from its second step the driver's sampler draws them as counts over its
    memory: exact in distribution (``tests/test_samplers/test_counts.py``),
    on another stream, and the oracle steps on the driver's batches."""
    model, ham, sr, opt = _parts(sr_on, collapsed)
    sampler = AutoregressiveSampler()
    streams = spawn_generators(SEED, world)
    for drawn in batches:
        x = np.concatenate(drawn)
        if not collapsed:
            own = [sampler.sample(model, BATCH, g) for g in streams]
            assert np.array_equal(x, np.concatenate(own))
        local = local_energies(model, ham, x)
        model.zero_grad()
        if autograd:
            grad_via_autograd(model, x, local)
            grad = model.flat_grad()
        else:
            _, o = model.log_psi_and_grads(x)
            grad = grad_from_per_sample(o, local)
            if sr is not None:
                grad = sr.natural_gradient(o, grad)
        model.set_flat_grad(grad)
        opt.step()
    return model.flat_parameters()


def _drive(comm, rank, sr_on: bool, collapsed: bool, world: int):
    """``STEPS`` driver steps on one rank: final parameters, plus per step
    (phase_seconds, step_time, that step's depth-1 span names, the rows
    its local energies and its Gram matrix were evaluated on, its batch)."""
    model, ham, sr, opt = _parts(sr_on, collapsed)
    tracer = Tracer(rank=rank)
    sampler = AutoregressiveSampler()
    draw, batches = sampler.draw, []

    def recording(*args):
        x, rows = draw(*args)
        batches.append(x.copy())
        return x, rows

    sampler.draw = recording
    vq = VQMC(
        model, ham, sampler, opt, sr=sr, comm=comm,
        seed=spawn_generators(SEED, world)[rank],
        config=VQMCConfig(batch_size=BATCH),
        tracer=tracer,
    )
    steps = []
    for _ in range(STEPS):
        tracer.clear()
        result = vq.step()
        names = {e.name for e in tracer.events if e.depth == 1}
        attrs = {e.name: e.attrs for e in tracer.events}
        rows = (attrs["local_energy"]["distinct"], attrs.get("sr.gram", {}).get("rows"))
        assert rows[0] == result.distinct_rows
        gradient = [e.attrs["rows"] for e in tracer.events if e.name == "gradient"]
        assert gradient == [rows[0], rows[0]]
        if not collapsed:
            assert rows[0] == BATCH  # what keeps the bit-equal rows bit-equal
        steps.append((result.phase_seconds, result.step_time, names, rows, batches[-1]))
    return model.flat_parameters(), steps


@pytest.mark.parametrize("world", [1, 2], ids=["serial", "threads2"])
@pytest.mark.parametrize("collapsed", [False, True], ids=["distinct", "collapsed"])
@pytest.mark.parametrize("sr_on", [False, True], ids=["plain", "sr"])
def test_step_matches_the_oracle_step(sr_on, collapsed, world):
    args = (sr_on, collapsed, world)
    if world == 1:
        ranks = [_drive(None, 0, *args)]
    else:
        ranks = run_threaded(_drive, world, args=args)
    batches = [[steps[k][-1] for _, steps in ranks] for k in range(STEPS)]
    want = _reference(sr_on, collapsed, world, batches)
    tape = None if sr_on else _reference(False, collapsed, world, batches, autograd=True)
    for got, steps in ranks:
        if world == 1 and not collapsed:
            np.testing.assert_array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
        if tape is not None:
            np.testing.assert_allclose(got, tape, rtol=0.0, atol=1e-10)
        for phase_seconds, step_time, span_names, (distinct, gram_rows), _ in steps:
            expected = {"sample", "gradient", "local_energy", "optimizer"}
            if sr_on:
                expected.add("sr_solve")
            assert set(phase_seconds) == span_names == expected
            assert sum(phase_seconds.values()) <= step_time
            if collapsed:
                assert distinct <= 2**FREE_SITES
                # every SR row reports the rows its Gram matrix was built on
                assert gram_rows <= 2**FREE_SITES if sr_on else gram_rows is None


@pytest.mark.parametrize("bad", [0, -3])
def test_non_positive_batch_size_raises(bad):
    # `batch_size or config.batch_size` used to turn 0 into the configured
    # size and train on it silently.
    model, ham, _, opt = _parts(False)
    vq = VQMC(model, ham, AutoregressiveSampler(), opt, seed=1,
              config=VQMCConfig(batch_size=48))
    before = model.flat_parameters()
    with pytest.raises(ValueError, match="batch_size"):
        vq.step(batch_size=bad)
    with pytest.raises(ValueError, match="batch_size"):
        vq.run(2, batch_size=bad)
    np.testing.assert_array_equal(model.flat_parameters(), before)
