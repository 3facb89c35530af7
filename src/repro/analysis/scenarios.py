"""Protocol scenarios for the schedule explorer.

Each :class:`Scenario` is a small multi-rank program over the real
distributed stack (``ThreadCommunicator`` → the layers
:func:`~repro.distributed.comm.build_comm` puts on it → elastic
handshakes), written so a *correct* protocol completes cleanly
under every schedule, while a seeded fault hook re-introduces one of the
historical elastic bugs:

- ``recv-livelock`` flips :data:`repro.distributed.resilient
  ._DISCARD_DEADLINE` off, disabling the overall escalation deadline in
  ``_recv_loop`` — a peer flooding discardable JOIN re-announcements then
  keeps the receive alive forever (the explorer reports *livelock*).
- ``grow-double-sync`` flips :data:`repro.distributed.supervisor
  ._SKIP_SYNC_AFTER_JOIN` off — the joiner, admitted inside the
  survivors' sync boundary, runs the sync allgather the survivors are
  already past, interleaving mismatched collectives on the grown group
  (the explorer reports crossed payloads or a deadlock).

The ``allreduce``, ``shrink`` and ``full-stack`` scenarios carry no bug;
they are the regression surface proving the *fixed* protocol — and the
layer order ``build_comm`` emits — is schedule-clean, and
the CI gate runs them (plus the two seeded scenarios un-seeded) under a
bounded exploration budget.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Scenario", "SCENARIOS", "get_scenario", "scenario_names"]


@dataclass(frozen=True)
class Scenario:
    """One explorable protocol program."""

    name: str
    description: str
    world_size: int
    fn: Callable  # fn(comm, rank, shared_dict) -> None
    #: human name of the historical bug the fault hooks re-introduce
    bug: str | None = None
    #: (module, attribute, seeded value) triples applied while seeded
    fault_hooks: tuple = ()
    #: exception reprs (prefix match) that a clean run may legitimately
    #: surface from a rank
    tolerated_errors: tuple = ()
    #: event budget suited to the scenario's message volume
    default_max_steps: int = 4000

    @contextmanager
    def seeded(self, on: bool):
        """Apply the fault hooks for the duration of one run."""
        if not on or not self.fault_hooks:
            yield
            return
        saved = []
        try:
            for mod_name, attr, value in self.fault_hooks:
                mod = importlib.import_module(mod_name)
                saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, value)
            yield
        finally:
            for mod, attr, old in reversed(saved):
                setattr(mod, attr, old)


# -- scenario programs ------------------------------------------------------


def _sc_allreduce(comm, rank: int, shared: dict) -> None:
    """Plain congruent collectives: two allreduces and a barrier."""
    x = np.full(4, float(rank + 1))
    out = comm.allreduce(x)
    assert np.allclose(out, 6.0), f"allreduce sum wrong: {out}"
    out2 = comm.allreduce(out, op="mean")
    assert np.allclose(out2, 6.0), f"allreduce mean wrong: {out2}"
    comm.barrier()


def _sc_shrink(comm, rank: int, shared: dict) -> None:
    """Rank 2 dies before the detection round; 0 and 1 agree on the
    shrunken world and keep training on it."""
    from repro.distributed.comm import build_comm
    from repro.distributed.elastic import ElasticConfig, shrink_world
    from repro.distributed.resilient import RetryPolicy

    if rank == 2:
        return  # crashed: never heartbeats, never answers
    policy = RetryPolicy(max_attempts=2, backoff_base=0.01, attempt_timeout=0.2)
    rcomm = build_comm(comm, retry=policy)
    cfg = ElasticConfig(heartbeat_timeout=1.0, consensus_timeout=1.0)
    sub = shrink_world(rcomm, [0, 1, 2], epoch=1, config=cfg)
    assert sub.group == [0, 1], f"wrong survivor set: {sub.group}"
    out = sub.allreduce(np.full(2, float(sub.rank + 1)))
    assert np.allclose(out, 3.0), f"post-shrink allreduce wrong: {out}"


def _sc_recv_livelock(comm, rank: int, shared: dict) -> None:
    """A restarted rank floods JOIN re-announcements at a peer blocked in
    a data receive. Discarded frames consume no retry attempt; the overall
    escalation deadline (the fix) is what turns the flood into a bounded
    ``RankFailure`` instead of an eternal receive."""
    from repro.distributed.comm import RankFailure, build_comm
    from repro.distributed.resilient import JOIN_TAG, RetryPolicy

    policy = RetryPolicy(max_attempts=2, backoff_base=0.05, attempt_timeout=0.25)
    rcomm = build_comm(comm, retry=policy)
    if rank == 0:
        try:
            rcomm.recv(1, timeout=0.25)  # expects data; none will ever come
            raise AssertionError("recv returned data from a flooding joiner")
        except RankFailure:
            shared["escalated"] = True  # the fixed behaviour: bounded
        finally:
            shared["stop"] = True
    else:
        import time

        join_epoch = 0.0  # a restarted rank starts from epoch zero
        announce = np.array([JOIN_TAG, 1.0, join_epoch])
        while not shared.get("stop"):  # a joiner re-announces until invited
            rcomm.send_ctrl(0, announce)
            time.sleep(0.1)


def _sc_full_stack(comm, rank: int, shared: dict) -> None:
    """Every static layer ``build_comm`` can put beneath user code — fault
    injector, resilient framing, sanitizer, in the order it emits them —
    riding out a duplicated and a transiently corrupted message under
    allreduce → allgather → barrier."""
    from repro.distributed.comm import build_comm
    from repro.distributed.faults import FaultEvent, FaultPlan
    from repro.distributed.resilient import RetryPolicy

    plan = FaultPlan(
        [
            FaultEvent(kind="duplicate", rank=0, index=1),
            FaultEvent(kind="corrupt", rank=1, index=2, transient=True),
        ],
        seed=5,
    )
    policy = RetryPolicy(max_attempts=3, backoff_base=0.01, attempt_timeout=0.2)
    stack = build_comm(comm, plan=plan, retry=policy, sanitize=2.0)
    out = stack.allreduce(np.full(4, float(rank + 1)))
    assert np.allclose(out, 6.0), f"allreduce sum wrong: {out}"
    got = stack.allgather(np.full(2, 10.0 * rank))
    want = [[10.0 * p] * 2 for p in range(3)]
    assert np.array_equal(got, want), f"allgather blocks crossed: {got}"
    stack.barrier()
    injector = stack.inner.inner  # sanitizer → resilient → fault injector
    expect = {0: {"duplicate": 1}, 1: {"corrupt": 1}, 2: {}}[rank]
    assert injector.injected == expect, f"faults injected: {injector.injected}"


def _sc_double_sync(comm, rank: int, shared: dict) -> None:
    """The grow handshake's step boundary, distilled: survivors admit a
    joiner *inside* their sync boundary, then head into the step's
    allreduce on the grown group. The joiner must skip its own sync — the
    handshake stood in for it (``_SKIP_SYNC_AFTER_JOIN``); running it
    anyway interleaves an allgather with the survivors' allreduce."""
    from repro.distributed import supervisor
    from repro.distributed.comm import SubCommunicator

    # The rank-divergent collectives below are the scenario's *subject*:
    # each role (survivor / joiner) issues the handshake's congruent
    # sequence on its side, which is exactly what the explorer verifies.
    step_vec = np.array([1.0, 2.0])
    if rank in (0, 1):
        survivors = SubCommunicator(comm, [0, 1])
        gathered = survivors.allgather(  # repro-lint: disable=dist-rank-collective -- survivors' sync boundary: congruent within the [0, 1] group, the joiner is not a member yet
            np.array([float(rank), 1.0])
        )
        assert len(gathered) == 2
        if rank == 0:  # leader invites the joiner inside the boundary
            comm.send(2, np.array([7.0, 1.0, 0.0]))
        grown = SubCommunicator(comm, [0, 1, 2])
        out = grown.allreduce(step_vec)  # repro-lint: disable=dist-rank-collective -- step collective on the grown group: every member of [0, 1, 2] issues it on both role paths
        assert np.allclose(out, 3.0 * step_vec), f"crossed payloads: {out}"
    else:
        invite = comm.recv(0, timeout=2.0)
        assert invite[0] == 7.0, f"not an invite: {invite}"
        grown = SubCommunicator(comm, [0, 1, 2])
        if not supervisor._SKIP_SYNC_AFTER_JOIN:
            # The historical bug: the joiner's own sync boundary, run
            # after the survivors already passed theirs.
            grown.allgather(np.array([2.0, 1.0]))  # repro-lint: disable=dist-rank-collective -- the seeded double-sync bug itself; only runs when the fault hook is flipped
        out = grown.allreduce(step_vec)  # repro-lint: disable=dist-rank-collective -- step collective on the grown group: every member of [0, 1, 2] issues it on both role paths
        assert np.allclose(out, 3.0 * step_vec), f"crossed payloads: {out}"


SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in [
        Scenario(
            name="allreduce",
            description="two congruent allreduces + barrier on 3 ranks",
            world_size=3,
            fn=_sc_allreduce,
        ),
        Scenario(
            name="shrink",
            description="rank 2 dies; 0 and 1 run the heartbeat/consensus "
            "shrink handshake and allreduce on the survivor world",
            world_size=3,
            fn=_sc_shrink,
        ),
        Scenario(
            name="full-stack",
            description="allreduce, allgather and barrier through the whole "
            "build_comm stack (faults → retry → sanitizer) while a message "
            "is duplicated and another transiently corrupted",
            world_size=3,
            fn=_sc_full_stack,
        ),
        Scenario(
            name="recv-livelock",
            description="a flooding JOIN re-announcer vs a blocked data "
            "recv; the escalation deadline bounds it (seeded: livelock)",
            world_size=2,
            fn=_sc_recv_livelock,
            bug="recv livelock (discarded frames reset the retry window)",
            fault_hooks=(
                ("repro.distributed.resilient", "_DISCARD_DEADLINE", False),
            ),
            default_max_steps=1500,
        ),
        Scenario(
            name="grow-double-sync",
            description="joiner admitted inside the survivors' sync "
            "boundary; skipping its own sync keeps the grown group "
            "congruent (seeded: double sync boundary)",
            world_size=3,
            fn=_sc_double_sync,
            bug="double sync boundary after JOIN admission",
            fault_hooks=(
                ("repro.distributed.supervisor", "_SKIP_SYNC_AFTER_JOIN", False),
            ),
        ),
    ]
}


def get_scenario(name: str) -> Scenario:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {sorted(SCENARIOS)}"
        ) from None


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)
