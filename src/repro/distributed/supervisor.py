"""The self-healing training supervisor: detect → shrink/grow → rebalance.

:class:`TrainingSupervisor` is the one distributed training driver: an
explicit state machine around the step loop. One rank's run moves through:

.. code-block:: text

          ┌─────────────────────────── StopTraining / iterations ── DONE
          │
    ──▶ RUN ── RankFailure ──▶ DETECT ──▶ RESTORE ──▶ RUN
          │        ▲ (another failure during recovery loops back)
          │
          ├── sync boundary ──▶ [REBALANCE] ──▶ RUN
          └── join consensus ─▶ GROW (invite + state broadcast) ──▶ RUN

- **RUN** steps the trainer through a :class:`~repro.core.vqmc.StepDriver`
  — ``VQMC.run``'s loop, callback lifecycle and isolated teardown; the
  supervisor is its first callback, which is where it checkpoints. Every
  ``sync_every`` steps it passes a *sync boundary*: per-rank sampling
  costs, local step times, and the locally-observed join announcements
  are allgathered, so every member reaches the same conclusions from the
  same data (no extra agreement round — consensus rides the
  step-boundary collective).
- **DETECT / RESTORE** is the PR-2 shrink contract (heartbeats + bitmap
  consensus + agreed-checkpoint restore), now *re-entrant*: a second
  failure during recovery — the case that used to escape the handler —
  loops back to detection on a fresh epoch instead of crashing the
  survivor.
- **GROW** admits announced joiners when the :class:`ScalingPolicy` says
  so: channel reset + invite (:func:`repro.distributed.elastic.grow_world`),
  then a parameter + optimizer + step broadcast on the enlarged world. The
  joiner's next step is congruent with the group's; survivors verify the
  broadcast parameters match their own (the lock-step invariant, enforced —
  also shape-checked under :class:`~repro.analysis.CommSanitizer`).
- **REBALANCE** feeds the allgathered per-sample costs to the
  :class:`~repro.distributed.ledger.BatchLedger`, shifting samples away
  from stragglers while the global batch stays constant (every rank runs
  the same deterministic split on the same data).

Observability: the supervisor emits ``elastic.*`` spans (``sync`` /
``detect`` / ``restore`` / ``grow`` / ``rejoin`` / ``rebalance``), counters
(``elastic.shrinks`` / ``grows`` / ``rebalances`` / ``join_requests`` /
``policy_grow_hints`` / ``policy_shrink_hints``) and gauges
(``elastic.world_size`` / ``elastic.epoch``) on the trainer's tracer and
metrics registry — see ``docs/observability.md``. A
:class:`~repro.obs.flight.FlightRecorder` passed among the callbacks is
treated as the run's black box: every shrink/grow/rejoin is noted on it
with epoch tags, and it is dumped on rank failure, eviction, and injected
crashes (so each surviving rank leaves a ``flight.rankNNN.json`` naming
the failed ranks and the agreed restore step).

Exits. An injected crash (:class:`~repro.distributed.faults
.InjectedRankCrash`) and an eviction both model process death: the rank
falls silent — no teardown hooks, no further communication — and returns
its report (``crashed`` / ``evicted``). Every other exit, normal or
exceptional, delivers the driver's teardown. Serial runs have no peer to
shrink with; their story is crash/restart (``resume="auto"``). With
``checkpoint_dir=None`` there is nothing to supervise — no checkpoint is
written, a ``RankFailure`` propagates: static data parallelism.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.core.callbacks import Callback
from repro.core.checkpoint import CheckpointCallback, CheckpointCorruptError
from repro.core.vqmc import StepDriver
from repro.distributed.comm import CommTimeoutError, RankFailure, SubCommunicator
from repro.distributed.elastic import (
    ElasticConfig,
    announce_join,
    await_invite,
    detect_survivors,
    grow_world,
)
from repro.distributed.faults import InjectedRankCrash
from repro.distributed.ledger import BatchLedger
from repro.obs.flight import FlightRecorder
from repro.obs.tracer import NULL_TRACER

__all__ = [
    "ResilientRunReport",
    "PolicyObservation",
    "ScalingPolicy",
    "TargetStepTimePolicy",
    "TargetSNRPolicy",
    "TrainingSupervisor",
]

#: Fault hook for the schedule explorer (repro.analysis.explore): setting
#: this False re-introduces the historical double-sync-boundary bug — a
#: joiner admitted *inside* the survivors' sync boundary would run its own
#: ``_sync`` allgather while the survivors are already past theirs and
#: into the step's allreduce, interleaving mismatched collectives on the
#: grown group. Production code must never touch it; the explorer's
#: seeded-bug scenarios flip it under a finally-guard.
_SKIP_SYNC_AFTER_JOIN = True


@dataclass
class ResilientRunReport:
    """One rank's account of a resilient training run (picklable)."""

    rank: int
    completed_steps: int = 0
    crashed: bool = False
    evicted: bool = False
    #: one entry per world shrink: {"epoch", "restored_step", "group"}
    restores: list = field(default_factory=list)
    final_group: list = field(default_factory=list)
    #: wall seconds spent in detection + consensus + restore, total
    recovery_seconds: float = 0.0
    comm_stats: dict = field(default_factory=dict)
    checkpoint_dir: str = ""
    #: one entry per world grow: {"epoch", "step", "joiners", "group", "seconds"}
    joins: list = field(default_factory=list)
    #: True on a rank that re-entered the world via :meth:`TrainingSupervisor.rejoin`
    rejoined: bool = False
    #: applied ledger rebalances (see :class:`~repro.distributed.ledger.BatchLedger`)
    rebalances: int = 0


@dataclass
class PolicyObservation:
    """Congruent inputs to a scaling decision (identical on every member:
    built from allgathered sync data and global energy statistics)."""

    step: int
    world_size: int
    #: the synchronous step time — max of the members' local step times
    step_seconds: float
    energy_mean: float
    energy_sem: float
    pending_joiners: int


class ScalingPolicy:
    """Decides whether the world *should* grow. The base policy always says
    ``"grow"`` (admit every announced joiner).

    ``decide`` must be a pure function of the (congruent)
    :class:`PolicyObservation` — every member evaluates it independently
    and they must agree, or the grow collective deadlocks. Returns
    ``"grow"`` (admit pending joiners), ``"hold"`` (keep the current
    world), or ``"shrink"`` (advisory: recorded as a metric hint; the
    supervisor never evicts healthy ranks).
    """

    def decide(self, obs: PolicyObservation) -> str:
        del obs
        return "grow"


class TrainingSupervisor(Callback):
    """Run a :class:`repro.core.VQMC` trainer under elastic supervision.

    Parameters
    ----------
    vqmc:
        The trainer. For multi-rank supervision its ``comm`` must be a
        :class:`~repro.distributed.resilient.ResilientCommunicator` (the
        *root* world — the supervisor swaps ``vqmc.comm`` to
        :class:`SubCommunicator` views of it as membership changes).
    checkpoint_dir, checkpoint_every, keep_last, resume:
        Shared directory of the per-rank crash-safe checkpoints (``None``,
        the default, switches supervision off), their cadence in steps (the
        starting step is always written, so recovery has a floor) and
        retention; ``resume="auto"`` restores the newest verifying one
        before training, ``False`` starts fresh.
    callbacks:
        Regular :class:`repro.core.Callback` objects; after a restore,
        replayed steps fire ``on_step`` again.
    elastic:
        Detection timeouts (:class:`ElasticConfig`).
    max_shrinks:
        Refuse to shrink more than this many times (``None`` = unlimited).
    ledger:
        Optional :class:`~repro.distributed.ledger.BatchLedger`; when given
        it owns the per-rank batch sizes (its ``global_batch`` is held
        constant through shrink, grow, and rebalance) and is fed the
        allgathered per-sample costs at every sync boundary. Construct it
        with ``world_size == vqmc.comm.size``.
    policy:
        :class:`ScalingPolicy` gating join admission (default: admit all).
    accept_joins:
        Poll for join announcements at sync boundaries. Off by default —
        the run is then shrink-only.
    sync_every:
        Step cadence of the sync boundary (cost allgather + join poll).
    rejoin_seed:
        Entropy root for a joiner's fresh RNG stream (mixed with the join
        epoch and the joiner's root rank — deterministic, and disjoint
        from the survivors' streams).
    """

    def __init__(
        self,
        vqmc,
        *,
        checkpoint_dir: str | Path | None = None,
        checkpoint_every: int = 5,
        keep_last: int = 5,
        callbacks: Sequence = (),
        elastic: ElasticConfig | None = None,
        max_shrinks: int | None = None,
        resume: str | bool = "auto",
        ledger: BatchLedger | None = None,
        policy: ScalingPolicy | None = None,
        accept_joins: bool = False,
        sync_every: int = 1,
        rejoin_seed: int = 0,
        root=None,
    ):
        if sync_every < 1:
            raise ValueError(f"sync_every must be >= 1, got {sync_every}")
        self.vqmc = vqmc
        # A rejoining rank constructs its trainer with comm=None (a full-world
        # comm would run VQMC.__init__'s parameter broadcast against members
        # living on the shrunken world) and passes the fresh stack as `root`.
        self.root = root if root is not None else vqmc.comm
        self.world = self.root.size if self.root is not None else 1
        self.rank = self.root.rank if self.root is not None else 0
        if ledger is not None and ledger.world_size != self.world:
            raise ValueError(
                f"ledger world_size {ledger.world_size} != comm size {self.world}"
            )
        if checkpoint_dir is None and (ledger is not None or accept_joins):
            raise ValueError(
                "a ledger and join admission need supervision: set checkpoint_dir"
            )
        self.checkpoint_every = checkpoint_every
        self.callbacks = list(callbacks)
        self.elastic = elastic
        self.max_shrinks = max_shrinks
        self.resume = resume
        self.ledger = ledger
        self.policy = policy or ScalingPolicy()
        self.accept_joins = accept_joins
        self.sync_every = sync_every
        self.rejoin_seed = rejoin_seed
        self.ckpt = None
        if checkpoint_dir is not None:
            self.ckpt = CheckpointCallback(
                checkpoint_dir, checkpoint_every, keep_last, rank=self.rank
            )
        #: recover from rank failures (needs peers and a checkpoint floor)
        self.supervised = self.ckpt is not None and self.world > 1
        self.report = ResilientRunReport(
            rank=self.rank,
            checkpoint_dir=str(self.ckpt.directory) if self.ckpt else "",
        )

        self.group: list[int] = list(range(self.world))
        self.active = self.root  # current communicator (root or SubCommunicator)
        self.epoch = 0
        self.shrinks = 0
        self.tracer = getattr(vqmc, "tracer", None) or NULL_TRACER
        self.metrics = getattr(vqmc, "metrics", None)
        # A FlightRecorder among the callbacks becomes the run's black box:
        # the supervisor notes every membership change on it (epoch-tagged)
        # and dumps it on rank failure, eviction, and injected crashes.
        self.flight = next(
            (cb for cb in self.callbacks if isinstance(cb, FlightRecorder)), None
        )
        self._observed_joiners: set[int] = set()
        self._skip_sync_once = False
        self._reset_cost_window()

    # -- observability helpers ----------------------------------------------

    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _gauge_world(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("elastic.world_size").set(float(len(self.group)))
            self.metrics.gauge("elastic.epoch").set(float(self.epoch))

    def _flight_event(self, kind: str, **info) -> None:
        if self.flight is not None:
            self.flight.note_event(kind, epoch=self.epoch, **info)

    def _flight_dump(self, reason: str) -> None:
        if self.flight is not None:
            self.flight.dump(reason=reason)

    # -- cost window ---------------------------------------------------------

    def _reset_cost_window(self) -> None:
        self._win_seconds = 0.0
        self._win_samples = 0
        self._win_step_seconds = 0.0
        self._win_steps = 0
        self._last_stats = None

    def on_step(self, step: int, result) -> None:
        """As the driver's first callback: feed the cost window, then
        checkpoint — before a later callback can end the run on this step."""
        phases = result.phase_seconds
        batch = self._driver.batch_size or self.vqmc.config.batch_size
        # Only the sampling phase feeds the cost model: it is the
        # communication-free phase, so its wall-clock is a clean per-rank
        # signal. The energy phase ends in the global stats allreduce,
        # which bills every fast rank for the straggler's lag and flattens
        # the very skew the ledger exists to detect.
        self._win_seconds += phases.get("sample", 0.0)
        self._win_samples += batch
        self._win_step_seconds += result.step_time
        self._win_steps += 1
        self._last_stats = result.stats
        if self.ckpt is not None and step % self.checkpoint_every == 0:
            self.ckpt.write(self.vqmc, step)

    # -- the state machine ----------------------------------------------------

    def run(self, iterations: int, batch_size: int | None = None) -> ResilientRunReport:
        """Train to ``iterations`` total steps; returns this rank's report."""
        vqmc = self.vqmc
        if self.ckpt is not None:
            if self.resume == "auto":
                self.ckpt.restore_latest(vqmc)
            if self.ckpt.newest_verified_step() is None:
                self.ckpt.write(vqmc, vqmc.global_step)
        return self._drive(iterations, batch_size)

    def rejoin(
        self,
        iterations: int,
        batch_size: int | None = None,
        *,
        announce_timeout: float = 1.0,
        max_announces: int = 30,
    ) -> ResilientRunReport:
        """Re-enter a running world as a recovered (or brand-new) rank.

        Call on a freshly-constructed trainer whose ``comm`` is a new
        resilient stack over the *root* world. Announces this rank until a
        survivor invites it (``max_announces`` × ``announce_timeout`` wall
        budget), receives the parameter/optimizer/step broadcast, then
        enters the normal supervised loop. Returns the report with
        ``rejoined=False`` if no invite ever arrived (e.g. the run ended).
        """
        vqmc = self.vqmc
        if self.ckpt is None:
            raise ValueError("rejoin needs supervision: set checkpoint_dir")
        t0 = time.perf_counter()
        with self.tracer.span("elastic.rejoin", rank=self.rank):
            for peer in range(self.root.size):
                if peer != self.rank:
                    self.root.reset_peer(peer)
            got = None
            for _ in range(max_announces):
                announce_join(self.root, epoch_hint=self.epoch)
                self._count("elastic.join_requests")
                try:
                    got = await_invite(self.root, announce_timeout, self.elastic)
                except (CommTimeoutError, RankFailure):
                    got = None
                if got is not None:
                    break
            if got is None:
                self.report.completed_steps = vqmc.global_step
                self.report.final_group = []
                return self.report
            epoch, leader, group = got
            self.epoch = epoch
            self.group = group
            self.active = SubCommunicator(self.root, group)
            vqmc.comm = self.active
            self._broadcast_state(leader, is_joiner=True)
            if self.ledger is not None:
                self.ledger.resize(len(group))
            self.ckpt.write(vqmc, vqmc.global_step)
            # The survivors admitted this rank *inside* their sync boundary
            # for the current step and are already past it, headed into the
            # step's collectives — running our own sync now would interleave
            # its allgather with their allreduce. Skip the one boundary the
            # handshake already stood in for.
            self._skip_sync_once = _SKIP_SYNC_AFTER_JOIN
            self.report.rejoined = True
            self.report.joins.append(
                {
                    "epoch": self.epoch,
                    "step": vqmc.global_step,
                    "joiners": [self.rank],
                    "group": list(group),
                    "seconds": time.perf_counter() - t0,
                }
            )
            self._gauge_world()
            self._flight_event("rejoin", group=list(self.group))
        return self._drive(iterations, batch_size)

    def _drive(self, iterations: int, batch_size: int | None) -> ResilientRunReport:
        """RUN state: step a :class:`StepDriver` until ``vqmc.global_step``
        reaches ``iterations``, dispatching to sync/recovery between steps."""
        vqmc, report = self.vqmc, self.report
        driver = self._driver = StepDriver(
            vqmc,
            max(0, iterations - vqmc.global_step),
            callbacks=[self, *self.callbacks],
        )
        try:
            driver.begin()
            while not driver.done:
                try:
                    if self._sync_due():
                        if self._skip_sync_once:
                            self._skip_sync_once = False
                        else:
                            self._sync()
                    driver.batch_size = self._batch_for_me(batch_size)
                    driver.step_once()
                except RankFailure:
                    if not self.supervised:
                        raise
                    if not self._recover():
                        report.evicted = True  # falls silent, like a crash
                        break
        except InjectedRankCrash as exc:
            # Process death: fall silent immediately (no teardown hooks, no
            # further communication) and let the survivors detect it.
            # Local disk is not communication — the dying rank still
            # leaves its black box.
            self._flight_event("injected_crash", error=type(exc).__name__)
            self._flight_dump("injected_crash")
            report.crashed = True
        except BaseException as exc:
            driver.finish(exc)
            raise
        report.completed_steps = vqmc.global_step
        if self.ledger is not None:
            report.rebalances = self.ledger.rebalances
        report.final_group = [] if report.evicted else list(self.group)
        if not (report.crashed or report.evicted):
            driver.finish(None)
            report.comm_stats = (
                self.root.stats.snapshot() if self.root is not None else {}
            )
        return report

    # -- batch assignment ----------------------------------------------------

    def _batch_for_me(self, batch_size: int | None) -> int | None:
        if self.ledger is None:
            return batch_size
        return self.ledger.batch_for(self.active.rank)

    # -- sync boundary: costs, joins, rebalance -------------------------------

    def _sync_due(self) -> bool:
        if not (self.supervised and (self.accept_joins or self.ledger is not None)):
            return False
        return self.vqmc.global_step % self.sync_every == 0

    def _poll_joins(self) -> None:
        """Drain non-member channels for join announcements (local, cheap;
        consensus happens via the sync allgather)."""
        from repro.distributed.resilient import JOIN_TAG

        members = set(self.group)
        for peer in range(self.root.size):
            if peer == self.rank or peer in members:
                continue
            while self.root.poll(peer):
                try:
                    payload = self.root.recv_ctrl(peer, 0.05)
                except (CommTimeoutError, RankFailure):
                    break
                if payload.size == 3 and payload[0] == JOIN_TAG:
                    self._observed_joiners.add(int(payload[1]))

    def _sync(self) -> None:
        """One step-boundary round: allgather [join-mask, cost, step-time],
        feed the ledger, consult the policy, grow if agreed."""
        vqmc = self.vqmc
        with self.tracer.span(
            "elastic.sync", step=vqmc.global_step, world=len(self.group)
        ):
            if self.accept_joins:
                self._poll_joins()
            mask = 0
            for joiner in self._observed_joiners:
                mask |= 1 << joiner
            cost = (
                self._win_seconds / self._win_samples if self._win_samples else 0.0
            )
            step_seconds = (
                self._win_step_seconds / self._win_steps if self._win_steps else 0.0
            )
            gathered = self.active.allgather(
                np.array([float(mask), cost, step_seconds])
            )
            joint_mask = 0
            for vec in gathered:
                joint_mask |= int(vec[0])
            joiners = sorted(
                r
                for r in range(self.root.size)
                if joint_mask >> r & 1 and r not in self.group
            )
            self._reset_cost_window()

            if self.ledger is not None:
                costs = [float(vec[1]) for vec in gathered]
                self.ledger.observe(costs)
                with self.tracer.span("elastic.rebalance", step=vqmc.global_step):
                    if self.ledger.maybe_rebalance(vqmc.global_step):
                        self._count("elastic.rebalances")

            if self.accept_joins and joiners:
                stats = self._last_stats
                obs = PolicyObservation(
                    step=vqmc.global_step,
                    world_size=len(self.group),
                    step_seconds=max(float(vec[2]) for vec in gathered),
                    energy_mean=stats.mean if stats is not None else 0.0,
                    energy_sem=stats.sem if stats is not None else float("inf"),
                    pending_joiners=len(joiners),
                )
                decision = self.policy.decide(obs)
                if decision == "grow":
                    self._count("elastic.policy_grow_hints")
                    self._grow(joiners)
                elif decision == "shrink":
                    self._count("elastic.policy_shrink_hints")

    # -- GROW -----------------------------------------------------------------

    def _grow(self, joiners: list[int]) -> None:
        vqmc = self.vqmc
        t0 = time.perf_counter()
        with self.tracer.span(
            "elastic.grow", epoch=self.epoch + 1, joiners=list(joiners)
        ):
            self.epoch += 1
            leader = min(self.group)
            self.active = grow_world(
                self.root, self.group, joiners, self.epoch, self.elastic
            )
            self.group = sorted(set(self.group) | set(joiners))
            vqmc.comm = self.active
            self._broadcast_state(leader, is_joiner=False)
            if self.ledger is not None:
                self.ledger.resize(len(self.group))
            self.ckpt.write(vqmc, vqmc.global_step)
            self._observed_joiners -= set(self.group)
            self._reset_cost_window()
            self.report.joins.append(
                {
                    "epoch": self.epoch,
                    "step": vqmc.global_step,
                    "joiners": list(joiners),
                    "group": list(self.group),
                    "seconds": time.perf_counter() - t0,
                }
            )
            self._count("elastic.grows")
            self._gauge_world()
            self._flight_event(
                "grow", joiners=list(joiners), group=list(self.group)
            )

    def _broadcast_state(self, leader: int, is_joiner: bool) -> None:
        """Parameter + optimizer + step broadcast from ``leader`` onto the
        (re-formed) active world, in two congruently-shaped rounds: a
        fixed-size header naming the payload length, then the payload —
        every rank passes identically-shaped buffers, so the broadcast is
        clean under :class:`~repro.analysis.CommSanitizer`."""
        vqmc = self.vqmc
        active = self.active
        root_idx = self.group.index(leader)
        params = vqmc.model.flat_parameters()
        if active.rank == root_idx:
            blob = pickle.dumps(vqmc.optimizer.state_dict())
            padded = blob + b"\0" * (-len(blob) % 8)
            opt = np.frombuffer(padded, dtype=np.uint8).view(np.float64)
            header = np.array(
                [
                    float(self.epoch),
                    float(vqmc.global_step),
                    float(params.size),
                    float(len(blob)),
                    float(params.size + opt.size),
                ]
            )
        else:
            header = np.zeros(5)
        header = active.broadcast(header, root=root_idx)
        n_params = int(header[2])
        opt_bytes = int(header[3])
        payload = np.zeros(int(header[4]))
        if active.rank == root_idx:
            payload[:n_params] = params
            payload[n_params:] = opt
        payload = active.broadcast(payload, root=root_idx)
        if is_joiner:
            self.epoch = int(header[0])
            vqmc.model.set_flat_parameters(payload[:n_params].copy())
            state = pickle.loads(payload[n_params:].tobytes()[:opt_bytes])
            vqmc.optimizer.load_state_dict(state)
            vqmc.global_step = int(header[1])
            # A dead process's RNG stream is unrecoverable; derive a fresh
            # deterministic stream disjoint from every survivor's.
            vqmc.rng = np.random.default_rng(
                np.random.SeedSequence([self.rejoin_seed, self.epoch, self.rank])
            )
        elif not np.array_equal(payload[:n_params], params):
            raise RuntimeError(
                "elastic grow: survivor parameters diverged from the "
                "broadcast state (lock-step invariant violated)"
            )

    # -- DETECT / RESTORE ------------------------------------------------------

    def _recover(self) -> bool:
        """Shrink onto the survivors and restore the agreed checkpoint.

        Re-entrant by design: a *further* failure during the restore's
        collectives loops back to detection on a fresh epoch (the bug class
        of the two-crashes-in-separate-epochs regression), instead of
        escaping the handler. Returns ``False`` if this rank was evicted.
        """
        vqmc = self.vqmc
        report = self.report
        t0 = time.perf_counter()
        while True:
            self.epoch += 1
            self.shrinks += 1
            if self.max_shrinks is not None and self.shrinks > self.max_shrinks:
                raise  # noqa: PLE0704 — re-raise the RankFailure being handled
            previous_group = list(self.group)
            try:
                with self.tracer.span("elastic.detect", epoch=self.epoch):
                    self.group = detect_survivors(
                        self.root, self.group, self.epoch, self.elastic
                    )
            except RankFailure:
                report.recovery_seconds += time.perf_counter() - t0
                self._count("elastic.evictions")
                self._flight_event("evicted", group=previous_group)
                self._flight_dump("evicted")
                return False
            self.active = SubCommunicator(self.root, self.group)
            vqmc.comm = self.active
            try:
                with self.tracer.span(
                    "elastic.restore", epoch=self.epoch, world=len(self.group)
                ):
                    # Survivors agree on the newest step every one of them
                    # can verify on disk, then restore it — same parameters,
                    # optimizer moments, and RNG state everywhere, so the
                    # continued run is bit-exactly a restart from that
                    # checkpoint. The same allreduce re-synchronises the
                    # epoch (max): ranks may enter recovery from different
                    # rounds after repeated failures.
                    newest = self.ckpt.newest_verified_step()
                    if newest is None:
                        raise CheckpointCorruptError(
                            self.ckpt.directory,
                            "no verifiable checkpoint to recover from",
                        )
                    agreed_vec = self.active.allreduce(
                        np.array([-float(newest), float(self.epoch)]), op="max"
                    )
                    agreed = int(-agreed_vec[0])  # max of negatives = min step
                    self.epoch = int(agreed_vec[1])
                    used = self.ckpt.restore_latest(vqmc, at_step=agreed)
                    if used is None:
                        raise CheckpointCorruptError(
                            self.ckpt.directory,
                            f"agreed restore step {agreed} is missing or "
                            f"corrupt on rank {self.rank}",
                        )
            except RankFailure:
                continue  # another rank died during recovery — detect again
            if self.ledger is not None:
                self.ledger.resize(len(self.group))
            self._observed_joiners -= set(self.group)
            self._reset_cost_window()
            report.restores.append(
                {
                    "epoch": self.epoch,
                    "restored_step": agreed,
                    "group": list(self.group),
                }
            )
            report.recovery_seconds += time.perf_counter() - t0
            self._count("elastic.shrinks")
            self._gauge_world()
            self._flight_event(
                "shrink",
                failed=sorted(set(previous_group) - set(self.group)),
                group=list(self.group),
                restored_step=agreed,
            )
            self._flight_dump("rank_failure")
            return True
