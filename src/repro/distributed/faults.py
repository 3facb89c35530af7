"""Deterministic fault injection for the distributed runtime.

Production-scale data-parallel VMC treats long multi-node runs as the norm;
the only way to *test* the recovery machinery honestly is to inject faults
on a deterministic schedule and assert the run still converges bit-exactly.
This module provides that schedule:

- :class:`FaultPlan` — a seeded, declarative list of :class:`FaultEvent`\\ s.
  Events are keyed by *operation index* (the victim rank's N-th send/recv)
  or by *training step*, never by wall clock, so a plan replays identically
  on every backend and every machine.
- :class:`FaultyCommunicator` — wraps any :class:`Communicator` and applies
  the op-scoped events of a plan: stragglers (``delay``), lost messages
  (``drop``), duplicated messages (``duplicate``), payload bit flips
  (``corrupt``) and rank death (``crash``).
- :class:`FaultInjectionCallback` — applies step-scoped events (crash or
  delay at a scheduled optimisation step) from inside the training loop, so
  faults can be injected even where no communication happens (serial runs).

The wrapper sits *below* the resilience layer —
``build_comm(backend_comm, plan=plan, retry=policy)`` puts it there — so
that corruption hits the framed bytes and is caught by the checksum,
exactly as a flaky link would be.

Corruption is **transient** by default: the corrupted frame is followed by
a clean copy, modelling a link-layer retransmission. The resilient receiver
must detect the bad frame via its checksum, discard it, and accept the
retransmitted copy. Set ``transient=False`` to model persistent corruption,
which exhausts the retry budget and escalates to a
:class:`~repro.distributed.comm.RankFailure`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.distributed.comm import DEFAULT_TIMEOUT, CommLayer, Communicator

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultyCommunicator",
    "FaultInjectionCallback",
    "InjectedRankCrash",
    "MismatchedCollectiveInjector",
]

_KINDS = ("delay", "drop", "duplicate", "corrupt", "crash", "mismatch")
#: kinds that modify the outgoing payload (send path only)
_SEND_ONLY = ("drop", "duplicate", "corrupt")


class InjectedRankCrash(RuntimeError):
    """The local rank was killed by an injected ``crash`` fault.

    Models process death: once raised, every further operation on the
    faulty communicator raises it again. The resilient training driver
    treats it as "this rank is gone" — it stops communicating and returns,
    letting the survivors detect the silence and shrink the world.
    """


@dataclass
class FaultEvent:
    """One scheduled fault.

    Exactly one of ``index`` (op-scoped: the victim's ``index``-th matching
    communication operation, 0-based, counted separately per ``(op, peer)``
    class) or ``step`` (step-scoped: applied by
    :class:`FaultInjectionCallback` after the victim completes training step
    ``step``) must be set.
    """

    kind: str
    rank: int
    index: int | None = None
    step: int | None = None
    op: str = "send"  # 'send' | 'recv' | 'any' (op-scoped events only)
    peer: int | None = None
    delay: float = 0.1  # seconds (kind == 'delay')
    bits: int = 1  # bit flips (kind == 'corrupt')
    transient: bool = True  # corrupt: clean copy follows the corrupted one

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected {_KINDS}")
        if (self.index is None) == (self.step is None):
            raise ValueError(
                f"exactly one of index/step must be set, got "
                f"index={self.index} step={self.step}"
            )
        if self.step is not None and self.kind in _SEND_ONLY + ("mismatch",):
            raise ValueError(f"{self.kind!r} faults must be op-scoped (set index)")
        if self.kind in _SEND_ONLY and self.op != "send":
            raise ValueError(f"{self.kind!r} faults apply to the send path only")
        if self.kind == "mismatch" and self.op != "collective":
            raise ValueError("'mismatch' faults apply to collectives (op='collective')")
        if self.kind != "mismatch" and self.op == "collective":
            raise ValueError("op='collective' is reserved for 'mismatch' faults")
        if self.op not in ("send", "recv", "any", "collective"):
            raise ValueError(f"unknown op {self.op!r}")
        if self.kind == "delay" and self.delay <= 0:
            raise ValueError(f"delay must be > 0, got {self.delay}")
        if self.kind == "corrupt" and self.bits < 1:
            raise ValueError(f"bits must be >= 1, got {self.bits}")

    def describe(self) -> str:
        scope = (
            f"op {self.op}[{self.index}]" if self.index is not None
            else f"step {self.step}"
        )
        peer = f" peer={self.peer}" if self.peer is not None else ""
        return f"rank {self.rank}: {self.kind} at {scope}{peer}"


class FaultPlan:
    """A deterministic, seeded schedule of faults.

    Determinism guarantees: events trigger on operation/step *counts*, never
    on wall time; corruption bit positions are derived from
    ``(seed, event position)`` with a counter-based PRNG. Replaying the same
    plan against the same program therefore injects byte-identical faults,
    on any backend.
    """

    def __init__(self, events: Sequence[FaultEvent] = (), seed: int = 0):
        self.events = list(events)
        self.seed = int(seed)
        for event in self.events:
            event.validate()

    @classmethod
    def random(
        cls,
        seed: int,
        world_size: int,
        n_faults: int = 3,
        kinds: Sequence[str] = ("delay", "duplicate", "corrupt"),
        max_index: int = 50,
    ) -> "FaultPlan":
        """Draw ``n_faults`` op-scoped events deterministically from ``seed``."""
        rng = np.random.default_rng(seed)
        events = []
        for _ in range(n_faults):
            kind = str(rng.choice(list(kinds)))
            events.append(
                FaultEvent(
                    kind=kind,
                    rank=int(rng.integers(world_size)),
                    index=int(rng.integers(max_index)),
                    op="send" if kind in _SEND_ONLY else "any",
                    delay=float(rng.uniform(0.01, 0.1)),
                )
            )
        return cls(events, seed=seed)

    def events_for(self, rank: int, *, step_scoped: bool) -> list[tuple[int, FaultEvent]]:
        """Events targeting ``rank``, as ``(position, event)`` pairs.

        The position in the plan is the event's stable identity — it seeds
        the corruption PRNG and keys the fired-once bookkeeping.
        """
        return [
            (i, e)
            for i, e in enumerate(self.events)
            if e.rank == rank and (e.step is not None) == step_scoped
        ]

    def describe(self) -> str:
        if not self.events:
            return "FaultPlan(empty)"
        lines = [e.describe() for e in self.events]
        return f"FaultPlan(seed={self.seed}):\n  " + "\n  ".join(lines)

    def __len__(self) -> int:
        return len(self.events)


class FaultyCommunicator(CommLayer):
    """Wrap a communicator and inject a :class:`FaultPlan`'s op-scoped events.

    Transparent when the plan has no events for this rank. Traffic counters
    are shared with the wrapped communicator (``stats`` delegates), while
    injected faults are tallied separately in :attr:`injected`.
    """

    def __init__(self, inner: Communicator, plan: FaultPlan):
        super().__init__(inner)
        self.plan = plan
        self._events = plan.events_for(inner.rank, step_scoped=False)
        self._fired: set[int] = set()
        self._counts: dict[tuple[str, int | None], int] = {}
        self._dead = False
        #: kind -> number of events actually injected on this rank
        self.injected: dict[str, int] = {}

    # -- event matching -------------------------------------------------------

    def _take(self, op: str, peer: int) -> list[tuple[int, FaultEvent]]:
        """Return the unfired events matching this operation and advance
        the per-``(op, peer)`` counters."""
        hits = []
        for pos, event in self._events:
            if pos in self._fired:
                continue
            if event.op not in (op, "any"):
                continue
            if event.peer is not None and event.peer != peer:
                continue
            count = self._counts.get((event.op, event.peer), 0)
            if count == event.index:
                hits.append((pos, event))
                self._fired.add(pos)
        for key in ((op, None), (op, peer), ("any", None), ("any", peer)):
            self._counts[key] = self._counts.get(key, 0) + 1
        return hits

    def _record(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def _check_dead(self) -> None:
        if self._dead:
            raise InjectedRankCrash(f"rank {self.rank} is dead (injected crash)")

    def _crash(self, event: FaultEvent) -> None:
        self._dead = True
        self._record("crash")
        raise InjectedRankCrash(
            f"rank {self.rank} crashed (injected): {event.describe()}"
        )

    def _flip_bits(self, array: np.ndarray, pos: int, event: FaultEvent) -> np.ndarray:
        buf = bytearray(np.ascontiguousarray(array, dtype=np.float64).tobytes())
        rng = np.random.default_rng([self.plan.seed, pos])
        for bit in rng.integers(0, len(buf) * 8, size=event.bits):
            buf[int(bit) // 8] ^= 1 << (int(bit) % 8)
        return np.frombuffer(bytes(buf), dtype=np.float64).reshape(np.shape(array))

    # -- faulted operations ---------------------------------------------------

    def send(self, dest: int, array: np.ndarray) -> None:
        self._check_dead()
        payload_event: tuple[int, FaultEvent] | None = None
        for pos, event in self._take("send", dest):
            if event.kind == "crash":
                self._crash(event)
            if event.kind == "delay":
                self._record("delay")
                time.sleep(event.delay)
            elif payload_event is None:
                payload_event = (pos, event)
        if payload_event is None:
            self.inner.send(dest, array)
            return
        pos, event = payload_event
        self._record(event.kind)
        if event.kind == "drop":
            return
        if event.kind == "duplicate":
            self.inner.send(dest, array)
            self.inner.send(dest, array)
            return
        # corrupt: deliver flipped bits; a transient fault is followed by a
        # clean retransmission (link-layer retry), a persistent one is not.
        self.inner.send(dest, self._flip_bits(array, pos, event))
        if event.transient:
            self.inner.send(dest, array)

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        self._check_dead()
        for _, event in self._take("recv", source):
            if event.kind == "crash":
                self._crash(event)
            if event.kind == "delay":
                self._record("delay")
                time.sleep(event.delay)
        return self.inner.recv(source, timeout=timeout)

    def poll(self, source: int, timeout: float = 0.0) -> bool:
        # Probing is fault-free: events are scoped to send/recv operations.
        self._check_dead()
        return self.inner.poll(source, timeout=timeout)


class MismatchedCollectiveInjector(CommLayer):
    """Swap the victim's N-th collective for a different one (``mismatch``).

    Models the divergence bug class — one rank calling ``broadcast`` where
    the others call ``allreduce`` — that ordinarily *deadlocks* the world.
    Events are op-scoped with ``op="collective"``: the victim's
    ``index``-th collective call (0-based, counted across all collective
    kinds) executes the swapped collective from :attr:`_SWAPS` instead.

    Unlike :class:`FaultyCommunicator` (which decomposes collectives onto
    its own faulted point-to-point hops), this wrapper delegates whole
    collectives to ``inner``, so a
    :class:`~repro.analysis.comm_sanitizer.CommSanitizer` stacked *below*
    it sees the swapped call and converts the would-be deadlock into an
    immediate ``CollectiveMismatchError`` —
    ``build_comm(backend_comm, plan=plan, sanitize=timeout)`` stacks them so.
    Because the collectives run on ``inner``, that is also where a tracer
    attached to this layer goes.
    """

    #: deliberately wrong-but-runnable substitute per collective kind
    _SWAPS = {
        "allreduce": "broadcast",
        "broadcast": "allreduce",
        "allgather": "allreduce",
        "barrier": "allreduce",
    }

    def __init__(self, inner: Communicator, plan: FaultPlan):
        super().__init__(inner)
        self.plan = plan
        self._events = [
            (pos, e)
            for pos, e in plan.events_for(inner.rank, step_scoped=False)
            if e.kind == "mismatch"
        ]
        self._fired: set[int] = set()
        self._collective_count = 0
        self.injected: dict[str, int] = {}

    def attach_tracer(self, tracer) -> None:
        self.inner.attach_tracer(tracer)

    def _swap(self, kind: str) -> str | None:
        """The substitute kind when this collective call is the victim."""
        count = self._collective_count
        self._collective_count += 1
        for pos, event in self._events:
            if pos not in self._fired and event.index == count:
                self._fired.add(pos)
                self.injected["mismatch"] = self.injected.get("mismatch", 0) + 1
                return self._SWAPS[kind]
        return None

    def _run(self, kind: str, array: np.ndarray | None, **kwargs):
        target = self._swap(kind) or kind
        if target == "barrier":
            return self.inner.barrier()
        payload = np.zeros(1) if array is None else array
        if target == "allreduce":
            return self.inner.allreduce(payload, op=kwargs.get("op", "sum"))
        if target == "broadcast":
            return self.inner.broadcast(payload, root=kwargs.get("root", 0))
        if target == "allgather":
            return self.inner.allgather(payload)
        raise AssertionError(f"unknown collective {target!r}")

    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        return self._run("allreduce", array, op=op)

    def broadcast(self, array: np.ndarray, root: int = 0) -> np.ndarray:
        return self._run("broadcast", array, root=root)

    def allgather(self, array: np.ndarray) -> list[np.ndarray]:
        return self._run("allgather", array)

    def barrier(self) -> None:
        self._run("barrier", None)


class FaultInjectionCallback:
    """Apply a plan's *step-scoped* events from inside the training loop.

    Fires after the victim completes the scheduled optimisation step —
    deterministic on every backend, including serial runs where the
    communicator is never exercised. Supports ``crash`` (raises
    :class:`InjectedRankCrash`) and ``delay`` (straggles the whole step).
    """

    def __init__(self, plan: FaultPlan, rank: int = 0):
        self.plan = plan
        self.rank = rank
        self._events = plan.events_for(rank, step_scoped=True)
        self._fired: set[int] = set()
        self.injected: dict[str, int] = {}

    def on_run_begin(self, vqmc) -> None:
        pass

    def on_step(self, step: int, result) -> None:
        for pos, event in self._events:
            if pos in self._fired or event.step != step:
                continue
            self._fired.add(pos)
            self.injected[event.kind] = self.injected.get(event.kind, 0) + 1
            if event.kind == "delay":
                time.sleep(event.delay)
            elif event.kind == "crash":
                raise InjectedRankCrash(
                    f"rank {self.rank} crashed (injected): {event.describe()}"
                )

    def on_run_end(self, vqmc) -> None:
        pass
