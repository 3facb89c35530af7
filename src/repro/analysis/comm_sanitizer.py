"""Collective-congruence sanitizer: MUST-style runtime checking.

A mismatched collective — rank 0 in ``allreduce`` while rank 2 entered
``broadcast``, or one rank skipping a step's gradient average — does not
fail; it *deadlocks*, and after the timeout every rank reports an equally
useless "no message from peer". :class:`CommSanitizer` wraps any
:class:`~repro.distributed.comm.Communicator` and fingerprints every
collective call — kind, reduce-op/root, shape, dtype, sequence number and
call site — over the same point-to-point channels. Incongruent calls are
raised as :class:`CollectiveMismatchError` naming both ranks and both call
sites instead of wedging the world.

Protocol
--------
At the entry of its ``k``-th collective, each rank eagerly sends a
fixed-size magic-tagged fingerprint frame to its *left* ring neighbour,
then runs the collective. Congruence is an equivalence relation, so
pairwise agreement around the ring implies global agreement — checking one
neighbour per rank is exact, not a sampling shortcut. Verification of the
right neighbour's frames is *deferred*: frames sit in the channel until

- the non-blocking entry drain of a later collective picks them up
  (:meth:`Communicator.poll` probe — never stalls), or
- the collective itself fails (hop timeout / shape error), in which case a
  *blocking* drain of the right neighbour's frame converts the wedge into
  a precise diagnosis, or
- a frame arrives interleaved with payload on a shared channel (world
  size 2, tree collectives), where the sanitizer's own ``recv`` filters it
  out transparently — sanitized collectives run through the base-class
  algorithms on the wrapper itself so every hop passes this filter.

Deferral is what makes the sanitizer affordable: any *blocking* frame
exchange before the collective couples neighbours into lockstep, and on
an oversubscribed host every blocking round costs a scheduling quantum
per rank per collective (measured: an eager bidirectional exchange is
~25% on paper-scale 2M-float64 allreduces; recording alone is ~1%). The
deferred drain only ever reads frames that already arrived, so the
steady-state cost is the frame send plus a poll — see
``benchmarks/bench_sanitizer_overhead.py`` for current numbers.

Collectives whose progress does not imply world-wide entry (``broadcast``
— a tree root completes before leaves even start) and ``barrier``
(backends may use native primitives that cannot time out) validate
*eagerly* instead: frame sent, then a blocking wait for the right
neighbour's frame before touching the collective. Divergence there is
detected before any payload moves. The same eager path is the fallback
when the wrapped backend cannot ``poll`` or uses a non-ring algorithm.

Ordering correctness rests on two backend guarantees (see CONTRIBUTING):
sends are eager (so frame sends never deadlock) and per-pair channels are
FIFO (a rank's frame for collective ``k`` precedes any payload it sends
during collective ``k``, so a drain that stops after frame ``k`` never
eats payload).

Scope: route *all* traffic of the wrapped communicator through the wrapper
(fingerprint frames share the underlying channels; raw point-to-point
interleaved from outside would mis-slot them). Stack it with
:func:`repro.distributed.comm.build_comm` (``sanitize=<timeout>``), which
puts the sanitizer *below* a mismatch injector (so injected divergence is
visible) and *above* the resilience layer (so frames are checksummed and
retransmitted like any payload — an unprotected dropped frame would
desynchronise the fingerprint stream).
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.distributed.comm import (
    CommLayer,
    Communicator,
    CommTimeoutError,
    DEFAULT_TIMEOUT,
    RankFailure,
)

__all__ = ["CollectiveMismatchError", "CollectiveRecord", "CommSanitizer"]

_KIND_IDS = {
    "allreduce": 1.0,
    "broadcast": 2.0,
    "allgather": 3.0,
    "barrier": 4.0,
}
_KIND_NAMES = {v: k for k, v in _KIND_IDS.items()}
_OP_IDS = {"": 0.0, "sum": 1.0, "mean": 2.0, "max": 3.0, "min": 4.0, "prod": 5.0}
_OP_NAMES = {v: k for k, v in _OP_IDS.items()}

#: fingerprint frame layout (float64 slots):
#: [magic, seq, kind, op, root, dtype_hash, ndim, dim0..dim5, site bytes...]
_MAX_DIMS = 6
_SITE_BYTES = 120
_HEADER = 7 + _MAX_DIMS
_FRAME_LEN = _HEADER + _SITE_BYTES
#: magic tag distinguishing fingerprint frames from payload sharing a
#: channel; an arbitrary but fixed normal float64 (the bytes "REPROSAN").
_FRAME_MAGIC = float(np.frombuffer(b"REPROSAN", dtype=np.float64)[0])

#: collectives safe for deferred validation: ring traffic flows strictly
#: rank -> rank+1, so completion implies every rank entered, and the
#: right-neighbour frame channel (rank -> rank-1) carries only frames.
_DEFERRED_KINDS = frozenset({"allreduce", "allgather"})


def _is_frame(array: np.ndarray) -> bool:
    return (
        getattr(array, "ndim", -1) == 1
        and array.shape[0] == _FRAME_LEN
        and array.dtype == np.float64
        and array[0] == _FRAME_MAGIC
    )


class CollectiveMismatchError(RuntimeError):
    """Two ranks issued incongruent collectives (or one issued none).

    Carries ``rank`` / ``peer`` (communicator-local numbering) and the
    decoded :class:`CollectiveRecord` of each side where available.
    """

    def __init__(
        self,
        message: str,
        rank: int,
        peer: int,
        mine: "CollectiveRecord | None" = None,
        theirs: "CollectiveRecord | None" = None,
    ):
        super().__init__(message)
        self.rank = rank
        self.peer = peer
        self.mine = mine
        self.theirs = theirs


@dataclass(frozen=True)
class CollectiveRecord:
    """One fingerprinted collective call."""

    seq: int
    kind: str
    op: str
    root: int
    shape: tuple[int, ...]
    dtype: str
    site: str

    def describe(self) -> str:
        detail = []
        if self.kind == "allreduce":
            detail.append(f"op={self.op}")
        if self.kind == "broadcast":
            detail.append(f"root={self.root}")
        if self.kind != "barrier":
            detail.append(f"shape={self.shape}")
            detail.append(f"dtype={self.dtype}")
        inner = ", ".join(detail)
        return f"{self.kind}({inner}) at {self.site}"

    def congruent_with(self, other: "CollectiveRecord") -> bool:
        return (
            self.seq == other.seq
            and self.kind == other.kind
            and self.op == other.op
            and self.root == other.root
            and self.shape == other.shape
            and self.dtype == other.dtype
        )

    # -- wire format ----------------------------------------------------------

    def encode(self) -> np.ndarray:
        frame = np.zeros(_FRAME_LEN)
        frame[0] = _FRAME_MAGIC
        frame[1] = float(self.seq)
        frame[2] = _KIND_IDS[self.kind]
        frame[3] = _OP_IDS.get(self.op, -1.0)
        frame[4] = float(self.root)
        frame[5] = float(_stable_hash(self.dtype))
        frame[6] = float(len(self.shape))
        for i, dim in enumerate(self.shape[:_MAX_DIMS]):
            frame[7 + i] = float(dim)
        site = self.site[-_SITE_BYTES:].encode("utf-8", "replace")[:_SITE_BYTES]
        frame[_HEADER : _HEADER + len(site)] = np.frombuffer(site, dtype=np.uint8)
        return frame

    @classmethod
    def decode(cls, frame: np.ndarray, dtype_names: dict[int, str]) -> "CollectiveRecord":
        frame = np.asarray(frame).reshape(-1)
        ndim = int(frame[6])
        site_bytes = frame[_HEADER:].astype(np.uint8).tobytes().rstrip(b"\0")
        return cls(
            seq=int(frame[1]),
            kind=_KIND_NAMES.get(frame[2], f"unknown<{frame[2]:.0f}>"),
            op=_OP_NAMES.get(frame[3], "?"),
            root=int(frame[4]),
            shape=tuple(int(d) for d in frame[7 : 7 + min(ndim, _MAX_DIMS)]),
            dtype=dtype_names.get(int(frame[5]), f"hash<{int(frame[5])}>"),
            site=site_bytes.decode("utf-8", "replace"),
        )


def _stable_hash(text: str) -> int:
    # FNV-1a over utf-8, folded to 32 bits: stable across processes (unlike
    # hash()), exactly representable in a float64 slot.
    acc = 2166136261
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * 16777619) & 0xFFFFFFFF
    return acc


def _call_site(skip_file: str) -> str:
    # Prefer the first frame outside the distributed runtime itself, so a
    # collective routed through wrapper layers (fault injectors, resilient
    # framing, Communicator.split's internal allgather) is attributed to
    # the user code that issued it; fall back to the innermost non-sanitizer
    # frame when everything is runtime-internal.
    import repro.distributed as _dist

    runtime_dir = _dist.__path__[0]
    frame = sys._getframe(2)
    fallback = None
    while frame is not None:
        filename = frame.f_code.co_filename
        if filename != skip_file:
            if fallback is None:
                fallback = frame
            if not filename.startswith(runtime_dir):
                break
        frame = frame.f_back
    frame = frame or fallback
    if frame is None:
        return "<unknown>"
    path = frame.f_code.co_filename
    tail = "/".join(path.replace("\\", "/").split("/")[-3:])
    return f"{tail}:{frame.f_lineno}"


class CommSanitizer(CommLayer):
    """Wrap a communicator; cross-validate every collective it runs.

    Parameters
    ----------
    inner:
        The communicator to wrap (any backend, or the layers
        :func:`~repro.distributed.comm.build_comm` puts beneath it).
    timeout:
        Progress deadline: bounds both the wait for a peer's fingerprint
        (a peer that issued *no* collective within it is reported as a
        named divergence, not a generic ``CommTimeoutError``) and each
        hop of a sanitized collective, so a diverged world fails within
        roughly this long instead of the backend's default.
    history:
        Keep the last ``history`` :class:`CollectiveRecord`\\ s in
        :attr:`records` for post-mortem inspection.
    """

    def __init__(
        self,
        inner: Communicator,
        timeout: float = DEFAULT_TIMEOUT,
        history: int = 256,
    ):
        super().__init__(inner)
        self.timeout = float(timeout)
        self.seq = 0
        self.records: list[CollectiveRecord] = []
        self._history = int(history)
        self._dtype_names: dict[int, str] = {}
        size = inner.size
        self._left = (inner.rank - 1) % size
        self._right = (inner.rank + 1) % size
        #: pending own records awaiting the right neighbour's frame, by seq
        self._unverified: dict[int, CollectiveRecord] = {}
        #: number of fingerprint frames consumed from the right neighbour;
        #: frames arrive in order, so the j-th one pairs with our record j
        self._frames_seen = 0
        #: non-frame messages consumed while hunting frames on the right
        #: channel; re-served (FIFO) by :meth:`recv` before fresh traffic
        self._deferred: deque = deque()
        self._in_collective = False
        #: deferred validation requires ring traffic patterns and a backend
        #: that can probe; degrades (permanently) to eager on the first
        #: NotImplementedError from ``inner.poll``
        self._can_defer = inner.algorithm == "ring"

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        if self._in_collective:
            # Sanitized collective hops honour the sanitizer's progress
            # deadline, so a diverged world fails in ~timeout seconds
            # instead of the backend default.
            timeout = min(timeout, self.timeout)
        if source == self._right and self._deferred:
            return self._deferred.popleft()
        while True:
            out = self.inner.recv(source, timeout=timeout)
            if source == self._right and _is_frame(out):
                # A fingerprint frame interleaved with payload (world
                # size 2, tree collectives): verify and keep reading.
                self._ingest_frame(out)
                continue
            return out

    def poll(self, source: int, timeout: float = 0.0) -> bool:
        if source == self._right and self._deferred:
            return True
        return self.inner.poll(source, timeout=timeout)

    # -- fingerprinting -------------------------------------------------------

    def _record(
        self, kind: str, array: np.ndarray | None, op: str = "", root: int = -1
    ) -> CollectiveRecord:
        if array is None:
            shape: tuple[int, ...] = ()
            dtype = ""
        else:
            arr = np.asarray(array)
            shape = arr.shape
            dtype = arr.dtype.name
        self._dtype_names[_stable_hash(dtype)] = dtype
        record = CollectiveRecord(
            seq=self.seq,
            kind=kind,
            op=op,
            root=root,
            shape=shape,
            dtype=dtype,
            site=_call_site(__file__),
        )
        self.seq += 1
        self.records.append(record)
        del self.records[: -self._history]
        if self.size > 1:
            self._unverified[record.seq] = record
        return record

    def _ingest_frame(self, raw: np.ndarray) -> None:
        """Pair the next frame from the right neighbour with our own record
        of the same position and raise on incongruence."""
        j = self._frames_seen
        self._frames_seen += 1
        theirs = CollectiveRecord.decode(raw, self._dtype_names)
        mine = self._unverified.pop(j, None)
        if mine is not None and not mine.congruent_with(theirs):
            raise CollectiveMismatchError(
                f"collective #{mine.seq} diverged: rank {self.rank} called "
                f"{mine.describe()}; rank {self._right} called "
                f"{theirs.describe()}",
                rank=self.rank,
                peer=self._right,
                mine=mine,
                theirs=theirs,
            )

    def _drain_available(self, record: CollectiveRecord) -> bool:
        """Verify right-neighbour frames that already arrived, never
        blocking. Returns False if the backend cannot probe."""
        try:
            while (
                self._frames_seen <= record.seq
                and self.inner.poll(self._right, timeout=0.0)
            ):
                raw = self.inner.recv(self._right, timeout=self.timeout)
                if _is_frame(raw):
                    self._ingest_frame(raw)
                else:
                    self._deferred.append(raw)
        except NotImplementedError:
            return False
        except CommTimeoutError:
            # A channel whose peer is gone polls as ready and fails the
            # read; the collective's own hops hit the same wall and
            # _diagnose then names the silent peer.
            pass
        return True

    def _await_frame(self, record: CollectiveRecord) -> None:
        """Blocking drain until the right neighbour's frame for this
        collective is verified (the eager validation path)."""
        while self._frames_seen <= record.seq:
            try:
                raw = self.inner.recv(self._right, timeout=self.timeout)
            except CommTimeoutError as exc:
                raise CollectiveMismatchError(
                    f"collective #{record.seq} diverged: rank {self.rank} "
                    f"called {record.describe()}, but rank {self._right} "
                    f"issued no collective within {self.timeout}s (diverged "
                    "or dead peer)",
                    rank=self.rank,
                    peer=self._right,
                    mine=record,
                ) from exc
            if _is_frame(raw):
                self._ingest_frame(raw)
            else:
                self._deferred.append(raw)

    def _validate(self, record: CollectiveRecord) -> None:
        """Send our fingerprint; verify the right neighbour's — deferred
        (non-blocking) where the traffic pattern allows, eager otherwise."""
        self.inner.send(self._left, record.encode())
        if self._can_defer and record.kind in _DEFERRED_KINDS:
            if self._drain_available(record):
                return
            self._can_defer = False  # backend cannot poll: stay eager
        self._await_frame(record)

    def _diagnose(self, record: CollectiveRecord, exc: Exception) -> None:
        """A sanitized collective failed mid-flight: pull the right
        neighbour's outstanding frames to name the divergence. Returns
        normally when the right boundary is congruent (divergence is
        elsewhere in the ring — that rank raises the precise error)."""
        while self._frames_seen <= record.seq:
            try:
                raw = self.inner.recv(self._right, timeout=self.timeout)
            except (CommTimeoutError, RankFailure) as drain_exc:
                if isinstance(exc, CommTimeoutError):
                    raise CollectiveMismatchError(
                        f"collective #{record.seq} diverged: rank {self.rank} "
                        f"called {record.describe()}, but rank {self._right} "
                        f"issued no collective within {self.timeout}s "
                        "(diverged or dead peer)",
                        rank=self.rank,
                        peer=self._right,
                        mine=record,
                    ) from drain_exc
                return  # RankFailure / non-comm failure: re-raise undisturbed
            if _is_frame(raw):
                self._ingest_frame(raw)  # raises on incongruence
            else:
                self._deferred.append(raw)

    # -- sanitized collectives ------------------------------------------------

    def _run(self, record: CollectiveRecord, call):
        if self.size == 1:
            return call()
        self._validate(record)
        self._in_collective = True
        try:
            return call()
        except (CommTimeoutError, RankFailure, ValueError) as exc:
            # RankFailure: a resilient layer below escalates wedged hops to
            # "peer dead" — which a diverged peer looks identical to. The
            # diagnosis upgrades it to a named mismatch only when the right
            # neighbour's frame proves divergence; a genuinely dead peer
            # re-raises RankFailure so elastic shrink flows are untouched.
            self._diagnose(record, exc)
            raise
        finally:
            self._in_collective = False

    def allreduce(self, array: np.ndarray, op: str = "sum") -> np.ndarray:
        record = self._record("allreduce", array, op=op)
        # Run the collective algorithm *on the sanitizer* so every hop goes
        # through the frame-filtering recv above.
        return self._run(record, lambda: Communicator.allreduce(self, array, op=op))

    def broadcast(self, array: np.ndarray, root: int = 0) -> np.ndarray:
        record = self._record("broadcast", array, root=root)
        return self._run(
            record, lambda: Communicator.broadcast(self, array, root=root)
        )

    def allgather(self, array: np.ndarray) -> list[np.ndarray]:
        # Rows legitimately differ between ranks (a row-sharded matrix is
        # gathered, MPI_Allgatherv); every other dimension must agree.
        record = self._record("allgather", np.atleast_1d(array)[:0])
        return self._run(record, lambda: Communicator.allgather(self, array))

    def barrier(self) -> None:
        record = self._record("barrier", None)
        if self.size == 1:
            return
        # Validation is eager here (barrier is not a deferred kind):
        # backends may implement barrier natively (e.g. a threading.Barrier)
        # with no timeout to convert — divergence must be caught before
        # entering it.
        self._validate(record)
        self.inner.barrier()
