"""Resilient communication: checksummed frames, bounded retry, escalation.

A single straggling or dead rank stalls a synchronous allreduce — the
paper's weak-scaling result assumes 48 healthy GPUs, and the bare backends
here only had a deadlock-guard timeout. :class:`ResilientCommunicator`
wraps any backend and adds the machinery a production run needs:

- **Framing.** Every message is wrapped in a self-describing frame:
  ``[checksum, magic, seq, ndim, *shape, *payload]`` (all float64). The
  checksum is a wraparound uint64 sum over everything after slot 0 — one
  vectorised pass covering header *and* payload, detecting any single bit
  flip — so corruption in transit is caught at the receiver instead of
  silently poisoning a gradient (or forging a sequence number).
  Per-``(src, dst)`` sequence numbers detect duplicated and lost messages.
- **Bounded retry with exponential backoff.** ``recv`` retries on
  :class:`~repro.distributed.comm.CommTimeoutError` and on checksum
  mismatch, sleeping ``backoff_base · 2^attempt`` between attempts, and
  escalates to a typed :class:`~repro.distributed.comm.RankFailure` (with
  the offending rank attached) after ``max_attempts``.
- **Observability.** Recovery actions are counted in the shared
  :class:`~repro.distributed.comm.CommStats` (``retries``,
  ``checksum_errors``, ``duplicates_discarded``, ``timeouts_recovered``,
  ``rank_failures``) — read, run, diff, exactly like the traffic counters.
- **Control frames.** The elastic layer
  (:mod:`repro.distributed.elastic`) broadcasts heartbeats/consensus
  bitmaps as *control* frames. A control frame arriving where data was
  expected means a peer has abandoned the current collective; ``recv``
  pushes it back and raises ``RankFailure`` so this rank joins the
  failure-detection epoch instead of consuming garbage.

The collectives (allreduce, broadcast, …) are inherited from
:class:`~repro.distributed.comm.Communicator` and therefore run over the
framed point-to-point layer unchanged — resilience composes with every
collective algorithm and with :class:`SubCommunicator` world shrinking.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.distributed.comm import (
    DEFAULT_TIMEOUT,
    ChecksumError,
    CommLayer,
    Communicator,
    CommTimeoutError,
    OwnedFrame,
    RankFailure,
)

__all__ = ["RetryPolicy", "ResilientCommunicator", "JOIN_TAG"]

#: Fault hook for the schedule explorer (repro.analysis.explore): setting
#: this False re-introduces the historical recv livelock — discarded
#: frames (duplicates, stale JOIN announcements) consume no retry attempt,
#: so without the overall escalation deadline a peer flooding them keeps
#: ``_recv_loop`` alive forever without ever delivering data. Production
#: code must never touch it; the explorer's seeded-bug scenarios flip it
#: under a finally-guard to prove they can rediscover the bug.
_DISCARD_DEADLINE = True

#: frame type tags (exact float64 constants, compared bit-exactly)
_DATA_MAGIC = 1.6180339887e9
_CTRL_MAGIC = 2.7182818284e9

_HEADER = 4  # checksum, magic, seq, ndim

#: first payload slot of an elastic join announcement (``[JOIN, rank, epoch]``,
#: see :mod:`repro.distributed.elastic`). Defined here — below the elastic
#: layer — because the *data* path must recognise it: a JOIN control frame
#: interleaved with data traffic is a stale re-announcement from a rank that
#: has already been admitted (the joiner re-sends until invited), not a peer
#: abandoning the collective, so it is discarded like a duplicate instead of
#: escalating to :class:`RankFailure`.
JOIN_TAG = 3.0


def _checksum_u64(flat: np.ndarray) -> np.uint64:
    """Wraparound uint64 sum over a contiguous float64 array's bit patterns
    (one vectorised pass; detects any single bit flip)."""
    if flat.size == 0:
        return np.uint64(0)
    return np.add.reduce(flat.view(np.uint64), dtype=np.uint64)


def _checksum(flat: np.ndarray) -> float:
    """The checksum bit-stored in a float64 slot (exact round trip via view)."""
    return float(
        np.array([_checksum_u64(flat)], dtype=np.uint64).view(np.float64)[0]
    )


def _frame(magic: float, seq: int, array: np.ndarray) -> np.ndarray:
    # Hot path: called once per point-to-point message, so every collective
    # pays it 2(L-1)/L times per element. Single allocation, single copy,
    # one checksum pass; the checksum is written through a uint64 view so no
    # float round trip is needed.
    if (
        type(array) is np.ndarray
        and array.dtype == np.float64
        and array.flags.c_contiguous
    ):
        arr = array
    else:
        arr = np.ascontiguousarray(array, dtype=np.float64)
    ndim = arr.ndim
    flat = arr.reshape(-1)
    frame = np.empty(_HEADER + ndim + flat.size)
    frame[1] = magic
    frame[2] = seq
    frame[3] = ndim
    if ndim == 1:
        frame[4] = flat.size
    else:
        frame[_HEADER:_HEADER + ndim] = arr.shape
    frame[_HEADER + ndim:] = flat
    # checksum slot 0 covers everything after it (header and payload alike)
    frame[0:1].view(np.uint64)[0] = _checksum_u64(frame[1:])
    return frame.view(OwnedFrame)


def _unframe(raw: np.ndarray) -> tuple[str, int, np.ndarray]:
    """Parse and verify a frame; raises :class:`ChecksumError` on anything
    that does not check out (a corrupted header is indistinguishable from a
    corrupted payload, so every parse failure maps to the same error).

    The returned payload is a zero-copy view into the frame buffer (the
    receiver owns it exclusively)."""
    try:
        f = raw if type(raw) is np.ndarray else raw.view(np.ndarray)
        if f.dtype != np.float64 or f.ndim != 1:
            f = np.asarray(f, dtype=np.float64).reshape(-1)
        if f.shape[0] < _HEADER:
            raise ChecksumError(f"frame too short ({f.shape[0]} slots)")
        # Verify first: the checksum covers header and payload, so any
        # single flipped bit anywhere in the frame is caught here. Compare
        # the uint64 bit patterns (the stored sum may be a float64 NaN
        # pattern, and NaN != NaN as floats).
        if f[0:1].view(np.uint64).item(0) != int(_checksum_u64(f[1:])):
            raise ChecksumError("frame checksum mismatch")
        magic = f.item(1)
        if magic == _DATA_MAGIC:
            kind = "data"
        elif magic == _CTRL_MAGIC:
            kind = "ctrl"
        else:
            raise ChecksumError(f"unrecognised frame magic {magic!r}")
        ndim = int(f.item(3))
        if not 0 <= ndim <= 32 or f.shape[0] < _HEADER + ndim:
            raise ChecksumError(f"corrupt frame header (ndim={f.item(3)!r})")
        payload = f[_HEADER + ndim:]
        if ndim == 1:  # fast path: every collective message is flat
            if int(f.item(4)) != payload.shape[0]:
                raise ChecksumError(
                    f"corrupt frame shape ({f.item(4)!r}) for "
                    f"{payload.shape[0]} elems"
                )
        else:
            shape = tuple(int(s) for s in f[_HEADER:_HEADER + ndim])
            if any(s < 0 for s in shape) or int(np.prod(shape, dtype=np.int64)) != payload.size:
                raise ChecksumError(
                    f"corrupt frame shape {shape} for {payload.size} elems"
                )
            payload = payload.reshape(shape)
        return kind, int(f.item(2)), payload
    except ChecksumError:
        raise
    except Exception as exc:  # defensive: a flipped header bit can break parsing anywhere
        raise ChecksumError(f"unparseable frame: {exc}") from None


@dataclass
class RetryPolicy:
    """Bounded-retry parameters for :class:`ResilientCommunicator`.

    Attributes
    ----------
    max_attempts:
        Receive attempts (timeout or checksum failure each consume one)
        before escalating to :class:`RankFailure`.
    backoff_base:
        Sleep ``backoff_base · 2^attempt`` seconds between attempts.
    attempt_timeout:
        Per-attempt recv timeout; ``None`` uses the caller's timeout for
        every attempt. Set this in fault-tolerant runs — collectives call
        ``recv`` with the 60 s deadlock-guard default, and failure
        *detection* should escalate much sooner than that.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    attempt_timeout: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff_base < 0:
            raise ValueError(f"backoff_base must be >= 0, got {self.backoff_base}")

    def backoff(self, attempt: int) -> float:
        return self.backoff_base * (2**attempt)

    def escalation_time(self, fallback_timeout: float = DEFAULT_TIMEOUT) -> float:
        """Worst-case seconds before a recv escalates to RankFailure."""
        per = self.attempt_timeout if self.attempt_timeout is not None else fallback_timeout
        return self.max_attempts * per + sum(
            self.backoff(a) for a in range(self.max_attempts - 1)
        )


class ResilientCommunicator(CommLayer):
    """Checksummed, retrying wrapper over any point-to-point backend.

    Both endpoints of every channel must be wrapped (frames on the wire).
    Traffic and recovery counters share the wrapped communicator's
    :class:`CommStats`.
    """

    def __init__(self, inner: Communicator, policy: RetryPolicy | None = None):
        super().__init__(inner)
        self.policy = policy or RetryPolicy()
        self._send_seq: dict[int, int] = {}
        self._recv_seq: dict[int, int] = {}
        self._pushback: dict[int, deque] = {}

    # -- framing --------------------------------------------------------------

    def send(self, dest: int, array: np.ndarray) -> None:
        # peer validation is delegated to the wrapped backend's send
        seq = self._send_seq.get(dest, 0)
        self._send_seq[dest] = seq + 1
        self.inner.send(dest, _frame(_DATA_MAGIC, seq, array))

    def send_ctrl(self, dest: int, payload: np.ndarray) -> None:
        """Send a control frame (failure detection / consensus traffic).

        Control frames carry no sequence number and never advance the data
        stream; a data ``recv`` that encounters one raises ``RankFailure``
        (the peer has abandoned normal traffic)."""
        self._check_peer(dest)
        self.inner.send(dest, _frame(_CTRL_MAGIC, -1, payload))

    def _next_frame(self, source: int, timeout: float) -> np.ndarray:
        stash = self._pushback.get(source)
        if stash:
            return stash.popleft()
        return self.inner.recv(source, timeout=timeout)

    def poll(self, source: int, timeout: float = 0.0) -> bool:
        if self._pushback.get(source):
            return True
        return self.inner.poll(source, timeout=timeout)

    # -- data path ------------------------------------------------------------

    def recv(self, source: int, timeout: float = DEFAULT_TIMEOUT) -> np.ndarray:
        policy = self.policy
        per = policy.attempt_timeout if policy.attempt_timeout is not None else timeout
        # Fast path — no pushback pending, the frame arrives, verifies, and
        # is in sequence. This is every message of a healthy run, so it
        # avoids the retry-loop machinery entirely (framing cost is already
        # ~2 memory passes per message; the Python around it must not add
        # more). Failures hand off to the retry loop with the attempt
        # already accounted.
        if not self._pushback.get(source):
            try:
                raw = self.inner.recv(source, per)
            except CommTimeoutError as exc:
                return self._recv_loop(source, timeout, attempts=1, fail=exc)
            try:
                kind, seq, payload = _unframe(raw)
            except ChecksumError as exc:
                self.stats.checksum_errors += 1
                return self._recv_loop(source, timeout, attempts=1, fail=exc)
            expected = self._recv_seq.get(source, 0)
            if kind == "data" and seq == expected:
                self._recv_seq[source] = expected + 1
                return payload
            out = self._accept(source, kind, seq, payload, raw, had_timeout=False)
            if out is not None:
                return out  # unreachable (duplicates and stale JOINs return None)
        return self._recv_loop(source, timeout)

    def _escalate(self, source: int, attempts: int, exc: Exception) -> None:
        self.stats.rank_failures += 1
        reason = (
            "no valid message"
            if isinstance(exc, CommTimeoutError)
            else "persistent corruption"
        )
        raise RankFailure(
            source, f"{reason} after {attempts} attempt(s): {exc}"
        ) from exc

    def _accept(
        self,
        source: int,
        kind: str,
        seq: int,
        payload: np.ndarray,
        raw: np.ndarray,
        had_timeout: bool,
    ) -> np.ndarray | None:
        """Sequencing logic shared by the fast path and the retry loop:
        returns the payload to deliver, ``None`` for a discarded duplicate,
        and raises :class:`RankFailure` on control frames / message loss."""
        if kind == "ctrl":
            if payload.size == 3 and payload[0] == JOIN_TAG:
                # Stale join re-announcement (the joiner repeats it until a
                # survivor invites it) — harmless, skip like a duplicate.
                self.stats.duplicates_discarded += 1
                return None
            # Failure-detection traffic interleaved with data: a peer has
            # abandoned the collective. Preserve the frame for the
            # detection protocol and escalate.
            self._pushback.setdefault(source, deque()).append(raw)
            self.stats.rank_failures += 1
            raise RankFailure(
                source,
                "control frame received during data traffic "
                "(peer entered failure detection)",
            )
        expected = self._recv_seq.get(source, 0)
        if seq < expected:
            self.stats.duplicates_discarded += 1
            return None
        if seq > expected:
            self.stats.rank_failures += 1
            raise RankFailure(
                source, f"message loss detected (got seq {seq}, expected {expected})"
            )
        self._recv_seq[source] = expected + 1
        if had_timeout:
            self.stats.timeouts_recovered += 1
        return payload

    def _recv_loop(
        self,
        source: int,
        timeout: float,
        attempts: int = 0,
        fail: Exception | None = None,
    ) -> np.ndarray:
        """Bounded-retry receive. ``attempts``/``fail`` carry the state of a
        failed fast-path attempt so escalation and backoff accounting stay
        exact."""
        policy = self.policy
        had_timeout = isinstance(fail, CommTimeoutError)
        # Overall deadline, independent of the per-attempt accounting:
        # discarded frames (duplicates, stale JOIN announcements) do not
        # consume an attempt, so a peer that floods them — a restarted rank
        # re-announcing every few hundred ms — would otherwise keep this
        # recv alive forever without ever delivering data (livelock: each
        # arriving frame resets the inner recv's timeout window).
        per = policy.attempt_timeout if policy.attempt_timeout is not None else timeout
        deadline = time.monotonic() + policy.escalation_time(per)
        if attempts:
            if attempts >= policy.max_attempts:
                self._escalate(source, attempts, fail)
            self.stats.retries += 1
            time.sleep(policy.backoff(attempts - 1))
        while True:
            per = policy.attempt_timeout if policy.attempt_timeout is not None else timeout
            try:
                raw = self._next_frame(source, per)
            except CommTimeoutError as exc:
                had_timeout = True
                attempts += 1
                if attempts >= policy.max_attempts:
                    self._escalate(source, attempts, exc)
                self.stats.retries += 1
                time.sleep(policy.backoff(attempts - 1))
                continue
            try:
                kind, seq, payload = _unframe(raw)
            except ChecksumError as exc:
                self.stats.checksum_errors += 1
                attempts += 1
                if attempts >= policy.max_attempts:
                    self._escalate(source, attempts, exc)
                self.stats.retries += 1
                time.sleep(policy.backoff(attempts - 1))
                continue
            out = self._accept(source, kind, seq, payload, raw, had_timeout)
            if out is not None:
                return out
            if _DISCARD_DEADLINE and time.monotonic() >= deadline:
                self._escalate(
                    source,
                    attempts + 1,
                    CommTimeoutError(
                        f"rank {self.rank}: only discardable frames from "
                        f"rank {source} within the retry budget"
                    ),
                )

    # -- control path ---------------------------------------------------------

    def recv_ctrl(self, source: int, timeout: float) -> np.ndarray:
        """Receive the next control frame from ``source`` within ``timeout``.

        Data frames encountered on the way are *stale* traffic from an
        aborted collective: they are consumed (keeping the sequence counters
        aligned with the sender for post-shrink traffic) and skipped.
        Corrupt frames are counted and skipped.
        """
        self._check_peer(source)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise CommTimeoutError(
                    f"rank {self.rank}: no control frame from rank {source} "
                    f"within {timeout}s"
                )
            try:
                raw = self._next_frame(source, remaining)
            except CommTimeoutError:
                continue  # loop re-checks the deadline and raises coherently
            try:
                kind, seq, payload = _unframe(raw)
            except ChecksumError:
                self.stats.checksum_errors += 1
                continue
            if kind == "ctrl":
                return payload
            expected = self._recv_seq.get(source, 0)
            if seq < expected:
                self.stats.duplicates_discarded += 1
            else:
                # Consume the stale data frame; a gap means frames were
                # lost mid-abort — fast-forward to the sender's position.
                self._recv_seq[source] = seq + 1

    def reset_peer(self, peer: int) -> None:
        """Forget all channel state for ``peer``: sequence counters (both
        directions), pushback, and any frames still queued on the raw
        channel.

        The elastic grow handshake calls this *symmetrically* — the joiner
        resets every peer before announcing, each survivor resets the
        joiner before inviting. A restarted process begins with fresh
        sequence counters, so the surviving side must zero its own or every
        post-join message would be rejected as loss/duplication; and frames
        from the peer's previous life (aborted collectives, duplicate join
        announcements) must not leak into the new epoch's traffic.
        """
        self._check_peer(peer)
        self._send_seq.pop(peer, None)
        self._recv_seq.pop(peer, None)
        self._pushback.pop(peer, None)
        try:
            while self.inner.poll(peer):
                self.inner.recv(peer, timeout=0.05)
        except (CommTimeoutError, NotImplementedError):
            pass
        except Exception:  # noqa: BLE001 — a closed pipe to a dead peer is expected
            pass
