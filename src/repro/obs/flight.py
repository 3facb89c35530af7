"""Flight recorder: a bounded black box for VQMC training runs.

Long multi-rank runs fail in ways that are only diagnosable *after* the
fact — by which point the interesting state (the last few steps of span
timings, metric movement, comm traffic, SR solve quality) is gone unless
someone was recording it. :class:`FlightRecorder` is that recorder: a
fixed-size ring buffer of per-step :func:`frames <StepFrameBuilder.build>`
that costs O(capacity) memory forever and is dumped — atomically,
CRC-stamped — the moment the run dies.

Dump triggers, mirroring how runs actually end:

- **Crash**: a step or callback raises → the step loop's teardown
  (:class:`~repro.core.vqmc.StepDriver`, shared by ``VQMC.run`` and
  ``TrainingSupervisor.run``) delivers ``on_crash`` to every callback that
  defines it before ``on_run_end``; the recorder dumps with the exception
  type as the reason.
- **RankFailure / elastic events**: :class:`~repro.distributed.supervisor.
  TrainingSupervisor` finds a recorder among its callbacks and (a) notes
  every shrink/grow/rejoin with epoch tags, (b) dumps after each recovery
  and on eviction, so every surviving rank leaves a black box naming the
  failed ranks.
- **SIGTERM**: :meth:`FlightRecorder.install_signal_handlers` chains onto
  the process signal handler (main thread only) so preemption by a job
  scheduler still produces a dump.
- **Manual**: :meth:`FlightRecorder.dump` at any point.

The dump (``flight.rankNNN.json``) carries a CRC32 over its canonical
body JSON, the same integrity idiom as the crash-safe checkpoints;
:func:`load_flight_dump` verifies it. Read dumps with
``python tools/monitor.py`` — it replays the frames through the health
rule engine (:mod:`repro.obs.health`) and names the failing rank and the
last completed step.
"""

from __future__ import annotations

import json
import os
import signal
import time
import zlib
from collections import deque
from pathlib import Path

__all__ = [
    "FLIGHT_SCHEMA",
    "FlightDumpError",
    "FlightRecorder",
    "StepFrameBuilder",
    "flight_file_name",
    "load_flight_dump",
]

#: dump schema identifier (bump on incompatible layout changes)
FLIGHT_SCHEMA = "repro.flight/1"


class FlightDumpError(RuntimeError):
    """A flight dump is truncated, unparseable, or fails its CRC32."""

    def __init__(self, path: Path | str, reason: str):
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"invalid flight dump {path}: {reason}")


def flight_file_name(rank: int) -> str:
    """Canonical per-rank dump file name (``flight.rank003.json``)."""
    return f"flight.rank{rank:03d}.json"


def _body_crc(body: dict) -> int:
    """CRC32 over the canonical (sorted-key) JSON of the dump body.

    ``json.dumps`` round-trips Python floats exactly (incl. NaN/Inf
    tokens), so verify-after-load recomputes the identical digest.
    """
    blob = json.dumps(body, sort_keys=True, default=repr).encode("utf-8")
    return zlib.crc32(blob) & 0xFFFFFFFF


class StepFrameBuilder:
    """Turns one :class:`~repro.core.vqmc.StepResult` into a JSON-ready
    per-step *frame* — the unit both the flight recorder's ring buffer and
    the health rule engine consume.

    A frame is a flat dict of plain scalars::

        {"step", "energy", "std", "sem", "grad_norm", "acceptance",
         "step_time", "distinct_rows", "phases": {...},
         "sr": {"solver", "residual"},   # if SR ran
         "metric_deltas": {...},   # counter movement since the last frame
         "gauges": {...},          # absolute gauge levels (energy.distinct_rows, ...)
         "comm_deltas": {...},     # CommStats movement since the last frame
         "world_size": int}        # if a communicator is attached

    Counters and comm stats are *deltas* (the builder keeps the previous
    snapshot), so each frame describes what that step did, not cumulative
    history — exactly what you want in the moments before a crash.
    """

    def __init__(self) -> None:
        self._prev_counters: dict[str, float] = {}
        self._prev_comm: dict[str, int] = {}

    def build(self, step: int, result) -> dict:
        stats = getattr(result, "stats", None)
        frame: dict = {"step": int(step)}
        if stats is not None:
            frame["energy"] = float(stats.mean)
            frame["std"] = float(stats.std)
            frame["sem"] = float(stats.sem)
        for name in ("grad_norm", "step_time", "acceptance"):
            raw = getattr(result, name, None)
            if raw is not None:
                # NaN is preserved on purpose: a NaN grad_norm/energy is a
                # health signal, not a serialisation accident.
                frame[name] = float(raw)
        distinct = getattr(result, "distinct_rows", None)
        if distinct:
            frame["distinct_rows"] = int(distinct)
        phases = getattr(result, "phase_seconds", None)
        if phases:
            frame["phases"] = {k: float(v) for k, v in sorted(phases.items())}

        vqmc = getattr(result, "vqmc", None)
        if vqmc is None:
            return frame
        sr = getattr(vqmc, "sr", None)
        info = getattr(sr, "last_solve", None) if sr is not None else None
        if info is not None:
            frame["sr"] = {
                "solver": info.solver,
                "residual": float(info.residual),
            }
        metrics = getattr(vqmc, "metrics", None)
        if metrics is not None:
            snap = metrics.snapshot()
            counters = snap.get("counters", {})
            deltas = {
                name: value - self._prev_counters.get(name, 0.0)
                for name, value in counters.items()
                if value != self._prev_counters.get(name, 0.0)
            }
            self._prev_counters = counters
            if deltas:
                frame["metric_deltas"] = deltas
            if snap.get("gauges"):
                frame["gauges"] = snap["gauges"]
        comm = getattr(vqmc, "comm", None)
        comm_stats = getattr(comm, "stats", None) if comm is not None else None
        if comm_stats is not None:
            snap = comm_stats.snapshot()
            deltas = {
                name: value - self._prev_comm.get(name, 0)
                for name, value in snap.items()
                if value != self._prev_comm.get(name, 0)
            }
            self._prev_comm = snap
            if deltas:
                frame["comm_deltas"] = deltas
            frame["world_size"] = int(getattr(comm, "size", 1))
        return frame


class FlightRecorder:
    """Ring-buffer black box riding the training callback protocol.

    Parameters
    ----------
    directory:
        Where dumps land (created on demand). One file per rank:
        ``flight.rankNNN.json``; repeated dumps of the same rank overwrite
        (the newest black box is the one that matters).
    capacity:
        Ring size — the "last K steps" the dump preserves.
    rank:
        Rank tag for the dump file name. Default: resolved from the
        trainer's communicator at ``on_run_begin`` (0 for serial runs).
    health:
        Optional :class:`~repro.obs.health.HealthMonitor`. When given the
        recorder feeds it every frame (one shared
        :class:`StepFrameBuilder`, no duplicate snapshot work), registers
        it on the trainer for checkpoint health reports, and embeds its
        :meth:`~repro.obs.health.HealthMonitor.report` in every dump. Do
        *not* also pass the monitor as a separate callback.
    dump_on_end:
        Also dump on a clean run end (default: only on crash/signal/
        explicit :meth:`dump`).
    max_events:
        Bound on the out-of-band event log (elastic membership changes,
        crashes, signals).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        capacity: int = 64,
        rank: int | None = None,
        health=None,
        dump_on_end: bool = False,
        max_events: int = 256,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.directory = Path(directory)
        self.capacity = int(capacity)
        self.rank = rank
        self.health = health
        self.dump_on_end = dump_on_end
        self.frames: deque = deque(maxlen=self.capacity)
        self.events: deque = deque(maxlen=max_events)
        self.frames_seen = 0
        self.last_step: int | None = None
        #: paths written by :meth:`dump`, in order
        self.dumped: list[Path] = []
        self._builder = StepFrameBuilder()
        self._dumped_this_run = False
        self._prev_handlers: dict[int, object] = {}

    # -- callback protocol --------------------------------------------------------

    def on_run_begin(self, vqmc) -> None:
        if self.rank is None:
            comm = getattr(vqmc, "comm", None)
            rank = getattr(comm, "rank", None) if comm is not None else None
            self.rank = int(rank) if rank is not None else 0
        self._dumped_this_run = False
        if self.health is not None:
            self.health.on_run_begin(vqmc)

    def on_step(self, step: int, result) -> None:
        frame = self._builder.build(step, result)
        if self.health is not None:
            verdict = self.health.observe(frame)
            frame["health"] = verdict
        self.frames.append(frame)
        self.frames_seen += 1
        self.last_step = int(step)

    def on_crash(self, vqmc, exc: BaseException) -> None:
        """Delivered by the step loop's teardown when a step or callback
        raised; dumps the black box with the exception as the reason."""
        del vqmc
        self.note_event(
            "crash", error=type(exc).__name__, detail=str(exc)[:500]
        )
        self.dump(reason=type(exc).__name__)

    def on_run_end(self, vqmc) -> None:
        del vqmc
        if self.dump_on_end and not self._dumped_this_run:
            self.dump(reason="run_end")

    # -- events -------------------------------------------------------------------

    def note_event(self, kind: str, **info) -> None:
        """Record an out-of-band event (elastic membership change, crash,
        signal) tagged with the last completed step."""
        event = {"kind": str(kind), "step": self.last_step}
        event.update({k: _json_safe(v) for k, v in info.items()})
        self.events.append(event)

    # -- the black box --------------------------------------------------------------

    def body(self) -> dict:
        """The dump payload (everything under the CRC)."""
        body = {
            "rank": int(self.rank or 0),
            "capacity": self.capacity,
            "frames_seen": self.frames_seen,
            "last_step": self.last_step,
            "frames": list(self.frames),
            "events": list(self.events),
        }
        if self.health is not None:
            body["health"] = self.health.report()
        return body

    def dump(self, reason: str = "manual") -> Path:
        """Atomically write ``flight.rankNNN.json`` and return its path.

        Write-temp + fsync + ``os.replace``, the checkpoint idiom: a
        reader (or a second crash) never observes a half-written dump.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        body = self.body()
        body["reason"] = str(reason)
        doc = {
            "schema": FLIGHT_SCHEMA,
            "unix_time": round(time.time(), 3),  # repro-lint: disable=det-wall-clock -- dump timestamp, never feeds numerics
            "crc32": _body_crc(body),
            "body": body,
        }
        path = self.directory / flight_file_name(int(self.rank or 0))
        tmp = path.with_name(path.name + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, default=repr) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self.dumped.append(path)
        self._dumped_this_run = True
        return path

    # -- signals --------------------------------------------------------------------

    def install_signal_handlers(self, signums=(signal.SIGTERM,)) -> list[int]:  # repro-lint: disable=api-unreachable-export -- documented user entry point: docs/observability.md (flight recorder) dumps on SIGTERM with it
        """Dump on delivery of ``signums`` (default SIGTERM — preemption).

        Chains to the previously-installed handler (or re-raises the
        default action) after dumping. Signal handlers can only be set on
        the main thread; on worker threads this is a no-op. Returns the
        list of signals actually hooked.
        """
        installed: list[int] = []
        for signum in signums:
            try:
                previous = signal.signal(signum, self._on_signal)
            except ValueError:  # not the main thread
                continue
            self._prev_handlers[int(signum)] = previous
            installed.append(int(signum))
        return installed

    def _on_signal(self, signum, frame) -> None:
        del frame
        self.note_event("signal", signal=int(signum))
        self.dump(reason=f"signal_{int(signum)}")
        previous = self._prev_handlers.get(int(signum))
        if callable(previous):
            previous(signum, None)
        elif previous == signal.SIG_DFL:
            raise SystemExit(128 + int(signum))


def _json_safe(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def load_flight_dump(path: str | Path, verify: bool = True) -> dict:
    """Load a ``flight.rankNNN.json`` dump; returns the full document.

    With ``verify`` (default) the body CRC32 is recomputed and any
    mismatch, truncation, or schema surprise raises
    :class:`FlightDumpError` — a tampered or torn black box is worse than
    a missing one.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise FlightDumpError(path, f"unreadable: {exc}") from exc
    if not isinstance(doc, dict) or "body" not in doc or "crc32" not in doc:
        raise FlightDumpError(path, "missing body/crc32 members (foreign file?)")
    if doc.get("schema") != FLIGHT_SCHEMA:
        raise FlightDumpError(path, f"unknown schema {doc.get('schema')!r}")
    if verify:
        actual = _body_crc(doc["body"])
        stored = int(doc["crc32"])
        if actual != stored:
            raise FlightDumpError(
                path,
                f"CRC32 mismatch (stored {stored:#010x}, actual {actual:#010x})",
            )
    return doc
