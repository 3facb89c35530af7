"""Training-loop instrumentation: the callback gluing tracer → exporters.

:class:`ObsCallback` rides the same callback protocol as
:class:`~repro.utils.runlog.RunLogger` (``on_run_begin`` / ``on_step`` /
``on_run_end`` — duck-typed, no import of the driver) and turns one rank's
:class:`~repro.obs.tracer.Tracer` into durable artefacts:

- ``trace.rankNNN.jsonl`` — a JSONL stream extending the RunLogger schema
  (``trace_begin`` header, one ``trace_step`` object per step carrying the
  per-phase seconds of *that* step, ``trace_end`` footer with run totals).
  Parse it with :meth:`repro.utils.runlog.RunLogger.read`.
- ``trace.rankNNN.json`` — the Chrome trace-event timeline
  (:func:`repro.obs.export.write_chrome_trace`), one process per rank.
- optionally, with a metrics registry, ``metrics.rankNNN.json`` — the
  rank's :meth:`~repro.obs.metrics.Metrics.snapshot`, in the mergeable
  form ``tools/trace.py merge``/``summary`` fold across ranks.
- optionally, with a communicator, a cross-rank skew report folded over
  ``allgather`` at run end (:attr:`skew`) — **collective**: either every
  rank's callback aggregates or none does.

Because ``VQMC.run`` invokes ``on_run_end`` from a ``finally`` block, the
trace files exist even when training dies mid-step — which is precisely
when you want the timeline.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.obs.export import (
    allgather_named_floats,
    metrics_file_name,
    skew_report,
    trace_file_name,
    write_chrome_trace,
)
from repro.obs.tracer import Tracer

__all__ = ["ObsCallback"]


class ObsCallback:  # repro-lint: disable=api-unreachable-export -- documented user entry point: docs/observability.md quick start
    """Callback exporting a tracer's spans as JSONL + Chrome trace files.

    Parameters
    ----------
    tracer:
        The rank's tracer (typically the one handed to ``VQMC``).
    directory:
        Output directory; files are ``trace.rankNNN.{jsonl,json}``.
    rank:
        Rank tag for file names and trace ``pid`` (default: the tracer's).
    comm:
        Optional communicator; when given, ``on_run_end`` allgathers the
        per-phase totals and stores :func:`~repro.obs.export.skew_report`
        output in :attr:`skew`. Collective — pass it on every rank or none.
    metrics:
        Optional :class:`~repro.obs.metrics.Metrics` registry (typically
        the one handed to ``VQMC``); when given, ``on_run_end`` writes its
        snapshot to ``metrics.rankNNN.json`` — the mergeable form that
        ``tools/trace.py merge``/``summary`` fold across ranks.
    """

    def __init__(
        self,
        tracer: Tracer,
        directory: str | Path,
        rank: int | None = None,
        comm=None,
        metrics=None,
    ):
        self.tracer = tracer
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.rank = tracer.rank if rank is None else int(rank)
        self.comm = comm
        self.metrics = metrics
        #: cross-rank skew report (populated at run end when ``comm`` given)
        self.skew: dict[str, dict[str, float]] | None = None
        self.chrome_path: Path | None = None
        self.jsonl_path: Path | None = None
        self.metrics_path: Path | None = None
        self._fh = None
        self._event_idx = 0

    # -- callback protocol --------------------------------------------------------

    def on_run_begin(self, vqmc) -> None:
        self._event_idx = len(self.tracer.events)
        self.jsonl_path = self.directory / (trace_file_name(self.rank) + "l")
        self._fh = self.jsonl_path.open("a", encoding="utf-8")
        self._write(
            {
                "event": "trace_begin",
                "time": time.time(),  # repro-lint: disable=det-wall-clock -- log-sink timestamp, never feeds numerics
                "rank": self.rank,
                "enabled": self.tracer.enabled,
                "max_events": self.tracer.max_events,
            }
        )

    def on_step(self, step: int, result) -> None:
        if self._fh is None:
            return
        phases: dict[str, float] = {}
        events = self.tracer.events
        for ev in events[self._event_idx:]:
            phases[ev.name] = phases.get(ev.name, 0.0) + ev.dur_ns * 1e-9
        self._event_idx = len(events)
        self._write(
            {
                "event": "trace_step",
                "step": step,
                "step_time": result.step_time,
                "phases": {k: phases[k] for k in sorted(phases)},
            }
        )

    def on_run_end(self, vqmc) -> None:
        totals = self.tracer.totals()
        if self._fh is not None:
            self._write(
                {
                    "event": "trace_end",
                    "rank": self.rank,
                    "phases": {k: v["total_s"] for k, v in totals.items()},
                    "span_count": len(self.tracer.events),
                    "dropped_events": self.tracer.dropped,
                }
            )
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None
        self.chrome_path = write_chrome_trace(
            self.tracer,
            self.directory / trace_file_name(self.rank),
            rank=self.rank,
        )
        if self.metrics is not None:
            self.metrics_path = self.directory / metrics_file_name(self.rank)
            self.metrics_path.write_text(
                json.dumps(self.metrics.snapshot(), default=repr) + "\n",
                encoding="utf-8",
            )
        if self.comm is not None:
            phase_totals = {
                k: v["total_s"] for k, v in self.tracer.totals(depth=1).items()
            }
            per_rank = allgather_named_floats(self.comm, phase_totals)
            self.skew = skew_report(per_rank)

    # -- helpers ------------------------------------------------------------------

    def _write(self, record: dict) -> None:
        # repr() fallback mirrors RunLogger: telemetry must never be the
        # thing that kills a run over an exotic attribute value.
        self._fh.write(json.dumps(record, default=repr) + "\n")
        self._fh.flush()
