"""Unified observability: spans + metrics for every perf claim in the repo.

The paper's headline numbers (Fig. 3 weak scaling, Table 6 raw scaling)
are wall-clock decompositions; this package is the layer that produces
them from real runs instead of ad-hoc ``time.perf_counter()`` pairs:

- :mod:`repro.obs.tracer` — nested, exception-safe spans with per-rank
  buffers, bounded memory, near-zero disabled cost.
- :mod:`repro.obs.metrics` — counters / gauges / fixed-bucket histograms
  with associatively-mergeable snapshots.
- :mod:`repro.obs.export` — Chrome trace-event JSON (one process per
  rank; load in ``chrome://tracing`` / Perfetto), trace merging, and
  cross-rank skew aggregation over ``Communicator.allgather``.
- :mod:`repro.obs.instrument` — :class:`ObsCallback`, the training-loop
  callback that writes the JSONL stream and the per-rank Chrome traces.
- :mod:`repro.obs.flight` — :class:`FlightRecorder`, a bounded ring
  buffer over the last K steps that atomically dumps a CRC-stamped
  ``flight.rankNNN.json`` black box on crash / rank failure / SIGTERM.
- :mod:`repro.obs.health` — :class:`HealthMonitor`, a streaming rule
  engine (NaN energy, variance/acceptance collapse, SNR drop, CG stalls,
  straggler drift) yielding OK/WARN/CRIT verdicts with
  hysteresis; reports embed in checkpoints and flight dumps. Inspect
  either live streams or post-mortem dumps with ``tools/monitor.py``.

Instrumentation is already wired through the hot paths: ``VQMC.step``
emits ``step``/``sample``/``local_energy``/``gradient``/``sr_solve``/
``optimizer`` phase spans, every ``Communicator`` collective reports
bytes + latency (all backends and wrappers — serial, threads, mp,
resilient, fault-injected, sanitized — inherit the spans from the base
class), ``AutoregressiveSampler`` records which sampling kernel ran, and
checkpoint save/restore is spanned. Summarise a trace with
``python tools/trace.py summary <dir>``; see ``docs/observability.md``.
"""

from repro.obs.export import (
    allgather_named_floats,
    chrome_trace_events,
    load_chrome_trace,
    merge_chrome_traces,
    metrics_file_name,
    skew_report,
    trace_file_name,
    write_chrome_trace,
)
from repro.obs.flight import (
    FlightDumpError,
    FlightRecorder,
    StepFrameBuilder,
    flight_file_name,
    load_flight_dump,
)
from repro.obs.health import (
    CRIT,
    OK,
    WARN,
    HealthMonitor,
    HealthRule,
    default_rules,
    replay_frames,
    worst_verdict,
)
from repro.obs.instrument import ObsCallback
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Metrics,
    merge_snapshots,
)
from repro.obs.tracer import NULL_TRACER, SpanEvent, Tracer

__all__ = [
    "Tracer",
    "SpanEvent",
    "NULL_TRACER",
    "Metrics",
    "Counter",
    "Gauge",
    "Histogram",
    "merge_snapshots",
    "DEFAULT_BUCKETS",
    "ObsCallback",
    "FlightRecorder",
    "FlightDumpError",
    "StepFrameBuilder",
    "flight_file_name",
    "load_flight_dump",
    "HealthMonitor",
    "HealthRule",
    "default_rules",
    "replay_frames",
    "worst_verdict",
    "OK",
    "WARN",
    "CRIT",
    "chrome_trace_events",
    "write_chrome_trace",
    "load_chrome_trace",
    "merge_chrome_traces",
    "trace_file_name",
    "metrics_file_name",
    "allgather_named_floats",
    "skew_report",
]
