"""Nested, exception-safe span tracing with bounded per-rank buffers.

The scalability claims of the paper are wall-clock claims: Figure 3's weak
scaling and Table 6's raw numbers only hold if we can say *where* each
step's time goes — sampling vs. local-energy vs. gradient vs. allreduce —
per rank. A :class:`Tracer` is one rank's in-memory recorder for exactly
that question:

- **Spans** are named intervals with attributes::

      with tracer.span("allreduce", bytes=grad.nbytes):
          comm.allreduce(grad)

  They nest (a ``comm.allreduce`` span inside a ``gradient`` span), close
  on exceptions (the ``with`` form is the contract; the lint rule
  ``obs-span-leak`` flags raw :meth:`begin` without a ``finally``-paired
  :meth:`end`), and carry monotonic-clock timestamps
  (``time.perf_counter_ns`` — never the wall clock, so traces are immune
  to NTP steps).
- **Bounded memory.** At most ``max_events`` completed spans are kept;
  beyond that new spans are counted in :attr:`dropped` instead of stored,
  so an unbounded training loop cannot OOM through its own telemetry.
- **Near-zero cost when disabled.** A disabled tracer returns a shared
  no-op context manager from :meth:`span` — no allocation, no clock read —
  so instrumentation can stay in the hot paths permanently
  (``benchmarks/bench_obs_overhead.py`` holds this to ≤ 0.5 %).

One tracer per rank; cross-rank views are assembled by the exporters
(:mod:`repro.obs.export`) from per-rank buffers, never by sharing a tracer
across processes.
"""

from __future__ import annotations

import threading
import time

__all__ = ["SpanEvent", "Tracer", "NULL_TRACER"]


class SpanEvent:
    """One completed span: name, start, duration, nesting depth, attributes.

    Timestamps are ``perf_counter_ns`` values relative to the tracer's
    origin (its construction), so events from one tracer share a timeline.
    """

    __slots__ = ("name", "t0_ns", "dur_ns", "depth", "tid", "attrs")

    def __init__(
        self,
        name: str,
        t0_ns: int,
        dur_ns: int,
        depth: int,
        tid: int,
        attrs: dict | None,
    ):
        self.name = name
        self.t0_ns = t0_ns
        self.dur_ns = dur_ns
        self.depth = depth
        self.tid = tid
        self.attrs = attrs

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpanEvent({self.name!r}, t0={self.t0_ns}ns, "
            f"dur={self.dur_ns}ns, depth={self.depth})"
        )


class _OpenSpan:
    """Handle returned by :meth:`Tracer.begin`; closed by :meth:`Tracer.end`."""

    __slots__ = ("name", "t0_ns", "depth", "tid", "attrs", "closed")

    def __init__(self, name: str, t0_ns: int, depth: int, tid: int, attrs: dict | None):
        self.name = name
        self.t0_ns = t0_ns
        self.depth = depth
        self.tid = tid
        self.attrs = attrs
        self.closed = False


class _NoopSpan:
    """Shared do-nothing context manager / handle for disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NOOP = _NoopSpan()


class _SpanContext:
    """The ``with tracer.span(...)`` guard: always records, even on raise."""

    __slots__ = ("_tracer", "_open")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict | None):
        self._tracer = tracer
        self._open = tracer.begin(name, **(attrs or {}))

    def __enter__(self) -> _OpenSpan:
        return self._open

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # Annotate rather than swallow: the span closes, the exception
            # propagates, and the trace shows where it happened.
            attrs = dict(self._open.attrs or {})
            attrs["error"] = exc_type.__name__
            self._open.attrs = attrs
        self._tracer.end(self._open)


class Tracer:
    """Per-rank span recorder with a bounded buffer.

    Parameters
    ----------
    enabled:
        When False, :meth:`span`/:meth:`begin`/:meth:`end` are no-ops that
        allocate nothing and never read the clock.
    rank:
        Recorded into exports (one Chrome-trace process per rank).
    max_events:
        Completed-span buffer bound; excess spans are dropped (counted in
        :attr:`dropped`), never grown.
    """

    def __init__(self, enabled: bool = True, rank: int = 0, max_events: int = 200_000):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self.enabled = bool(enabled)
        self.rank = int(rank)
        self.max_events = int(max_events)
        self.dropped = 0
        self._events: list[SpanEvent] = []
        self._local = threading.local()  # per-thread open-span stack
        self._tids: dict[int, int] = {}  # thread ident -> small stable id
        self._lock = threading.Lock()
        self._origin_ns = time.perf_counter_ns()

    # -- recording ----------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid

    def span(self, name: str, **attrs):
        """Context manager measuring the enclosed block as one span.

        This is the canonical API: it is exception-safe by construction.
        """
        if not self.enabled:
            return _NOOP
        return _SpanContext(self, name, attrs or None)

    def begin(self, name: str, **attrs) -> _OpenSpan | _NoopSpan:
        """Open a span manually. MUST be closed with :meth:`end` in a
        ``finally`` block — prefer :meth:`span`; the ``obs-span-leak`` lint
        rule enforces this pairing."""
        if not self.enabled:
            return _NOOP
        stack = self._stack()
        open_span = _OpenSpan(
            name,
            time.perf_counter_ns() - self._origin_ns,
            len(stack),
            self._tid(),
            attrs or None,
        )
        stack.append(open_span)
        return open_span

    def end(self, span: _OpenSpan | _NoopSpan, **attrs) -> None:
        """Close ``span`` (idempotent) and record the completed event."""
        if not self.enabled or span is _NOOP or isinstance(span, _NoopSpan):
            return
        if span.closed:
            return
        span.closed = True
        now = time.perf_counter_ns() - self._origin_ns
        stack = self._stack()
        if span in stack:  # tolerate out-of-order closes of overlapping spans
            stack.remove(span)
        if attrs:
            merged = dict(span.attrs or {})
            merged.update(attrs)
            span.attrs = merged
        if len(self._events) >= self.max_events:
            self.dropped += 1
            return
        self._events.append(
            SpanEvent(
                span.name,
                span.t0_ns,
                max(0, now - span.t0_ns),
                span.depth,
                span.tid,
                span.attrs,
            )
        )

    # -- inspection ---------------------------------------------------------------

    @property
    def events(self) -> list[SpanEvent]:
        """Completed spans, in completion order (children before parents)."""
        return self._events

    def clear(self) -> None:
        """Drop all completed events (open spans stay open)."""
        self._events.clear()
        self.dropped = 0

    def totals(self, depth: int | None = None) -> dict[str, dict[str, float]]:
        """Aggregate completed spans by name.

        Returns ``{name: {"total_s", "count", "mean_s"}}``; ``depth``
        restricts to spans at one nesting level (``depth=1`` is the
        :class:`~repro.core.vqmc.VQMC` phase level, under ``step``).
        """
        sums: dict[str, float] = {}
        counts: dict[str, int] = {}
        for ev in self._events:
            if depth is not None and ev.depth != depth:
                continue
            sums[ev.name] = sums.get(ev.name, 0.0) + ev.dur_ns * 1e-9
            counts[ev.name] = counts.get(ev.name, 0) + 1
        return {
            name: {
                "total_s": sums[name],
                "count": float(counts[name]),
                "mean_s": sums[name] / counts[name],
            }
            for name in sorted(sums)
        }


#: Shared disabled tracer: the default for every instrumented component, so
#: un-instrumented use pays one attribute load and an ``if`` per call site.
NULL_TRACER = Tracer(enabled=False, max_events=1)
