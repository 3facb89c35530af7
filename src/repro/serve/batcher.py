"""Request batcher: coalesce concurrent queries into one model forward.

Serving cost is dominated by per-call overhead at realistic query sizes
(tens of samples against small warm models), so the batcher groups
concurrent ``sample``/``energy`` queries **against the same model key**
into one forward pass and hands each request back its own slice.

Batching-window semantics (documented contract, asserted by tests):

- ``window`` is the maximum number of requests coalesced into one forward
  pass. ``B`` concurrent requests against one model therefore execute in
  exactly ``ceil(B / window)`` model forwards — observable via the
  ``serve.batcher.forwards`` counter (and :attr:`RequestBatcher.forwards`),
  never inferred from timing.
- A request departs as soon as the executor is free: a lone request on an
  idle batcher is served at once (``coalesced == 1``), and whatever queued
  behind a busy executor leaves together, up to ``window``. Coalescing
  under load comes from that queue, never from a timer.
- Requests for *different* model keys never share a forward; keys take
  turns (round-robin): a key with requests left after its forward goes to
  the back of the line, so a steady stream on one model cannot starve
  queries on another.

One coalesced forward draws ``sum(batch_size)`` samples from the entry's
dedicated ``query_rng`` (never a training stream — the RNG-sharing fix in
``repro.core.vqmc`` applies server-side too) and, when any request in the
group wants energies, evaluates local energies once over the union batch.
Per-request energy statistics are computed on the request's own slice, so
every client sees statistics over exactly the samples it paid for.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque

from repro.core.energy import energy_statistics, local_energies
from repro.serve.cache import CacheEntry
from repro.serve.protocol import ModelKey, QuerySpec

__all__ = ["BatcherClosed", "PendingQuery", "RequestBatcher"]


class BatcherClosed(RuntimeError):
    """The batcher is shut down; no further queries are accepted."""


class PendingQuery:
    """A submitted query: a one-shot future the HTTP handler blocks on."""

    def __init__(self, spec: QuerySpec, entry: CacheEntry):
        self.spec = spec
        self.entry = entry
        self._event = threading.Event()
        self.result: dict | None = None
        self.error: BaseException | None = None

    def resolve(self, result: dict) -> None:
        self.result = result
        self._event.set()

    def reject(self, error: BaseException) -> None:
        self.error = error
        self._event.set()

    def wait(self, timeout: float | None = None) -> dict:
        """Block until served; raises the executor's error if it failed."""
        if not self._event.wait(timeout):
            raise TimeoutError(
                f"query not served within {timeout}s (kind={self.spec.kind})"
            )
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class RequestBatcher:
    """Background executor coalescing queries per model key.

    Parameters
    ----------
    window:
        Max requests per coalesced forward (see module docstring).
    metrics:
        Optional :class:`repro.obs.Metrics`: ``serve.batcher.forwards`` /
        ``.requests`` / ``.samples`` counters.
    autostart:
        Start the executor thread immediately (tests pass ``False`` and
        call :meth:`start` after staging requests, making the
        ``ceil(B/window)`` forward count deterministic).
    """

    def __init__(self, window: int = 8, metrics=None, autostart: bool = True):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.metrics = metrics
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._pending: "OrderedDict[ModelKey, deque[PendingQuery]]" = OrderedDict()
        self._stopped = False
        self._thread: threading.Thread | None = None
        #: coalesced forward passes executed (the acceptance-criterion counter)
        self.forwards = 0
        #: requests served
        self.requests = 0
        #: total samples drawn across all forwards
        self.samples = 0
        if autostart:
            self.start()

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._loop, name="serve-batcher", daemon=True
        )
        self._thread.start()

    def close(self, timeout: float = 10.0) -> None:
        """Drain pending queries, then stop the executor."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    # -- submission ---------------------------------------------------------------

    def submit(self, spec: QuerySpec, entry: CacheEntry) -> PendingQuery:
        """Enqueue a query against a warm entry; returns its future."""
        if spec.kind not in QuerySpec.KINDS:
            raise ValueError(f"unknown query kind {spec.kind!r}")
        pending = PendingQuery(spec, entry)
        with self._cond:
            if self._stopped:
                raise BatcherClosed("batcher is shut down")
            self._pending.setdefault(entry.key, deque()).append(pending)
            self._cond.notify_all()
        return pending

    def pending_count(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._pending.values())

    # -- executor -----------------------------------------------------------------

    def _take_group(self) -> list[PendingQuery] | None:
        """Block until a request is pending; None when stopped and drained."""
        with self._cond:
            while not self._pending and not self._stopped:
                self._cond.wait(0.05)
            if not self._pending:
                return None  # stopped and drained
            key, queue = next(iter(self._pending.items()))
            group = [queue.popleft() for _ in range(min(self.window, len(queue)))]
            if queue:
                self._pending.move_to_end(key)  # round-robin: the others go first
            else:
                del self._pending[key]
            return group

    def _loop(self) -> None:
        while True:
            group = self._take_group()
            if group is None:
                return
            self._execute(group)

    def _execute(self, group: list[PendingQuery]) -> None:
        entry = group[0].entry
        sizes = [q.spec.batch_size for q in group]
        total = sum(sizes)
        try:
            with entry.lock:
                vqmc = entry.vqmc
                x = vqmc.sampler.sample(vqmc.model, total, entry.query_rng)
                local = None
                if any(q.spec.kind == "energy" for q in group):
                    local = local_energies(vqmc.model, vqmc.hamiltonian, x)
        except Exception as exc:  # noqa: BLE001 — forwarded to every waiter
            for q in group:
                q.reject(exc)
            return
        self.forwards += 1
        self.requests += len(group)
        self.samples += total
        if self.metrics is not None:
            self.metrics.counter("serve.batcher.forwards").inc()
            self.metrics.counter("serve.batcher.requests").inc(len(group))
            self.metrics.counter("serve.batcher.samples").inc(total)
        offset = 0
        for q, size in zip(group, sizes):
            view = slice(offset, offset + size)
            offset += size
            if q.spec.kind == "sample":
                q.resolve(
                    {
                        "samples": x[view].astype(int).tolist(),
                        "batch_size": size,
                        "coalesced": len(group),
                    }
                )
            else:
                stats = energy_statistics(local[view])
                q.resolve(
                    {
                        "mean": stats.mean,
                        "std": stats.std,
                        "sem": stats.sem,
                        "count": stats.count,
                        "coalesced": len(group),
                    }
                )

    def stats(self) -> dict:
        return {
            "window": self.window,
            "forwards": self.forwards,
            "requests": self.requests,
            "samples": self.samples,
            "pending": self.pending_count(),
        }
