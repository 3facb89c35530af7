"""Live health monitoring: a streaming rule engine over the metric stream.

The flight recorder (:mod:`repro.obs.flight`) preserves the moments before
a death; this module is the layer that *watches* a run while it is alive
and judges it. Each :class:`HealthRule` inspects the per-step frames the
:class:`~repro.obs.flight.StepFrameBuilder` produces and yields a
detail string when the step looks bad; a hysteresis wrapper turns raw
per-step judgements into stable OK/WARN/CRIT verdicts:

- the first bad sighting escalates to **WARN**;
- ``trip_after`` *consecutive* bad steps escalate to **CRIT** (so a
  single noisy step cannot page anyone);
- ``clear_after`` consecutive clean steps decay back to **OK** (so a
  verdict does not flap at the threshold).

Rule catalogue (defaults chosen so a clean run never reaches CRIT):

=====================  ========================================================
``nan_energy``         energy / std / grad_norm non-finite (trips immediately)
``energy_variance``    energy std collapsed or spiked vs. a rolling baseline
``acceptance_collapse``sampler acceptance below an absolute floor (MCMC runs)
``snr_drop``           energy |mean|/sem dropped far below its rolling baseline
``straggler_drift``    step time beyond the trace CLI's straggler threshold
                       (1.25×) of its rolling median
=====================  ========================================================

Rolling baselines freeze while a rule is bad — an anomaly must not be
allowed to normalise itself into the baseline it is judged against.

:class:`HealthMonitor` bundles the rules behind the standard callback
protocol (``on_step``), exposes :meth:`~HealthMonitor.report` (embedded
in checkpoints by ``save_checkpoint`` and in flight dumps), and replays
recorded streams offline (:func:`replay_frames` — what
``tools/monitor.py`` uses on JSONL logs and flight dumps).
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from collections import deque

from repro.obs.flight import StepFrameBuilder

__all__ = [
    "OK",
    "WARN",
    "CRIT",
    "HealthRule",
    "NonFiniteEnergyRule",
    "EnergyVarianceRule",
    "AcceptanceCollapseRule",
    "SNRDropRule",
    "StragglerDriftRule",
    "HealthMonitor",
    "default_rules",
    "replay_frames",
    "worst_verdict",
]

OK, WARN, CRIT = "OK", "WARN", "CRIT"
_SEVERITY = {OK: 0, WARN: 1, CRIT: 2}

#: health-report schema identifier
HEALTH_SCHEMA = "repro.health/1"

#: verdict transitions a monitor keeps (the oldest drop out first)
MAX_TRANSITIONS = 200


def worst_verdict(verdicts) -> str:
    """The most severe of an iterable of OK/WARN/CRIT strings."""
    worst = OK
    for v in verdicts:
        if _SEVERITY.get(v, 0) > _SEVERITY[worst]:
            worst = v
    return worst


def _finite(value) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


class _Rolling:
    """Bounded rolling window with a median baseline.

    ``push`` only happens while the owning rule judges the step clean, so
    a sustained anomaly cannot drag the baseline toward itself. The window
    is mirrored into an incrementally-maintained sorted list so the
    per-step median is two index reads, not a fresh sort — this runs on
    every training step of every rank.
    """

    def __init__(self, window: int = 50, min_samples: int = 10):
        self.window = window
        self.min_samples = min_samples
        self._buf: deque = deque()
        self._sorted: list[float] = []

    def push(self, value: float) -> None:
        value = float(value)
        self._buf.append(value)
        insort(self._sorted, value)
        if len(self._buf) > self.window:
            evicted = self._buf.popleft()
            del self._sorted[bisect_left(self._sorted, evicted)]

    def median(self) -> float | None:
        n = len(self._sorted)
        if n < self.min_samples:
            return None
        mid = n // 2
        if n % 2:
            return self._sorted[mid]
        return 0.5 * (self._sorted[mid - 1] + self._sorted[mid])


class HealthRule:
    """One streaming judgement. Subclasses implement :meth:`check`.

    Attributes
    ----------
    name:
        Stable identifier (keys reports, tests, and the monitor CLI).
    trip_after:
        Consecutive bad steps before WARN escalates to CRIT.
    clear_after:
        Consecutive clean steps before the verdict decays to OK.
    """

    name = "rule"
    trip_after = 3
    clear_after = 10

    def check(self, frame: dict) -> str | None:
        """Return a human-readable detail when ``frame`` looks bad, else
        ``None``. Must tolerate missing keys (offline streams carry fewer
        fields than live ones)."""
        raise NotImplementedError


class NonFiniteEnergyRule(HealthRule):
    """NaN/Inf in the quantities that poison a run irreversibly."""

    name = "nan_energy"
    trip_after = 1

    def check(self, frame: dict) -> str | None:
        for key in ("energy", "std", "sem", "grad_norm"):
            value = frame.get(key)
            if value is not None and not _finite(value):
                return f"{key} is {value}"
        return None


class EnergyVarianceRule(HealthRule):
    """Energy variance collapsed (sampler stuck on one configuration) or
    spiked (amplitude ratios blowing up) relative to its own history."""

    name = "energy_variance"

    def __init__(
        self,
        collapse_ratio: float = 1e-3,
        spike_ratio: float = 100.0,
        window: int = 50,
        min_samples: int = 10,
    ):
        self.collapse_ratio = collapse_ratio
        self.spike_ratio = spike_ratio
        self._baseline = _Rolling(window, min_samples)

    def check(self, frame: dict) -> str | None:
        std = frame.get("std")
        if not _finite(std):
            return None  # nan_energy owns non-finite values
        base = self._baseline.median()
        if base is not None and base > 0:
            if std < self.collapse_ratio * base:
                return (
                    f"energy std {std:.3g} collapsed below "
                    f"{self.collapse_ratio:g}x baseline {base:.3g}"
                )
            if std > self.spike_ratio * base:
                return (
                    f"energy std {std:.3g} spiked above "
                    f"{self.spike_ratio:g}x baseline {base:.3g}"
                )
        self._baseline.push(std)
        return None


class AcceptanceCollapseRule(HealthRule):
    """MCMC acceptance rate below an absolute floor: the chain is stuck
    and the batch is no longer a sample. Exact (autoregressive) samplers
    report acceptance 1.0 and never trip this."""

    name = "acceptance_collapse"

    def __init__(self, min_acceptance: float = 0.05):
        self.min_acceptance = min_acceptance

    def check(self, frame: dict) -> str | None:
        acceptance = frame.get("acceptance")
        if not _finite(acceptance):
            return None  # sampler does not report acceptance
        if acceptance < self.min_acceptance:
            return (
                f"acceptance {acceptance:.4f} below floor "
                f"{self.min_acceptance:g}"
            )
        return None


class SNRDropRule(HealthRule):
    """Energy signal-to-noise (|mean| / sem) far below its rolling
    baseline: the estimator's statistics degraded — batch starvation,
    sampler trouble, or divergence-in-progress."""

    name = "snr_drop"

    def __init__(
        self,
        drop_ratio: float = 0.1,
        window: int = 50,
        min_samples: int = 10,
    ):
        self.drop_ratio = drop_ratio
        self._baseline = _Rolling(window, min_samples)

    def check(self, frame: dict) -> str | None:
        mean, sem = frame.get("energy"), frame.get("sem")
        if not (_finite(mean) and _finite(sem)) or sem <= 0:
            return None
        snr = abs(mean) / sem
        base = self._baseline.median()
        if base is not None and base > 0 and snr < self.drop_ratio * base:
            return (
                f"SNR {snr:.3g} dropped below {self.drop_ratio:g}x "
                f"baseline {base:.3g}"
            )
        self._baseline.push(snr)
        return None


class StragglerDriftRule(HealthRule):
    """This rank's step time drifted beyond the trace CLI's straggler
    threshold (default 1.25×) of its own rolling median — the live,
    per-rank version of ``tools/trace.py summary``'s cross-rank flag."""

    name = "straggler_drift"
    trip_after = 5

    def __init__(
        self,
        threshold: float = 1.25,
        window: int = 50,
        min_samples: int = 10,
    ):
        self.threshold = threshold
        self._baseline = _Rolling(window, min_samples)

    def check(self, frame: dict) -> str | None:
        step_time = frame.get("step_time")
        if not _finite(step_time) or step_time <= 0:
            return None
        base = self._baseline.median()
        if base is not None and base > 0 and step_time > self.threshold * base:
            return (
                f"step time {step_time * 1e3:.1f} ms is "
                f"{step_time / base:.2f}x the rolling median "
                f"{base * 1e3:.1f} ms (threshold {self.threshold:g}x)"
            )
        self._baseline.push(step_time)
        return None


def default_rules() -> list[HealthRule]:
    """Fresh instances of the full rule catalogue."""
    return [
        NonFiniteEnergyRule(),
        EnergyVarianceRule(),
        AcceptanceCollapseRule(),
        SNRDropRule(),
        StragglerDriftRule(),
    ]


class _RuleRuntime:
    """Hysteresis wrapper: raw per-step judgements → stable verdicts."""

    __slots__ = ("rule", "verdict", "detail", "bad_streak", "good_streak",
                 "tripped_step", "bad_steps")

    def __init__(self, rule: HealthRule):
        self.rule = rule
        self.verdict = OK
        self.detail = ""
        self.bad_streak = 0
        self.good_streak = 0
        self.tripped_step: int | None = None
        self.bad_steps = 0

    def update(self, frame: dict) -> str:
        detail = self.rule.check(frame)
        if detail is not None:
            self.bad_steps += 1
            self.bad_streak += 1
            self.good_streak = 0
            self.detail = detail
            if self.bad_streak >= self.rule.trip_after:
                if self.verdict != CRIT:
                    self.tripped_step = frame.get("step")
                self.verdict = CRIT
            elif self.verdict == OK:
                self.verdict = WARN
        else:
            self.good_streak += 1
            self.bad_streak = 0
            if self.verdict != OK and self.good_streak >= self.rule.clear_after:
                self.verdict = OK
                self.detail = ""
        return self.verdict

    def snapshot(self) -> dict:
        return {
            "verdict": self.verdict,
            "detail": self.detail,
            "bad_steps": self.bad_steps,
            "bad_streak": self.bad_streak,
            "tripped_step": self.tripped_step,
        }


class HealthMonitor:
    """Streaming OK/WARN/CRIT verdicts over a training run.

    Use as a regular callback (``callbacks=[HealthMonitor()]``), hand it
    to a :class:`~repro.obs.flight.FlightRecorder` (``health=``) to share
    one frame builder, or drive it offline via :meth:`observe` /
    :func:`replay_frames`.

    ``on_run_begin`` registers the monitor as ``vqmc.health`` so
    ``save_checkpoint`` embeds :meth:`report` in every checkpoint header —
    a restored run knows how healthy its source was.
    """

    def __init__(self, rules=None):
        self.rules = list(rules) if rules is not None else default_rules()
        names = [r.name for r in self.rules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate rule names: {names}")
        self._runtimes = [_RuleRuntime(r) for r in self.rules]
        #: bounded log of verdict transitions: {step, rule, from, to, detail}
        self.transitions: deque = deque(maxlen=MAX_TRANSITIONS)
        self.steps_seen = 0
        self.last_step: int | None = None
        self._builder = StepFrameBuilder()

    # -- callback protocol --------------------------------------------------------

    def on_run_begin(self, vqmc) -> None:
        vqmc.health = self

    def on_step(self, step: int, result) -> None:
        self.observe(self._builder.build(step, result))

    def on_run_end(self, vqmc) -> None:
        pass

    # -- streaming core -----------------------------------------------------------

    def observe(self, frame: dict) -> str:
        """Feed one frame through every rule; returns the overall verdict."""
        self.steps_seen += 1
        step = frame.get("step")
        if step is not None:
            self.last_step = int(step)
        for rt in self._runtimes:
            before = rt.verdict
            after = rt.update(frame)
            if after != before:
                self.transitions.append(
                    {
                        "step": step,
                        "rule": rt.rule.name,
                        "from": before,
                        "to": after,
                        "detail": rt.detail,
                    }
                )
        return self.verdict

    @property
    def verdict(self) -> str:
        """Overall verdict: the worst of the per-rule verdicts."""
        return worst_verdict(rt.verdict for rt in self._runtimes)

    def report(self) -> dict:
        """JSON-ready :class:`HealthReport`: overall + per-rule verdicts,
        details, trip points, and the recent transition log."""
        return {
            "schema": HEALTH_SCHEMA,
            "verdict": self.verdict,
            "steps": self.steps_seen,
            "last_step": self.last_step,
            "rules": {rt.rule.name: rt.snapshot() for rt in self._runtimes},
            "transitions": list(self.transitions),
        }


def replay_frames(frames, rules=None) -> HealthMonitor:
    """Classify a recorded frame stream offline; returns the monitor.

    This is the engine behind ``tools/monitor.py``: the same rules that
    run live are replayed over a JSONL log or a flight dump's ring
    buffer, so online and post-mortem verdicts can never disagree.
    """
    monitor = HealthMonitor(rules)
    for frame in frames:
        monitor.observe(frame)
    return monitor
