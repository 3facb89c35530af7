"""Observability overhead — what does tracing a training step cost?

The :mod:`repro.obs` tracer wraps every ``VQMC.step`` phase and every
collective in a span. Observability only earns its keep if it is cheap
enough to leave on: the acceptance targets are **<= 5 %** step overhead
with tracing *enabled* and **<= 0.5 %** with a tracer constructed but
*disabled* (the production default — ``Tracer(enabled=False)`` and
``tracer=None`` share the identical no-op path, so disabled cost is the
cost of a few attribute lookups per phase).

Protocol mirrors ``bench_sanitizer_overhead.py``: four identically-seeded
training runs (no tracer / disabled tracer / enabled tracer / fully
instrumented) advance in lock-step, each trial times a block of steps in
all arms back-to-back, and the reported overhead is the median of
per-trial paired ratios — robust to scheduler noise and to the
(identical) parameter trajectory drifting over training.

The *instrumented* arm is the full leave-it-on observability stack from
the flight-recorder issue: enabled tracer + ``Metrics`` registry +
``FlightRecorder`` ring buffer + ``HealthMonitor`` rule engine fed every
step. Its acceptance target is the same <= 5 % as the bare tracer — the
recorder and health rules must be cheap enough to fly on every rank.

A micro-benchmark of the bare span enter/exit cost (ns per span, enabled
vs disabled) is included so regressions in the tracer itself are visible
before they are diluted by step numerics.

Emits ``BENCH_obs_overhead.json`` (via ``_harness.emit_json``).
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _harness import emit_json, format_table, parse_args  # noqa: E402

from repro.core import VQMC  # noqa: E402
from repro.hamiltonians import TransverseFieldIsing  # noqa: E402
from repro.models import MADE  # noqa: E402
from repro.obs import FlightRecorder, HealthMonitor, Metrics, Tracer  # noqa: E402
from repro.optim import Adam  # noqa: E402
from repro.samplers import AutoregressiveSampler  # noqa: E402

N_SITES = 10
HIDDEN = 24
BATCH = 128

#: acceptance targets from the observability issue
TARGET_ENABLED_PCT = 5.0
TARGET_DISABLED_PCT = 0.5


def _make_vqmc(tracer: Tracer | None, metrics: Metrics | None = None) -> VQMC:
    """One arm of the paired run; all arms share seeds, so the parameter
    trajectories (and therefore per-step numeric cost) are identical."""
    model = MADE(N_SITES, hidden=HIDDEN, rng=np.random.default_rng(3))
    return VQMC(
        model,
        TransverseFieldIsing.random(N_SITES, seed=99),
        AutoregressiveSampler(),
        Adam(model.parameters(), lr=0.01),
        seed=7,
        tracer=tracer,
        metrics=metrics,
    )


class _Arm:
    """One paired arm: a VQMC plus whatever observers ride its steps."""

    def __init__(self, vqmc: VQMC, recorder: FlightRecorder | None = None):
        self.vqmc = vqmc
        self.recorder = recorder
        self.steps_done = 0
        if recorder is not None:
            recorder.on_run_begin(vqmc)

    def time_steps(self, steps: int) -> float:
        t0 = time.perf_counter()
        for _ in range(steps):
            result = self.vqmc.step(batch_size=BATCH)
            self.steps_done += 1
            if self.recorder is not None:
                self.recorder.on_step(self.steps_done, result)
        return time.perf_counter() - t0


def _make_instrumented() -> _Arm:
    """The full leave-it-on stack: tracer + metrics + ring buffer + rules."""
    vqmc = _make_vqmc(Tracer(enabled=True), metrics=Metrics())
    recorder = FlightRecorder(
        tempfile.mkdtemp(prefix="bench_obs_flight_"),
        capacity=64,
        rank=0,
        health=HealthMonitor(),
    )
    return _Arm(vqmc, recorder)


def measure_step_overhead(steps: int = 25, trials: int = 24) -> dict:
    arms = {
        "baseline": _Arm(_make_vqmc(tracer=None)),
        "disabled": _Arm(_make_vqmc(Tracer(enabled=False))),
        "enabled": _Arm(_make_vqmc(Tracer(enabled=True))),
        "instrumented": _make_instrumented(),
    }
    for arm in arms.values():  # warm-up: allocators, fast-path caches
        arm.time_steps(1)
    times = {name: [] for name in arms}
    order = list(arms)
    for trial in range(trials):
        # Rotate arm order per trial so slow clock-frequency / thermal drift
        # within a trial biases each arm equally across the run; the 0.5 %
        # disabled target is below naive back-to-back noise.
        k = trial % len(order)
        for name in order[k:] + order[:k]:
            times[name].append(arms[name].time_steps(steps))
    base = np.array(times["baseline"])
    result = {
        "steps_per_trial": steps,
        "trials": trials,
        "batch": BATCH,
        "n_sites": N_SITES,
        "baseline_ms_per_step": float(np.median(base)) / steps * 1e3,
    }
    for name in ("disabled", "enabled", "instrumented"):
        arm = np.array(times[name])
        result[f"{name}_ms_per_step"] = float(np.median(arm)) / steps * 1e3
        result[f"{name}_overhead_pct"] = float(np.median(arm / base - 1.0) * 100.0)
    enabled_tracer = arms["enabled"].vqmc.tracer
    result["enabled_span_count"] = len(enabled_tracer.events)
    result["enabled_dropped"] = enabled_tracer.dropped
    instrumented = arms["instrumented"]
    result["instrumented_frames_buffered"] = len(instrumented.recorder.frames)
    result["instrumented_health_verdict"] = instrumented.recorder.health.verdict
    return result


def measure_span_cost(reps: int = 50_000) -> dict:
    """Nanoseconds per bare span enter/exit, enabled vs disabled."""
    out = {}
    for name, tracer in (
        ("enabled", Tracer(enabled=True, max_events=2 * reps)),
        ("disabled", Tracer(enabled=False)),
    ):
        with tracer.span("warmup"):
            pass
        t0 = time.perf_counter_ns()
        for _ in range(reps):
            with tracer.span("bench.span"):
                pass
        out[f"{name}_ns_per_span"] = (time.perf_counter_ns() - t0) / reps
    return out


# -- pytest-benchmark entry points ---------------------------------------------


def bench_traced_step(benchmark):
    vqmc = _make_vqmc(Tracer(enabled=True))
    vqmc.step(batch_size=BATCH)
    benchmark(lambda: vqmc.step(batch_size=BATCH))


def bench_span_enter_exit(benchmark):
    tracer = Tracer(enabled=True, max_events=10_000_000)

    def body():
        with tracer.span("bench.span"):
            pass

    benchmark(body)


def main() -> None:
    parse_args(__doc__.splitlines()[0])
    step = measure_step_overhead()
    span = measure_span_cost()

    rows = [
        ["baseline (no tracer)", step["baseline_ms_per_step"], "-", "-"],
        [
            "Tracer(enabled=False)",
            step["disabled_ms_per_step"],
            step["disabled_overhead_pct"],
            f"<= {TARGET_DISABLED_PCT}",
        ],
        [
            "Tracer(enabled=True)",
            step["enabled_ms_per_step"],
            step["enabled_overhead_pct"],
            f"<= {TARGET_ENABLED_PCT}",
        ],
        [
            "+ metrics + flight + health",
            step["instrumented_ms_per_step"],
            step["instrumented_overhead_pct"],
            f"<= {TARGET_ENABLED_PCT}",
        ],
    ]
    print(format_table(
        ["arm", "ms / step", "overhead (%)", "target (%)"],
        rows,
        title=(
            f"tracing overhead on VQMC.step (MADE({N_SITES}, hidden={HIDDEN}), "
            f"batch={BATCH}, paired trials)"
        ),
    ))
    print(
        f"\nbare span enter/exit: enabled {span['enabled_ns_per_span']:.0f} ns, "
        f"disabled {span['disabled_ns_per_span']:.0f} ns"
    )
    ok_enabled = step["enabled_overhead_pct"] <= TARGET_ENABLED_PCT
    ok_disabled = step["disabled_overhead_pct"] <= TARGET_DISABLED_PCT
    ok_instrumented = step["instrumented_overhead_pct"] <= TARGET_ENABLED_PCT
    print(
        f"enabled: {step['enabled_overhead_pct']:+.2f}% "
        f"({'PASS' if ok_enabled else 'FAIL'} vs {TARGET_ENABLED_PCT}%)  |  "
        f"disabled: {step['disabled_overhead_pct']:+.2f}% "
        f"({'PASS' if ok_disabled else 'FAIL'} vs {TARGET_DISABLED_PCT}%)  |  "
        f"instrumented: {step['instrumented_overhead_pct']:+.2f}% "
        f"({'PASS' if ok_instrumented else 'FAIL'} vs {TARGET_ENABLED_PCT}%)"
    )

    emit_json("obs_overhead", {
        "step": step,
        "span_cost": span,
        "targets": {
            "enabled_pct": TARGET_ENABLED_PCT,
            "disabled_pct": TARGET_DISABLED_PCT,
            "instrumented_pct": TARGET_ENABLED_PCT,
        },
        "pass": bool(ok_enabled and ok_disabled and ok_instrumented),
    })


if __name__ == "__main__":
    main()
