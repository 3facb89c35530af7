"""Health rule engine: every rule trips on its seeded anomaly, and only then.

The acceptance contract pinned here:

- each seeded synthetic anomaly flips its rule to CRIT within **5 steps**
  of onset;
- a clean 200-step stream produces **zero** CRIT verdicts on any rule;
- hysteresis: one bad step is WARN not CRIT, and recovery decays back to
  OK only after ``clear_after`` clean steps;
- ``tools/monitor.py health`` classifies a recorded stream with the same
  rules and exits non-zero on CRIT.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import CRIT, OK, WARN, HealthMonitor, replay_frames, worst_verdict
from repro.obs.health import (
    AcceptanceCollapseRule,
    ArenaGrowthRule,
    EnergyVarianceRule,
    NonFiniteEnergyRule,
    SNRDropRule,
    StragglerDriftRule,
)

pytestmark = pytest.mark.obs

REPO = Path(__file__).resolve().parents[2]
MONITOR = REPO / "tools" / "monitor.py"


def clean_frame(step, rng):
    """One step of a plausibly healthy run (gentle noise, no anomalies)."""
    return {
        "step": step,
        "energy": -8.0 + 0.05 * rng.standard_normal(),
        "std": 1.0 + 0.05 * rng.standard_normal(),
        "sem": 0.02 + 0.001 * rng.standard_normal(),
        "grad_norm": 1.5 + 0.1 * rng.standard_normal(),
        "step_time": 0.01 + 0.0005 * rng.standard_normal(),
        "acceptance": 0.45 + 0.02 * rng.standard_normal(),
        "sr": {"solver": "cg", "residual": 1e-8},
        "gauges": {"jit.arena_bytes": 32768.0},
    }


def rule_verdicts(monitor):
    return {name: rule["verdict"] for name, rule in monitor.report()["rules"].items()}


def run_stream(monitor, frames):
    for frame in frames:
        monitor.observe(frame)
    return monitor


def seeded_run(anomaly, onset=60, total=90, seed=1):
    """Clean stream with ``anomaly(frame)`` applied from ``onset`` on.
    Returns (monitor, step at which overall verdict first hit CRIT)."""
    rng = np.random.default_rng(seed)
    monitor = HealthMonitor()
    crit_at = None
    for step in range(1, total + 1):
        frame = clean_frame(step, rng)
        if step >= onset:
            anomaly(frame)
        monitor.observe(frame)
        if crit_at is None and monitor.verdict == CRIT:
            crit_at = step
    return monitor, crit_at


class TestCleanRunNoFalseAlarms:
    def test_200_clean_steps_zero_crits(self):
        rng = np.random.default_rng(42)
        monitor = HealthMonitor()
        for step in range(1, 201):
            monitor.observe(clean_frame(step, rng))
            assert monitor.verdict != CRIT, (
                f"false CRIT at step {step}: {rule_verdicts(monitor)}"
            )
        assert monitor.verdict == OK
        assert all(v == OK for v in rule_verdicts(monitor).values())


ANOMALIES = {
    "nan_energy": lambda f: f.update(energy=float("nan")),
    "energy_variance": lambda f: f.update(std=1e-6),
    "acceptance_collapse": lambda f: f.update(acceptance=0.001),
    "snr_drop": lambda f: f.update(sem=50.0),
    "straggler_drift": lambda f: f.update(step_time=0.05),
    "arena_growth": lambda f: f["gauges"].update(
        {"jit.arena_bytes": 32768.0 * (1 + f["step"])}
    ),
}


class TestEverySeededAnomalyTrips:
    @pytest.mark.parametrize("rule_name", sorted(ANOMALIES))
    def test_crit_within_five_steps(self, rule_name):
        monitor, crit_at = seeded_run(ANOMALIES[rule_name], onset=60, total=90)
        assert crit_at is not None, f"{rule_name} never reached CRIT"
        assert crit_at - 60 < 5, (
            f"{rule_name} took {crit_at - 60 + 1} steps to trip"
        )
        assert rule_verdicts(monitor)[rule_name] == CRIT, (
            f"CRIT came from the wrong rule: {rule_verdicts(monitor)}"
        )

    def test_variance_spike_also_trips(self):
        monitor, crit_at = seeded_run(lambda f: f.update(std=500.0))
        assert crit_at is not None
        assert rule_verdicts(monitor)["energy_variance"] == CRIT


class TestHysteresis:
    def test_single_bad_step_is_warn_not_crit(self):
        rng = np.random.default_rng(3)
        monitor = HealthMonitor()
        for step in range(1, 40):
            monitor.observe(clean_frame(step, rng))
        frame = clean_frame(40, rng)
        frame["acceptance"] = 0.001
        monitor.observe(frame)
        assert rule_verdicts(monitor)["acceptance_collapse"] == WARN

    def test_recovery_decays_to_ok_after_clear_after(self):
        rule = AcceptanceCollapseRule()
        monitor = HealthMonitor([rule])
        rng = np.random.default_rng(5)
        for step in range(1, 20):
            frame = clean_frame(step, rng)
            if step <= 5:
                frame["acceptance"] = 0.001
            monitor.observe(frame)
            if step == 5:
                assert monitor.verdict == CRIT
        # 14 clean steps > clear_after=10 -> back to OK, and the
        # transition log recorded the full round trip
        assert monitor.verdict == OK
        arcs = [(t["from"], t["to"]) for t in monitor.transitions]
        assert (OK, WARN) in arcs or (OK, CRIT) in arcs
        assert arcs[-1][1] == OK

    def test_nan_trips_immediately(self):
        assert NonFiniteEnergyRule.trip_after == 1
        monitor = HealthMonitor([NonFiniteEnergyRule()])
        monitor.observe({"step": 1, "energy": float("inf")})
        assert monitor.verdict == CRIT

    def test_baseline_freezes_while_bad(self):
        # A sustained collapse must not drag the rolling baseline down and
        # re-normalise itself into OK.
        rule = EnergyVarianceRule(min_samples=5)
        monitor = HealthMonitor([rule])
        rng = np.random.default_rng(7)
        for step in range(1, 20):
            monitor.observe(clean_frame(step, rng))
        for step in range(20, 120):
            frame = clean_frame(step, rng)
            frame["std"] = 1e-6
            monitor.observe(frame)
        assert monitor.verdict == CRIT  # still CRIT after 100 bad steps


class TestRuleUnits:
    def test_missing_keys_are_tolerated(self):
        rules = [
            NonFiniteEnergyRule(), EnergyVarianceRule(),
            AcceptanceCollapseRule(), SNRDropRule(),
            StragglerDriftRule(), ArenaGrowthRule(),
        ]
        for rule in rules:
            assert rule.check({"step": 1}) is None, rule.name

    def test_exact_sampler_never_trips_acceptance(self):
        rule = AcceptanceCollapseRule()
        assert rule.check({"acceptance": float("nan")}) is None
        assert rule.check({"acceptance": 1.0}) is None
        assert rule.check({"acceptance": 0.01}) is not None

    def test_arena_single_recompile_is_fine(self):
        rule = ArenaGrowthRule()
        assert rule.check({"gauges": {"jit.arena_bytes": 100.0}}) is None
        assert rule.check({"gauges": {"jit.arena_bytes": 200.0}}) is not None
        # plateau: growth stopped, no further complaints
        assert rule.check({"gauges": {"jit.arena_bytes": 200.0}}) is None

    def test_duplicate_rule_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate rule names"):
            HealthMonitor([SNRDropRule(), SNRDropRule()])

    def test_worst_verdict(self):
        assert worst_verdict([]) == OK
        assert worst_verdict([OK, WARN]) == WARN
        assert worst_verdict([WARN, CRIT, OK]) == CRIT


class TestReplayAndReport:
    def test_replay_matches_live(self):
        rng = np.random.default_rng(11)
        frames = [clean_frame(s, rng) for s in range(1, 50)]
        for f in frames[30:]:
            f["energy"] = float("nan")
        live = run_stream(HealthMonitor(), frames)
        replayed = replay_frames(frames)
        assert rule_verdicts(replayed) == rule_verdicts(live)
        assert replayed.report()["verdict"] == live.report()["verdict"]

    def test_report_shape(self):
        monitor, _ = seeded_run(ANOMALIES["acceptance_collapse"])
        report = monitor.report()
        assert report["schema"] == "repro.health/1"
        assert report["verdict"] == CRIT
        info = report["rules"]["acceptance_collapse"]
        assert info["verdict"] == CRIT
        assert info["tripped_step"] is not None and info["bad_steps"] > 0
        assert any(t["rule"] == "acceptance_collapse" and t["to"] == CRIT
                   for t in report["transitions"])


class TestMonitorCLI:
    def _write_jsonl(self, path, frames):
        with path.open("w") as fh:
            fh.write(json.dumps({"event": "run_begin"}) + "\n")
            for f in frames:
                fh.write(json.dumps({"event": "step", **f}) + "\n")

    def test_clean_stream_exits_zero(self, tmp_path):
        rng = np.random.default_rng(2)
        self._write_jsonl(
            tmp_path / "run.jsonl", [clean_frame(s, rng) for s in range(1, 40)]
        )
        r = subprocess.run(
            [sys.executable, str(MONITOR), "health", str(tmp_path)],
            capture_output=True, text=True,
        )
        assert r.returncode == 0, r.stdout + r.stderr
        assert "OK" in r.stdout

    def test_anomalous_stream_exits_one_and_names_rule(self, tmp_path):
        rng = np.random.default_rng(2)
        frames = [clean_frame(s, rng) for s in range(1, 40)]
        for f in frames[20:]:
            f["acceptance"] = 0.001
        self._write_jsonl(tmp_path / "run.jsonl", frames)
        r = subprocess.run(
            [sys.executable, str(MONITOR), "health", str(tmp_path), "--json"],
            capture_output=True, text=True,
        )
        assert r.returncode == 1, r.stdout + r.stderr
        payload = json.loads(r.stdout)
        assert payload["sources"]["run.jsonl"]["rules"]["acceptance_collapse"]["verdict"] == CRIT
