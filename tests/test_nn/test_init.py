"""Weight initialisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import init


class TestInitializers:
    def test_kaiming_uniform_bounds_and_shape(self, rng):
        w = init.kaiming_uniform(rng, 64, 100)
        assert w.shape == (64, 100)
        bound = np.sqrt(3.0 / 100)
        assert np.all(np.abs(w) <= bound)
        # Roughly uniform: mean near 0, variance near bound²/3.
        assert abs(w.mean()) < bound / 10
        assert w.var() == pytest.approx(bound**2 / 3, rel=0.15)

    def test_kaiming_gain_scales_bounds(self, rng):
        w1 = init.kaiming_uniform(rng, 50, 50, gain=1.0)
        w2 = init.kaiming_uniform(rng, 50, 50, gain=2.0)
        assert np.abs(w2).max() > np.abs(w1).max()

    def test_uniform_bias_bounds(self, rng):
        b = init.uniform_bias(rng, 32, 16)
        assert b.shape == (32,)
        assert np.all(np.abs(b) <= 1.0 / 4.0)

    def test_normal_std(self, rng):
        w = init.normal(rng, (200, 200), std=0.05)
        assert w.std() == pytest.approx(0.05, rel=0.05)

    def test_degenerate_fan_in(self, rng):
        # fan_in 0 must not divide by zero.
        w = init.kaiming_uniform(rng, 4, 0)
        assert w.shape == (4, 0)


class TestHarnessCli:
    def test_paper_flag_parses(self, monkeypatch):
        import sys

        sys.path.insert(0, "benchmarks")
        from _harness import parse_args

        monkeypatch.setattr(sys, "argv", ["bench", "--paper", "--iters", "7"])
        args = parse_args("test")
        assert args.paper is True
        assert args.iters == 7
        monkeypatch.setattr(sys, "argv", ["bench"])
        args = parse_args("test")
        assert args.paper is False and args.iters is None
