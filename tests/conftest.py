"""Shared fixtures for the test suite."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.hamiltonians import MaxCut, TransverseFieldIsing
from repro.models import made as made_module

#: wall seconds a test not marked ``slow`` may spend in setup and call together
TEST_BUDGET_S = 10.0
_SETUP_S = pytest.StashKey[float]()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """Fail a passing test that is not marked ``slow`` but whose setup plus
    call took longer than :data:`TEST_BUDGET_S`."""
    report = (yield).get_result()
    if call.when == "setup":
        item.stash[_SETUP_S] = call.duration
        return
    if call.when != "call" or not report.passed or item.get_closest_marker("slow"):
        return
    took = item.stash.get(_SETUP_S, 0.0) + call.duration
    if took > TEST_BUDGET_S:
        report.outcome = "failed"
        report.longrepr = (
            f"{item.nodeid} took {took:.1f} s (setup + call), over the "
            f"{TEST_BUDGET_S:g} s per-test wall budget; make it faster or "
            "mark it @pytest.mark.slow"
        )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def small_tim() -> TransverseFieldIsing:
    """A 6-site disordered TIM instance (exactly diagonalisable)."""
    return TransverseFieldIsing.random(6, seed=99)


@pytest.fixture
def small_maxcut() -> MaxCut:
    """A 8-vertex random Max-Cut instance (brute-forceable)."""
    return MaxCut.random(8, seed=7)


def mask_connectivity(masks: list[np.ndarray]) -> np.ndarray:
    """The dense oracle for a MADE mask stack: ``[i, j]`` is True iff output
    ``i`` has a path from input ``j`` through the stack."""
    conn = masks[0]
    for mask in masks[1:]:
        conn = mask @ conn  # boolean matmul: OR over the layer's units of AND
    return conn


def assert_autoregressive(masks: list[np.ndarray]) -> None:
    """Output ``i`` must see only inputs ``j < i``: the composed connectivity
    is strictly lower triangular."""
    assert not np.triu(mask_connectivity(masks)).any()  # incl. the diagonal


def enumerate_states(n: int) -> np.ndarray:
    """All 2^n bit configurations, big-endian, as a (2^n, n) float array."""
    return (
        (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    ).astype(np.float64)


def made_with_masks(n: int, hidden, masks, rng: np.random.Generator) -> made_module.MADE:
    """A MADE whose layers take ``masks`` in place of the ones its strategy
    would draw. A masked layer packs its weights by its mask at
    construction, so a mask cannot be rewritten afterwards; the weights are
    drawn from ``rng`` as for any ``'cycle'`` MADE."""
    with mock.patch.object(made_module, "made_masks", lambda *a, **k: list(masks)):
        return made_module.MADE(n, hidden=hidden, rng=rng)
