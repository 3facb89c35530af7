"""Host provenance and calibration of the paper's cost model to this host."""

from __future__ import annotations

import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.cluster.device import DeviceSpec
from repro.cluster.perfmodel import MadeAutoCostModel

__all__ = ["provenance", "calibrate_device", "predictions", "SpeedProbe", "BLAS_ENV"]

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _git_sha(root: Path) -> str | None:
    """HEAD of the checkout at ``root``, read from its own ``.git`` only.

    No ``git`` subprocess: it would search parent directories, and a
    benchmark run reads nothing outside its checkout.
    """
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head[:12]
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()[:12]
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha[:12]
    except OSError:
        pass
    return None


def provenance(root: Path, seed: int) -> dict:
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(root),
        "seed": seed,
        "load1": round(load1, 2),
        "load_warning": load1 > nproc / 2,
    }


class SpeedProbe:
    """How much slower than nominal is the host running right now?

    A shared host does not run at one speed: identical work here was
    measured 25 % apart (quartile distance over ten runs, median step 64 to
    95 ms) in a busy minute and 3 % apart in a calm one, in phases of
    seconds to minutes that no statistic within a run removes. A fixed GEMM
    timed right before and after an operation tracks that speed (the two
    correlate at 0.9; dividing by it brought the 25 % down to 4 %), so every
    timing this benchmark reports is divided by the slowdown the probe read
    around it: milliseconds at nominal host speed.

    ``NOMINAL_S`` is the probe's time on a calm host of the class this was
    written on. It is a fixed unit: another host reads other absolute values,
    and parent and change are compared in the same unit either way.
    """

    NOMINAL_S = 4.4e-3

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((256, 256))
        self._b = rng.standard_normal((256, 512))
        self._out = np.empty((256, 512))
        self()  # first call pays for BLAS initialisation

    def __call__(self) -> float:
        """Slowdown factor now: 1.0 on a calm host, above it under load."""
        t0 = time.perf_counter()
        for _ in range(3):
            np.matmul(self._a, self._b, out=self._out)
        return (time.perf_counter() - t0) / self.NOMINAL_S


def _gemm_seconds(m: int, k: int, n: int, repeats: int) -> float:
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    out = np.empty((m, n))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.matmul(a, b, out=out)
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate_device() -> DeviceSpec:
    """Fit the cost model's two constants from a GEMM micro-timing.

    ``t = t0 + flops / rate`` through a dispatch-bound and a
    compute-bound product, both of the (batch × n)(n × h) shape the MADE
    forward pass runs.
    """
    small, large = (8, 16, 16), (256, 256, 512)
    t_small = _gemm_seconds(*small, repeats=200)
    t_large = _gemm_seconds(*large, repeats=20)
    f_small, f_large = (2.0 * np.prod(s) for s in (small, large))
    rate = (f_large - f_small) / max(t_large - t_small, 1e-9)
    t0 = max(t_small - f_small / rate, 0.0)
    return DeviceSpec(
        name="host-gemm",
        peak_flops=float(rate),
        mem_bytes=0.0,
        achieved_fraction=1.0,
        kernel_overhead_s=float(t0),
    )


def predictions(device: DeviceSpec, n: int, hidden: int, mbs: int, world: int) -> dict:
    """The paper's Eq. 15 phase times for this shape on the calibrated host.

    The allreduce term keeps the model's default fabric (NVLink): only the
    device is calibrated here, so that column predicts the paper's testbed.
    """
    model = MadeAutoCostModel(device=device)
    return {
        "perfmodel.sample_pred_s": model.sampling_time(n, mbs, hidden),
        "perfmodel.measure_pred_s": model.measurement_time(n, mbs, hidden),
        "perfmodel.backward_pred_s": model.backward_time(n, mbs, hidden),
        "perfmodel.allreduce_pred_s": model.allreduce_time(n, 1, world, hidden),
    }
