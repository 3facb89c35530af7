"""What ``import repro`` and a training step load of the heavy libraries.

scipy is loaded by the solvers that call it (the SR solves, ``ground_state``,
Lanczos, ``to_sparse``), networkx only by examples and tests: a module-level
import of either, anywhere under ``src/repro``, makes every user pay for it
at start-up. Each check runs in a fresh interpreter, because this process
has imported scipy already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

HEAVY = ("scipy", "networkx", "numpy.f2py")
SRC = Path(repro.__file__).resolve().parents[1]

_REPORT = """
import json, sys
print(json.dumps(sorted(
    m for m in sys.modules if any(m == h or m.startswith(h + ".") for h in {heavy})
)))
"""


def _loaded(code: str) -> set[str]:
    """The heavy modules in ``sys.modules`` after ``code`` runs in a fresh
    interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    r = subprocess.run(
        [sys.executable, "-c", code + _REPORT.format(heavy=HEAVY)],
        capture_output=True, text=True, env=env,
    )
    assert r.returncode == 0, r.stderr
    return set(json.loads(r.stdout.splitlines()[-1]))


def _steps(steps: int, hamiltonian: str, **vqmc: str) -> str:
    """Code that runs ``steps`` VQMC steps of a MADE at n = 16."""
    args = "".join(f", {k}={v}" for k, v in vqmc.items())
    return f"""
import numpy as np
from repro import MADE, VQMC
from repro.hamiltonians import MaxCut, TransverseFieldIsing
from repro.optim import SGD, Adam, StochasticReconfiguration
from repro.samplers import AutoregressiveSampler
model = MADE(16, rng=np.random.default_rng(0))
ham = {hamiltonian}
VQMC(model, ham, AutoregressiveSampler(), seed=0{args}).run({steps}, batch_size=32)
"""


def test_importing_every_module_loads_no_heavy_library():
    """Every module under ``repro`` (the public subpackages among them)."""
    code = """
import importlib, pkgutil, repro
for m in pkgutil.walk_packages(repro.__path__, "repro."):
    if not m.name.endswith("__main__"):
        importlib.import_module(m.name)
"""
    assert _loaded(code) == set()


def test_adam_steps_on_tim_and_maxcut_load_no_heavy_library():
    adam = "Adam(model.parameters(), lr=1e-2)"
    tim = _steps(3, "TransverseFieldIsing.random(16, seed=0)", optimizer=adam)
    maxcut = _steps(3, "MaxCut.random(16, seed=0)", optimizer=adam)
    assert _loaded(tim + maxcut) == set()


def test_the_solvers_that_call_scipy_load_it():
    sr = _steps(
        1,
        "TransverseFieldIsing.random(16, seed=0)",
        optimizer="SGD(model.parameters(), lr=0.1)",
        sr="StochasticReconfiguration(diag_shift=1e-3)",
    )
    assert "scipy.linalg" in _loaded(sr)
    exact = """
from repro.exact import ground_state
from repro.hamiltonians import TransverseFieldIsing
ground_state(TransverseFieldIsing.random(8, seed=0))
"""
    assert "scipy.sparse.linalg" in _loaded(exact)
