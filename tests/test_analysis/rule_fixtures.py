"""Canonical positive/negative fixtures, one pair per registered rule.

``FIXTURES[rule_id] = (bad, good)`` — ``bad`` must produce at least one
finding of exactly that rule, ``good`` must lint clean under it. The
meta-test in ``test_rule_fixture_coverage.py`` keeps this registry in
lockstep with the live catalogue: adding a rule without a fixture pair
(or retiring one and leaving its fixtures behind) fails the suite.

These are *smoke* fixtures — the minimal canonical trigger and its
minimal fix. Edge-case coverage lives in ``test_lint_rules.py`` and
``test_dataflow_rules.py``.

A fixture is the source of the linted file, ``src/repro/models/fixture.py``
of a scratch project — or, for a rule that reads the files around it, a
``{path: source}`` dict whose first entry is that file. A key
``<rule-id>/<case>`` is a further row for the same rule; such a row may
show one side only and leave the other ``None``.
"""

from __future__ import annotations

FIXTURE_PATH = "src/repro/models/fixture.py"

Fixture = str | dict[str, str] | None

FIXTURES: dict[str, tuple[Fixture, Fixture]] = {
    "ag-float-eq": (
        "def check(x):\n    return compute(x) == 1.5\n",
        "def check(x):\n    return abs(compute(x) - 1.5) < 1e-9\n",
    ),
    "ag-tensor-mutation": (
        "def init(w):\n    w.data[...] = 0.0\n",
        "import numpy as np\ndef init(w):\n    w.data = np.zeros(3)\n",
    ),
    "det-global-rng": (
        "import numpy as np\nnp.random.seed(0)\nx = np.random.rand(3)\n",
        "import numpy as np\nrng = np.random.default_rng(0)\nx = rng.random(3)\n",
    ),
    "det-stdlib-random": (
        "import random\nx = random.random()\n",
        "import numpy as np\nx = np.random.default_rng(0).random()\n",
    ),
    "det-unseeded-rng": (
        "import numpy as np\nrng = np.random.default_rng()\n",
        "import numpy as np\nrng = np.random.default_rng(7)\n",
    ),
    "det-wall-clock": (
        "import time\nstamp = time.time()\n",
        "import time\nstart = time.perf_counter()\n",
    ),
    "dist-collective-order": (
        # arms reach different collective *orders* through helpers
        "def head(comm, x):\n"
        "    comm.allreduce(x)\n"
        "    comm.broadcast(x, root=0)\n"
        "def tail(comm, x):\n"
        "    comm.broadcast(x, root=0)\n"
        "    comm.allreduce(x)\n"
        "def step(comm, x):\n"
        "    if comm.rank == 0:\n"
        "        head(comm, x)\n"
        "    else:\n"
        "        tail(comm, x)\n",
        "def head(comm, x):\n"
        "    comm.allreduce(x)\n"
        "    comm.broadcast(x, root=0)\n"
        "def step(comm, x):\n"
        "    if comm.rank == 0:\n"
        "        head(comm, x)\n"
        "    else:\n"
        "        head(comm, x)\n",
    ),
    "dist-epoch-tag": (
        "import numpy as np\n"
        "def ping(comm, peer):\n"
        "    comm.send_ctrl(peer, np.array([1.0, 2.0]))\n",
        "import numpy as np\n"
        "def ping(comm, peer, epoch):\n"
        "    comm.send_ctrl(peer, np.array([1.0, float(epoch)]))\n",
    ),
    "dist-rank-collective": (
        "def step(comm, x):\n"
        "    if comm.rank == 0:\n"
        "        comm.allreduce(x)\n",
        "def step(comm, x):\n"
        "    out = comm.allreduce(x)\n"
        "    if comm.rank == 0:\n"
        "        print(out)\n",
    ),
    "dist-rank-divergent-collective": (
        # the issue's acceptance shape: two call levels under a rank branch
        "def deep(comm, x):\n"
        "    comm.allreduce(x)\n"
        "def helper(comm, x):\n"
        "    deep(comm, x)\n"
        "def step(comm, x):\n"
        "    rank = comm.rank\n"
        "    if rank == 0:\n"
        "        helper(comm, x)\n",
        "def deep(comm, x):\n"
        "    comm.allreduce(x)\n"
        "def helper(comm, x):\n"
        "    deep(comm, x)\n"
        "def step(comm, x):\n"
        "    rank = comm.rank\n"
        "    if rank == 0:\n"
        "        helper(comm, x)\n"
        "    else:\n"
        "        deep(comm, x)\n",
    ),
    "dist-recv-timeout": (
        "def pull(comm):\n    return comm.recv(0)\n",
        "def pull(comm):\n    return comm.recv(0, timeout=5.0)\n",
    ),
    "obs-span-leak": (
        "def timed(tracer, work):\n"
        "    span = tracer.begin('phase')\n"
        "    work()\n"
        "    tracer.end(span)\n",
        "def timed(tracer, work):\n"
        "    with tracer.span('phase'):\n"
        "        work()\n",
    ),
    "api-unreachable-export": (
        "def orphan(x):\n    return x\n",
        "def helper(x):\n    return x\n_DEFAULT = helper(1)\n",
    ),
    "api-unreachable-export/reexport-only": (
        # the package __init__ and __all__ keep nothing alive
        {
            FIXTURE_PATH: "__all__ = ['orphan']\ndef orphan(x):\n    return x\n",
            "src/repro/models/__init__.py": (
                "from repro.models.fixture import orphan\n__all__ = ['orphan']\n"
            ),
        },
        # ... an import by a package it does not live in does
        {
            FIXTURE_PATH: "def shared(x):\n    return x\n",
            "src/repro/core/__init__.py": "from repro.models.fixture import shared\n",
        },
    ),
    "api-unreachable-export/sibling-trees": (
        # tests/ is not a reacher; benchmarks/ is, though only src/ is linted
        {
            FIXTURE_PATH: "def probe(x):\n    return x\n",
            "tests/test_probe.py": "from repro.models.fixture import probe\n",
        },
        {
            FIXTURE_PATH: "def probe(x):\n    return x\n",
            "benchmarks/bench_probe.py": (
                "from repro.models import fixture\nfixture.probe(1)\n"
            ),
        },
    ),
    "api-unreachable-export/decorated": (
        # a stdlib decorator files the class nowhere; a project one may
        "from dataclasses import dataclass\n@dataclass\nclass Record:\n    x: int = 0\n",
        "from repro.analysis.lint import Rule, register\n"
        "@register\n"
        "class Probe(Rule):\n"
        "    id = 'probe'\n",
    ),
    "api-unreachable-export/recursion": (
        "def fact(n):\n    return 1 if n < 2 else n * fact(n - 1)\n",
        None,
    ),
    # members of classes — public or not — are judged like top-level names
    "api-unreachable-export/method": (
        "class _Box:\n    def open(self):\n        return 1\n",
        # ... reached through an attribute
        "class _Box:\n"
        "    def open(self):\n"
        "        return 1\n"
        "def _use(box):\n"
        "    return box.open()\n",
    ),
    "api-unreachable-export/property": (
        "class _Box:\n    @property\n    def size(self):\n        return 1\n",
        # ... reached only through getattr's constant string
        "class _Box:\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "def _use(box):\n"
        "    return getattr(box, 'size')\n",
    ),
    "api-unreachable-export/class-constant": (
        "class _Box:\n    LIMIT = 3\n",
        "class _Box:\n    LIMIT = 3\n    _TWICE = 2 * LIMIT\n",
    ),
    "api-unreachable-export/module-constant": (
        "LIMIT = 3\n",
        "LIMIT = 3\n_TWICE = 2 * LIMIT\n",
    ),
    "api-unreachable-export/member-in-tests": (
        # tests/ keeps a member alive no more than a top-level name
        {
            FIXTURE_PATH: "class _Box:\n    def open(self):\n        return 1\n",
            "tests/test_box.py": "def test_open(box):\n    assert box.open() == 1\n",
        },
        {
            FIXTURE_PATH: "class _Box:\n    def open(self):\n        return 1\n",
            "examples/box.py": "def show(box):\n    print(box.open())\n",
        },
    ),
    "api-unreachable-export/member-recursion": (
        "class _Box:\n"
        "    def walk(self, n):\n"
        "        return self.walk(n - 1) if n else 0\n",
        None,
    ),
    "api-unreachable-export/foreign-base": (
        "class _Visitor:\n    def visit_Call(self, node):\n        return node\n",
        # a framework calls these by names it builds at run time
        "import ast\n"
        "from http.server import BaseHTTPRequestHandler\n"
        "class _Visitor(ast.NodeVisitor):\n"
        "    def visit_Call(self, node):\n"
        "        return node\n"
        "class _Handler(BaseHTTPRequestHandler):\n"
        "    def do_GET(self):\n"
        "        return None\n",
    ),
    # a spelling through a foreign binding reaches nothing in the project
    "api-unreachable-export/foreign-receiver": (
        "import numpy as np\n"
        "def where(cond, a, b):\n"
        "    return a\n"
        "_PICK = np.where(True, 1, 2)\n",
        # ... one through a project alias does
        {
            FIXTURE_PATH: "def where(cond, a, b):\n    return a\n",
            "src/repro/core/pick.py": (
                "import repro.models.fixture as F\n_PICK = F.where(True, 1, 2)\n"
            ),
        },
    ),
    "api-unreachable-export/foreign-import": (
        {
            FIXTURE_PATH: "def where(cond, a, b):\n    return a\n",
            "src/repro/core/pick.py": "from numpy import where\n_PICK = where(True, 1, 2)\n",
        },
        {
            FIXTURE_PATH: "def where(cond, a, b):\n    return a\n",
            "src/repro/core/pick.py": (
                "from repro.models.fixture import where\n_PICK = where(True, 1, 2)\n"
            ),
        },
    ),
    "api-unreachable-export/local-receiver": (
        None,
        # a local variable may hold anything: its attributes still count
        "import numpy as np\n"
        "def where(cond, a, b):\n"
        "    return a\n"
        "def _pick(ops):\n"
        "    return ops.where(np.ones(1), 1, 2)\n",
    ),
}
