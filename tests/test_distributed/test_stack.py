"""``build_comm``: one constructor owns the communicator stack's order.

Pinned here, for every subset of ``{plan, retry, sanitize}``:

- the ``.inner`` chain comes out in the canonical order
  ``backend → Faulty → Resilient → Sanitizer → MismatchInjector``;
- the whole stack shares the backend's ``CommStats`` and ``algorithm``;
- a tracer attached to the outermost layer (what ``VQMC`` does) yields
  exactly one ``comm.*`` span per collective, however many layers sit
  beneath it;

and, by an AST walk, that nothing in ``src/ benchmarks/ examples/ tools/``
constructs one of the four static wrappers except ``build_comm`` itself;
and that the layers' per-collective tables name exactly the collectives of
``repro.analysis.callgraph.COLLECTIVES``, the one definition.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import CommSanitizer
from repro.core.vqmc import VQMC
from repro.distributed import (
    FaultEvent,
    FaultPlan,
    FaultyCommunicator,
    MismatchedCollectiveInjector,
    ResilientCommunicator,
    RetryPolicy,
    build_comm,
    make_thread_group,
    run_threaded,
)
from repro.hamiltonians import TransverseFieldIsing
from repro.models import MADE
from repro.obs import Tracer
from repro.optim import SGD
from repro.samplers import AutoregressiveSampler

REPO = Path(__file__).resolve().parents[2]
CANONICAL = [
    FaultyCommunicator,
    ResilientCommunicator,
    CommSanitizer,
    MismatchedCollectiveInjector,
]
WRAPPERS = {layer.__name__ for layer in CANONICAL}

#: one op-scoped fault and one mismatch, both scheduled far beyond any run
#: here: each puts its layer in the stack, neither ever fires
_PLAN = FaultPlan([
    FaultEvent(kind="delay", rank=0, index=10**9, op="any"),
    FaultEvent(kind="mismatch", rank=0, index=10**9, op="collective"),
])
_OPTIONS = dict(plan=_PLAN, retry=RetryPolicy(), sanitize=5.0)
SUBSETS = [
    combo
    for k in range(len(_OPTIONS) + 1)
    for combo in itertools.combinations(_OPTIONS, k)
]


def _chain(comm):
    """Layer classes, bottom-up, and the backend they sit on."""
    chain = []
    while hasattr(comm, "inner"):
        chain.insert(0, type(comm))
        comm = comm.inner
    return chain, comm


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "none")
class TestCanonicalOrder:
    def test_chain_stats_and_algorithm(self, subset):
        backend = make_thread_group(2)[0]
        backend.algorithm = "rec_double"
        stack = build_comm(backend, **{k: _OPTIONS[k] for k in subset})

        present = {
            FaultyCommunicator: "plan" in subset,
            ResilientCommunicator: "retry" in subset,
            CommSanitizer: "sanitize" in subset,
            MismatchedCollectiveInjector: "plan" in subset,
        }
        chain, bottom = _chain(stack)
        assert chain == [layer for layer in CANONICAL if present[layer]]
        assert bottom is backend and (subset or stack is backend)
        layer = stack
        for _ in chain:
            assert layer.stats is backend.stats
            assert layer.algorithm == "rec_double"
            assert (layer.size, layer.rank) == (2, 0)
            layer = layer.inner

    def test_one_span_per_collective(self, subset):
        def worker(comm, rank):
            stack = build_comm(comm, **{k: _OPTIONS[k] for k in subset})
            model = MADE(6, hidden=8, rng=np.random.default_rng(3))
            tracer = Tracer(rank=rank)
            vqmc = VQMC(
                model, TransverseFieldIsing.random(6, seed=1),
                AutoregressiveSampler(), SGD(model.parameters(), lr=0.05),
                comm=stack, seed=100 + rank, tracer=tracer,
            )
            vqmc.run(2, batch_size=8)
            stack.barrier()  # no rank leaves while a peer still validates
            spans = [e.name for e in tracer.events if e.name.startswith("comm.")]
            return spans, stack.stats.collective_calls

        for spans, calls in run_threaded(worker, 2, timeout=60.0):
            # the constructor's broadcast, then stats + gradient allreduces
            assert spans == ["comm.broadcast"] + ["comm.allreduce"] * 4
            assert calls == len(spans)


def test_step_scoped_plan_adds_no_layer():
    """Step-scoped events are FaultInjectionCallback's; the communicator
    stack has nothing to inject."""
    backend = make_thread_group(2)[0]
    plan = FaultPlan([FaultEvent(kind="crash", rank=1, step=3)])
    assert build_comm(backend, plan=plan) is backend


def test_every_layer_names_the_one_collective_set():
    """A collective added or removed shows up here, not as drift between
    the lint rules, the mismatch injector and the sanitizer."""
    from repro.analysis import comm_sanitizer
    from repro.analysis.callgraph import COLLECTIVES
    from repro.distributed import Communicator

    wrapped = COLLECTIVES - {"split"}  # split is an allgather underneath
    assert set(MismatchedCollectiveInjector._SWAPS) == wrapped
    assert set(MismatchedCollectiveInjector._SWAPS.values()) <= wrapped
    assert set(comm_sanitizer._KIND_IDS) == wrapped
    for name in COLLECTIVES:
        assert callable(vars(Communicator)[name]), name
    for layer in (MismatchedCollectiveInjector, CommSanitizer):
        assert wrapped <= set(vars(layer)), layer


def _wrapper_calls(tree):
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in WRAPPERS
    ]


def test_only_build_comm_constructs_the_static_wrappers():
    for top in ("src", "benchmarks", "examples", "tools"):
        for path in sorted((REPO / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            calls = _wrapper_calls(tree)
            if path != REPO / "src/repro/distributed/comm.py":
                assert not calls, f"{path}: wrappers hand-stacked outside build_comm"
                continue
            (fn,) = [n for n in tree.body if getattr(n, "name", "") == "build_comm"]
            assert len(calls) == len(_wrapper_calls(fn)) == len(WRAPPERS)
