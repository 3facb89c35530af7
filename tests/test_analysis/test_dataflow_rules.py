"""Interprocedural rule coverage: the dataflow-lifted distributed rules.

The acceptance fixture from the verifier issue lives here: a collective
guarded by ``if rank == 0`` but reached through **two** call levels must
be flagged by ``dist-rank-divergent-collective`` with a witness chain,
while congruent both-arm protocols stay clean.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import lint_paths
from repro.analysis.lint import get_rule, lint_file

pytestmark = pytest.mark.analysis


def run_rules(tmp_path, rule_ids, files: dict[str, str]):
    """Lint ``files`` (path -> source) with only ``rule_ids`` active."""
    root = tmp_path / "proj"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return lint_paths([root], select=list(rule_ids))


def run_rule(tmp_path, rule_id, source):
    path = tmp_path / "repro" / "models" / "mod.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_file(path, rules=[get_rule(rule_id)])


class TestRankDivergentCollective:
    def test_acceptance_two_call_levels(self, tmp_path):
        # The issue's acceptance criterion: `if rank == 0: allreduce`
        # hidden behind two calls is found, with the chain in the message.
        report = run_rule(
            tmp_path,
            "dist-rank-divergent-collective",
            "def deep(comm, x):\n"
            "    comm.allreduce(x)\n"
            "def helper(comm, x):\n"
            "    deep(comm, x)\n"
            "def step(comm, x):\n"
            "    rank = comm.rank\n"
            "    if rank == 0:\n"
            "        helper(comm, x)\n",
        )
        assert [f.rule_id for f in report.findings] == [
            "dist-rank-divergent-collective"
        ]
        msg = report.findings[0].message
        assert "helper -> deep -> .allreduce()" in msg

    def test_cross_file_chain(self, tmp_path):
        report = run_rules(
            tmp_path,
            ["dist-rank-divergent-collective"],
            {
                "repro/lib.py": (
                    "def sync(comm, x):\n"
                    "    comm.barrier()\n"
                ),
                "repro/main.py": (
                    "from repro.lib import sync\n"
                    "def step(comm, x):\n"
                    "    if comm.rank == 0:\n"
                    "        sync(comm, x)\n"
                ),
            },
        )
        assert len(report.findings) == 1
        assert "sync -> .barrier()" in report.findings[0].message
        assert report.findings[0].path.endswith("main.py")

    def test_taint_through_returned_rank(self, tmp_path):
        report = run_rule(
            tmp_path,
            "dist-rank-divergent-collective",
            "def who_am_i(comm):\n"
            "    return comm.rank\n"
            "def go(comm, x):\n"
            "    me = who_am_i(comm)\n"
            "    if me == 0:\n"
            "        helper(comm, x)\n"
            "def helper(comm, x):\n"
            "    comm.allreduce(x)\n",
        )
        assert len(report.findings) == 1

    def test_congruent_arms_stay_clean(self, tmp_path):
        report = run_rule(
            tmp_path,
            "dist-rank-divergent-collective",
            "def deep(comm, x):\n"
            "    comm.allreduce(x)\n"
            "def helper(comm, x):\n"
            "    deep(comm, x)\n"
            "def step(comm, x):\n"
            "    if comm.rank == 0:\n"
            "        helper(comm, x)\n"
            "    else:\n"
            "        deep(comm, x)\n",
        )
        assert report.ok, [f.format() for f in report.findings]

    def test_rank_free_branch_stays_clean(self, tmp_path):
        report = run_rule(
            tmp_path,
            "dist-rank-divergent-collective",
            "def helper(comm, x):\n"
            "    comm.allreduce(x)\n"
            "def step(comm, x, warmup):\n"
            "    if warmup:\n"
            "        helper(comm, x)\n",
        )
        assert report.ok

    def test_while_on_rank_with_collective_chain(self, tmp_path):
        report = run_rule(
            tmp_path,
            "dist-rank-divergent-collective",
            "def pump(comm, x):\n"
            "    comm.allgather(x)\n"
            "def drain(comm, x):\n"
            "    while comm.rank < 2:\n"
            "        pump(comm, x)\n",
        )
        assert len(report.findings) == 1

    @pytest.mark.parametrize("links", [20, 40])
    def test_taint_through_a_long_assignment_chain(self, tmp_path, links):
        # The taint of `a0 = comm.rank` reaches the branch however many
        # copies lie between them; it used to stop at 32.
        source = (
            "def step(comm, x):\n"
            "    a0 = comm.rank\n"
            + "".join(f"    a{i} = a{i - 1}\n" for i in range(1, links))
            + f"    if a{links - 1} == 0:\n"
            "        comm.allreduce(x)\n"
        )
        report = run_rule(tmp_path, "dist-rank-divergent-collective", source)
        assert len(report.findings) == 1, [f.format() for f in report.findings]

    @pytest.mark.parametrize("reverse", [False, True])
    def test_taint_through_a_long_call_chain(self, tmp_path, reverse):
        fns = (
            ["def f0(comm, x):\n    f1(comm, comm.rank, x)\n"]
            + [f"def f{i}(comm, r, x):\n    f{i + 1}(comm, r, x)\n" for i in range(1, 39)]
            + ["def f39(comm, r, x):\n    if r == 0:\n        comm.allreduce(x)\n"]
        )
        source = "".join(reversed(fns) if reverse else fns)
        report = run_rule(tmp_path, "dist-rank-divergent-collective", source)
        assert len(report.findings) == 1, [f.format() for f in report.findings]

    @pytest.mark.parametrize("g_first", [True, False])
    def test_every_call_into_a_recursive_group_is_witnessed(self, tmp_path, g_first):
        # f and g call each other; whichever branch is judged first, the
        # other still gets its witness chain.
        to_g = "    if comm.rank == 1:\n        g(comm, 2)\n"
        to_f = "    if comm.rank == 0:\n        f(comm, 2)\n"
        report = run_rule(
            tmp_path,
            "dist-rank-divergent-collective",
            "def f(comm, n):\n"
            "    if n:\n"
            "        g(comm, n)\n"
            "    comm.allreduce(n)\n"
            "def g(comm, n):\n"
            "    f(comm, n)\n"
            "def main(comm):\n" + (to_g + to_f if g_first else to_f + to_g),
        )
        labels = sorted(f.message.split(" only ")[0] for f in report.findings)
        assert labels == [
            "collective reached via f -> .allreduce()",
            "collective reached via g -> f -> .allreduce()",
        ]

    def test_left_recursive_group_is_witnessed(self, tmp_path):
        # `loop` and `body` recurse through `enter` before issuing anything,
        # while `spin` recurses on its own: every function still gets one
        # summary, and the witness is the shortest chain.
        report = run_rule(
            tmp_path,
            "dist-rank-divergent-collective",
            "def other(comm, x):\n"
            "    loop(comm, x)\n"
            "def spin(comm, x):\n"
            "    comm.broadcast(x)\n"
            "    spin(comm, x)\n"
            "def enter(comm, x):\n"
            "    loop(comm, x)\n"
            "def body(comm, x):\n"
            "    enter(comm, x)\n"
            "    spin(comm, x)\n"
            "def loop(comm, x):\n"
            "    body(comm, x)\n"
            "    comm.barrier(x)\n"
            "def step(comm, x):\n"
            "    if comm.rank == 0:\n"
            "        enter(comm, x)\n",
        )
        assert [f.message.split(" only ")[0] for f in report.findings] == [
            "collective reached via enter -> loop -> .barrier()"
        ]

    def test_lexically_direct_site_left_to_syntactic_rule(self, tmp_path):
        # `if rank == 0: comm.allreduce(x)` is dist-rank-collective's beat;
        # the interprocedural rule must not double-report it.
        source = (
            "def step(comm, x):\n"
            "    if comm.rank == 0:\n"
            "        comm.allreduce(x)\n"
        )
        deep = run_rule(tmp_path, "dist-rank-divergent-collective", source)
        assert deep.ok
        syntactic = run_rule(tmp_path, "dist-rank-collective", source)
        assert len(syntactic.findings) == 1


class TestCollectiveOrderDivergence:
    def test_reordered_arms_flagged_once_at_branch(self, tmp_path):
        report = run_rule(
            tmp_path,
            "dist-collective-order",
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
        )
        assert [f.rule_id for f in report.findings] == ["dist-collective-order"]
        assert "allreduce" in report.findings[0].message
        assert "broadcast" in report.findings[0].message

    def test_arms_past_a_recursive_helper_are_compared(self, tmp_path):
        # `flatten` recurses and issues nothing: the reordering after it
        # is still seen on both arms.
        report = run_rule(
            tmp_path,
            "dist-collective-order",
            "def flatten(xs):\n"
            "    for x in xs:\n"
            "        flatten(x)\n"
            "def step(comm, x):\n"
            "    if comm.rank == 0:\n"
            "        flatten(x)\n"
            "        comm.allreduce(x)\n"
            "        comm.broadcast(x)\n"
            "    else:\n"
            "        flatten(x)\n"
            "        comm.broadcast(x)\n"
            "        comm.allreduce(x)\n",
        )
        assert len(report.findings) == 1, [f.format() for f in report.findings]
        assert "[allreduce, broadcast] vs [broadcast, allreduce]" in (
            report.findings[0].message
        )

    def test_arms_into_a_left_recursion_are_compared(self, tmp_path):
        # f and g each call the other before issuing anything; the
        # collective each adds around that recursion still tells them apart.
        report = run_rule(
            tmp_path,
            "dist-collective-order",
            "def f(comm, x):\n"
            "    g(comm, x)\n"
            "    comm.allreduce(x)\n"
            "def g(comm, x):\n"
            "    f(comm, x)\n"
            "    comm.broadcast(x)\n"
            "def step(comm, x):\n"
            "    if comm.rank == 0:\n"
            "        f(comm, x)\n"
            "    else:\n"
            "        g(comm, x)\n",
        )
        assert len(report.findings) == 1, [f.format() for f in report.findings]

    def test_same_sequence_via_different_chains_clean(self, tmp_path):
        report = run_rule(
            tmp_path,
            "dist-collective-order",
            "def direct(comm, x):\n"
            "    comm.allreduce(x)\n"
            "    comm.barrier()\n"
            "def via(comm, x):\n"
            "    inner(comm, x)\n"
            "def inner(comm, x):\n"
            "    comm.allreduce(x)\n"
            "    comm.barrier()\n"
            "def step(comm, x):\n"
            "    if comm.rank == 0:\n"
            "        direct(comm, x)\n"
            "    else:\n"
            "        via(comm, x)\n",
        )
        assert report.ok, [f.format() for f in report.findings]


class TestEpochTagInterprocedural:
    def test_untagged_payload_through_relay(self, tmp_path):
        report = run_rule(
            tmp_path,
            "dist-epoch-tag",
            "import numpy as np\n"
            "def relay(comm, peer, frame):\n"
            "    comm.send_ctrl(peer, frame)\n"
            "def bad(comm, peer):\n"
            "    relay(comm, peer, np.array([1.0, 2.0]))\n",
        )
        assert len(report.findings) == 1
        assert "relay" in report.findings[0].message

    def test_epoch_arg_through_relay_clean(self, tmp_path):
        report = run_rule(
            tmp_path,
            "dist-epoch-tag",
            "import numpy as np\n"
            "def relay(comm, peer, frame):\n"
            "    comm.send_ctrl(peer, frame)\n"
            "def good(comm, peer, epoch):\n"
            "    relay(comm, peer, np.array([1.0, float(epoch)]))\n",
        )
        assert report.ok, [f.format() for f in report.findings]

    def test_unresolved_caller_stays_silent(self, tmp_path):
        # A parameter-derived payload with no resolvable caller cannot be
        # judged; the under-approximation must stay silent, not guess.
        report = run_rule(
            tmp_path,
            "dist-epoch-tag",
            "def forward(comm, peer, frame):\n"
            "    comm.send_ctrl(peer, frame)\n",
        )
        assert report.ok


class TestSingleFileProjectParity:
    def test_lint_file_runs_project_rules(self, tmp_path):
        # lint_file builds a one-file project, so fixtures and ad-hoc CLI
        # runs see the same interprocedural findings as lint_paths.
        path = tmp_path / "repro" / "solo.py"
        path.parent.mkdir(parents=True)
        path.write_text(
            "def deep(comm, x):\n"
            "    comm.allreduce(x)\n"
            "def step(comm, x):\n"
            "    if comm.rank == 0:\n"
            "        deep(comm, x)\n"
        )
        report = lint_file(
            path, rules=[get_rule("dist-rank-divergent-collective")]
        )
        assert len(report.findings) == 1


_COLLECTIVE_NAMES = ("allreduce", "broadcast", "barrier")


@st.composite
def _block(draw, k: int, depth: int) -> list[str]:
    """A few statements of a generated function body over functions
    ``f0 .. f{k-1}``: rank sources, calls, collectives, branches."""
    lines: list[str] = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["rank", "copy", "call", "call", "assign_call", "collective", "return"]
            + (["if", "if", "while"] if depth < 2 else [])
        ))
        callee = f"f{draw(st.integers(0, k - 1))}"
        arg = draw(st.sampled_from(["r", "n", "0"]))
        if kind == "rank":
            lines.append("r = comm.rank")
        elif kind == "copy":
            lines.append(f"r = {arg}")
        elif kind == "call":
            lines.append(f"{callee}(comm, {arg}, x)")
        elif kind == "assign_call":
            lines.append(f"r = {callee}(comm, {arg}, x)")
        elif kind == "collective":
            lines.append(f"comm.{draw(st.sampled_from(_COLLECTIVE_NAMES))}(x)")
        elif kind == "return":
            lines.append(f"return {arg}")
        else:
            test = draw(st.sampled_from(["r", "n", "comm.rank == 0"]))
            lines.append(f"{kind} {test}:")
            lines += ["    " + line for line in draw(_block(k, depth + 1))]
            if kind == "if" and draw(st.booleans()):
                lines.append("else:")
                lines += ["    " + line for line in draw(_block(k, depth + 1))]
    return lines


@st.composite
def _programs(draw) -> tuple[list[str], list[int], list[int]]:
    k = draw(st.integers(1, 8))
    functions = [
        f"def f{i}(comm, n, x):\n    r = 0\n"
        + "".join(f"    {line}\n" for line in draw(_block(k, 0)))
        for i in range(k)
    ]
    orders = st.permutations(range(k))
    return functions, draw(orders), draw(orders)


def _keyed_findings(source: str) -> Counter:
    """Interprocedural findings keyed by rule, enclosing function and the
    text of the flagged line, so two declaration orders compare."""
    spans = [
        (node.lineno, node.end_lineno, node.name)
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
    ]
    lines = source.splitlines()
    report = lint_file(
        Path("repro/generated.py"),
        rules=[get_rule("dist-rank-divergent-collective"), get_rule("dist-collective-order")],
        source=source,
    )
    return Counter(
        (
            f.rule_id,
            next(name for lo, hi, name in spans if lo <= f.line <= hi),
            lines[f.line - 1].strip(),
        )
        for f in report.findings
    )


@settings(max_examples=100, deadline=None)
@given(_programs())
def test_findings_do_not_depend_on_declaration_order(program):
    functions, first, second = program
    assert _keyed_findings("".join(functions[i] for i in first)) == _keyed_findings(
        "".join(functions[i] for i in second)
    )
