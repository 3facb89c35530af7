"""Unit coverage for the project call graph (`repro.analysis.callgraph`).

Resolution is deliberately under-approximate: a call resolves only when
the target is unambiguous (same module, explicit from-import, unique
project-wide, or a self/alias method). These tests pin both directions —
what must resolve, and what must *stay* unresolved so the dataflow rules
never follow an edge the runtime might not take.
"""

from __future__ import annotations

import pytest

from repro.analysis.callgraph import (
    COLLECTIVES,
    P2P_PRIMITIVES,
    Project,
    body_nodes,
    ordered_calls,
)
from repro.analysis.lint import _parse_one

pytestmark = pytest.mark.analysis


def make_project(tmp_path, files: dict[str, str]) -> Project:
    """Build a Project from {relative path: source} pairs on disk."""
    contexts = []
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        ctx, _sup, err = _parse_one(path)
        assert err is None, f"fixture {rel} does not parse: {err}"
        contexts.append(ctx)
    return Project(contexts)


def fn(project: Project, suffix: str):
    """Look up the unique FunctionNode whose qualname ends with ``suffix``."""
    matches = [f for q, f in project.functions.items() if q.endswith(suffix)]
    assert len(matches) == 1, f"{suffix}: {sorted(project.functions)}"
    return matches[0]


class TestIndexing:
    def test_functions_methods_and_module_scopes_indexed(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/alpha.py": (
                    "def top(x):\n"
                    "    return x\n"
                    "class Box:\n"
                    "    def get(self):\n"
                    "        return top(1)\n"
                ),
            },
        )
        quals = set(project.functions)
        assert any(q.endswith("alpha.top") for q in quals)
        assert any(q.endswith("alpha.Box.get") for q in quals)
        assert any(q.endswith("<module>") for q in quals)
        box_get = fn(project, "Box.get")
        assert box_get.class_name == "Box"
        assert box_get.params[0] == "self"
        assert fn(project, "alpha.top").class_name is None

    def test_module_scope_excludes_function_bodies(self, tmp_path):
        # Regression: the synthetic <module> node must not walk into defs —
        # their statements run on *their* call, not at import time. The
        # original bug double-reported every branch (once via the function,
        # once via <module>) and invented phantom module-level callers.
        project = make_project(
            tmp_path,
            {
                "repro/beta.py": (
                    "setup()\n"
                    "def worker(comm, x):\n"
                    "    comm.allreduce(x)\n"
                    "    inner(x)\n"
                    "teardown()\n"
                ),
            },
        )
        module = fn(project, "<module>")
        names = [
            c.func.id for c in ordered_calls(module.node)
        ]
        assert names == ["setup", "teardown"]
        worker = fn(project, "beta.worker")
        attrs = [
            c.func.attr
            for c in ordered_calls(worker.node)
            if hasattr(c.func, "attr")
        ]
        assert attrs == ["allreduce"]

    def test_body_nodes_skips_nested_defs_at_every_level(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/gamma.py": (
                    "def outer(x):\n"
                    "    y = x + 1\n"
                    "    def closure(z):\n"
                    "        return hidden(z)\n"
                    "    if y:\n"
                    "        class Local:\n"
                    "            def m(self):\n"
                    "                return deeper()\n"
                    "    return y\n"
                ),
            },
        )
        outer = fn(project, "gamma.outer")
        import ast

        seen = {
            n.func.id
            for n in body_nodes(outer.node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
        }
        assert "hidden" not in seen
        assert "deeper" not in seen


class TestResolution:
    def test_same_module_bare_name(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/mod.py": (
                    "def helper(x):\n"
                    "    return x\n"
                    "def step(x):\n"
                    "    return helper(x)\n"
                ),
            },
        )
        sites = project.call_sites(fn(project, "mod.step"))
        assert [t.name for s in sites for t in s.targets] == ["helper"]

    def test_from_import_across_modules(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/util.py": "def shared(x):\n    return x\n",
                "repro/main.py": (
                    "from repro.util import shared as sh\n"
                    "def run(x):\n"
                    "    return sh(x)\n"
                ),
            },
        )
        sites = project.call_sites(fn(project, "main.run"))
        targets = [t.qualname for s in sites for t in s.targets]
        assert len(targets) == 1 and targets[0].endswith("util.shared")

    def test_unique_project_wide_fallback_and_ambiguity(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/one.py": "def unique_fn(x):\n    return x\n"
                "def dup(x):\n    return x\n",
                "repro/two.py": "def dup(x):\n    return x\n",
                "repro/caller.py": (
                    "def go(x):\n"
                    "    unique_fn(x)\n"  # unique across the project: resolves
                    "    dup(x)\n"  # two candidates, no import: must NOT resolve
                ),
            },
        )
        sites = project.call_sites(fn(project, "caller.go"))
        resolved = {s.call.func.id: [t.qualname for t in s.targets] for s in sites}
        assert len(resolved["unique_fn"]) == 1
        assert resolved["dup"] == []

    def test_self_method_with_base_class_walk(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/cls.py": (
                    "class Base:\n"
                    "    def inherited(self):\n"
                    "        return 1\n"
                    "class Child(Base):\n"
                    "    def own(self):\n"
                    "        return 2\n"
                    "    def run(self):\n"
                    "        self.own()\n"
                    "        self.inherited()\n"
                ),
            },
        )
        sites = project.call_sites(fn(project, "Child.run"))
        targets = [t.qualname for s in sites for t in s.targets]
        assert any(q.endswith("Child.own") for q in targets)
        assert any(q.endswith("Base.inherited") for q in targets)

    def test_module_alias_attribute_call(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/pkg/worker.py": "def job(x):\n    return x\n",
                "repro/pkg/driver.py": (
                    "import repro.pkg.worker as w\n"
                    "def run(x):\n"
                    "    return w.job(x)\n"
                ),
            },
        )
        sites = project.call_sites(fn(project, "driver.run"))
        targets = [t.qualname for s in sites for t in s.targets]
        assert len(targets) == 1 and targets[0].endswith("worker.job")

    def test_collectives_and_p2p_never_resolve(self, tmp_path):
        # Even when a user function shadows the primitive's name, the
        # protocol event stays atomic — summaries count the *event*, not
        # whatever happens to share its spelling.
        body = "".join(f"    comm.{p}(x)\n" for p in sorted(COLLECTIVES))
        body += "".join(f"    comm.{p}(x)\n" for p in sorted(P2P_PRIMITIVES))
        project = make_project(
            tmp_path,
            {
                "repro/shadow.py": (
                    "def allreduce(x):\n"
                    "    return x\n"
                    "def step(comm, x):\n"
                    f"{body}"
                ),
            },
        )
        sites = project.call_sites(fn(project, "shadow.step"))
        assert all(s.targets == () for s in sites)

    def test_callers_of_reverse_index(self, tmp_path):
        project = make_project(
            tmp_path,
            {
                "repro/rev.py": (
                    "def leaf(x):\n"
                    "    return x\n"
                    "def a(x):\n"
                    "    return leaf(x)\n"
                    "def b(x):\n"
                    "    return leaf(x)\n"
                ),
            },
        )
        leaf = fn(project, "rev.leaf")
        callers = {s.caller.name for s in project.callers_of(leaf.qualname)}
        assert callers == {"a", "b"}
        assert project.callers_of("no.such.fn") == []
