"""Public-surface rule: an export is public because something reaches it.

``src/repro`` wraps a five-line loop, and every public name is a promise to
keep something working. A top-level ``def``/``class`` that no module of
``src/``, no benchmark, tool or example refers to is kept alive only by its
own tests and the generated API listing: this rule reports it, and the fix
is to delete it (with those tests) — or to say, in a suppression's ``--``
reason, that it is a test oracle, fault-recovery code or a documented user
entry point.

Like the call graph it is **under-approximate**: any identifier, attribute
or import spelling the name counts as reaching it, whatever it resolves to,
and so does any project decorator (``@register`` files the object in a
table someone reads). What does not count is the export keeping itself
alive: references inside its own body, ``__all__`` strings, and the
re-export in an ``__init__`` of a package that contains it.

The reachers are always the project root's ``src/``, ``benchmarks/``,
``tools/`` and ``examples/``, read from disk when the run was not given
them, so ``lint.py src`` and ``lint.py src tools benchmarks examples``
judge alike; only linted files under ``<root>/src/repro/`` are judged.
"""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path
from typing import Iterable

from repro.analysis.lint import Finding, ProjectRule, _iter_python_files, register

#: trees whose references keep an export alive, relative to the project root
_REACHER_TREES = ("src", "benchmarks", "tools", "examples")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _project_root(path: Path) -> Path | None:
    """``<root>`` for a file somewhere under ``<root>/src/repro/``."""
    parts = path.parts
    for i in range(len(parts) - 2, 0, -1):
        if parts[i - 1 : i + 1] == ("src", "repro"):
            return Path(*parts[: i - 1])
    return None


def _spelled_names(tree: ast.AST) -> Counter:
    """How often each name is spelled as identifier, attribute or import."""
    names: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _foreign_bindings(tree: ast.Module) -> set[str]:
    """Top-level names bound by an import from outside the project."""
    foreign: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".", 1)[0] != "repro":
                    foreign.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if (node.module or "").split(".", 1)[0] != "repro":
                foreign.update(alias.asname or alias.name for alias in node.names)
    return foreign


def _has_project_decorator(node: ast.AST, foreign: set[str]) -> bool:
    for deco in node.decorator_list:
        root = deco.func if isinstance(deco, ast.Call) else deco
        while isinstance(root, ast.Attribute):
            root = root.value
        if isinstance(root, ast.Name) and root.id not in foreign:
            return True
    return False


@register
class UnreachableExport(ProjectRule):
    id = "api-unreachable-export"
    category = "api"
    description = (
        "public top-level def/class of src/repro that nothing in src/, "
        "benchmarks/, tools/ or examples/ refers to outside its own body, "
        "__all__ and its package __init__ — delete it with the tests that "
        "only exercise it, or suppress naming it a test oracle, "
        "fault-recovery code or a documented user entry point"
    )

    def check_project(self, project) -> Iterable[Finding]:
        parsed = {Path(ctx.path).resolve(): ctx for ctx in project.contexts}
        roots = {path: _project_root(path) for path in parsed}
        judged = [parsed[path] for path, root in roots.items() if root is not None]
        #: spellings everywhere but in ``__init__`` re-exports
        spelled: Counter = Counter()
        #: name -> packages whose ``__init__`` imports it
        reexports: dict[str, list[str]] = {}
        for root in set(roots.values()) - {None}:
            for top in _REACHER_TREES:
                for path in _iter_python_files(root / top):
                    if path in parsed:
                        tree = parsed[path].tree
                    else:
                        try:
                            tree = ast.parse(path.read_text())
                        except SyntaxError:
                            continue  # a run that lints the file reports it
                    names = _spelled_names(tree)
                    if path.name == "__init__.py" and top == "src":
                        package = ".".join(path.parent.relative_to(root / top).parts)
                        for node in ast.walk(tree):
                            if isinstance(node, ast.ImportFrom):
                                for alias in node.names:
                                    names[alias.name] -= 1
                                    reexports.setdefault(alias.name, []).append(package)
                    spelled.update(names)

        for ctx in judged:
            foreign = _foreign_bindings(ctx.tree)
            for node in ctx.tree.body:
                if not isinstance(node, _DEFS) or node.name.startswith("_"):
                    continue
                if _has_project_decorator(node, foreign):
                    continue
                if spelled[node.name] > _spelled_names(node)[node.name]:
                    continue
                if any(
                    not (ctx.module + ".").startswith(package + ".")
                    for package in reexports.get(node.name, ())
                ):
                    continue  # imported by a package it does not live in
                yield self.finding_at(
                    ctx.path,
                    node,
                    f"public name {node.name!r} is reached by nothing in src/, "
                    "benchmarks/, tools/ or examples/ (its own body, __all__ "
                    "and its package __init__ aside); delete it with the "
                    "tests that only exercise it",
                )
