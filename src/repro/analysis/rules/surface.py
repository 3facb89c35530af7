"""Public-surface rule: an export is public because something reaches it.

``src/repro`` wraps a five-line loop, and every public name is a promise to
keep something working. A top-level ``def``/``class`` or upper-case
constant — or a public method, property, nested class or upper-case
constant of any class — that no module of ``src/``, no benchmark, tool or
example refers to is kept alive only by its own tests and the generated
API listing: this rule reports it, and the fix is to delete it (with those
tests) — or to say, in a suppression's ``--`` reason, that it is a test
oracle, fault-recovery code or a documented user entry point.

Like the call graph it is **under-approximate**: any identifier, attribute
or import spelling the name counts as reaching it, whatever it resolves to,
as does a constant string handed to ``getattr``/``hasattr``/``setattr``,
and so does any project decorator (``@register`` files the object in a
table someone reads). A spelling through a foreign binding does not
count: an attribute chain rooted at a name a module-level import binds
from outside the project (``np.where``, ``scipy.linalg.solve``), nor a
name imported from outside it (``from numpy import where``) and its uses.
A local-variable receiver still counts (``ops.where``). Members of a
class deriving from a class outside the project are not judged: a
framework calls them by names built at run time (``ast.NodeVisitor.visit_*``,
``BaseHTTPRequestHandler.do_*``). What does not count is the name keeping
itself alive: references inside its own body, ``__all__`` strings, and the
re-export in an ``__init__`` of a package that contains it.

The reachers are always the project root's ``src/``, ``benchmarks/``,
``tools/`` and ``examples/``, read from disk when the run was not given
them, so ``lint.py src`` and ``lint.py src tools benchmarks examples``
judge alike; only linted files under ``<root>/src/repro/`` are judged.
"""

from __future__ import annotations

import ast
import builtins
from collections import Counter
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.lint import Finding, ProjectRule, _iter_python_files, register

#: trees whose references keep an export alive, relative to the project root
_REACHER_TREES = ("src", "benchmarks", "tools", "examples")

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: calls whose constant-string second argument spells an attribute
_ATTR_CALLS = frozenset({"getattr", "hasattr", "setattr"})


def _project_root(path: Path) -> Path | None:
    """``<root>`` for a file somewhere under ``<root>/src/repro/``."""
    parts = path.parts
    for i in range(len(parts) - 2, 0, -1):
        if parts[i - 1 : i + 1] == ("src", "repro"):
            return Path(*parts[: i - 1])
    return None


def _spelled_names(nodes: Iterable[ast.AST], foreign: set[str]) -> Counter:
    """How often each name is spelled as identifier, attribute, import or
    ``getattr``-family string among ``nodes``, not counting spellings
    through the ``foreign`` bindings of :func:`_foreign_bindings`."""
    names: Counter = Counter()
    for node in nodes:
        if isinstance(node, ast.Name):
            if node.id not in foreign:
                names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            if _chain_root(node.value) not in foreign:
                names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            if _is_project_import(node):
                names.update(alias.name for alias in node.names)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _ATTR_CALLS
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names[node.args[1].value] += 1
    return names


def _is_project_import(node: ast.ImportFrom) -> bool:
    return node.level > 0 or (node.module or "").split(".", 1)[0] == "repro"


def _foreign_bindings(tree: ast.Module) -> set[str]:
    """Top-level names bound by an import from outside the project."""
    foreign: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".", 1)[0] != "repro":
                    foreign.add(alias.asname or alias.name.split(".", 1)[0])
        elif isinstance(node, ast.ImportFrom) and not _is_project_import(node):
            foreign.update(alias.asname or alias.name for alias in node.names)
    return foreign


def _chain_root(node: ast.AST) -> str | None:
    """``a`` for ``a`` and ``a.b.c``; None for a chain that starts from
    anything but a name (a call, a subscript)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _root_name(node: ast.AST) -> str | None:
    """``a`` for ``a``, ``a.b.c`` and ``a.b(...)``."""
    return _chain_root(node.func if isinstance(node, ast.Call) else node)


def _has_project_decorator(node: ast.AST, foreign: set[str]) -> bool:
    return any(
        root is not None and root not in foreign and not hasattr(builtins, root)
        for root in map(_root_name, node.decorator_list)
    )


def _public(body: list[ast.stmt]) -> Iterator[tuple[str, ast.stmt]]:
    """The public ``def``s, classes and upper-case constants a module or
    class body binds."""
    for node in body:
        if isinstance(node, _DEFS):
            names = [node.name]
        else:
            targets = getattr(node, "targets", [getattr(node, "target", None)])
            names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
        for name in names:
            if not name.startswith("_"):
                yield name, node


@register
class UnreachableExport(ProjectRule):
    id = "api-unreachable-export"
    category = "api"
    description = (
        "public top-level def/class/constant of src/repro, or public "
        "method/property/constant of one of its classes, that nothing in "
        "src/, benchmarks/, tools/ or examples/ refers to outside its own "
        "body, __all__ and its package __init__ — delete it with the tests "
        "that only exercise it, or suppress naming it a test oracle, "
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
        #: each judged file's share of ``spelled``
        local: dict[str, Counter] = {}
        for root in set(roots.values()) - {None}:
            for top in _REACHER_TREES:
                for path in _iter_python_files(root / top):
                    if path in parsed:
                        tree, nodes = parsed[path].tree, parsed[path].nodes
                    else:
                        try:
                            tree = ast.parse(path.read_text())
                        except SyntaxError:
                            continue  # a run that lints the file reports it
                        nodes = list(ast.walk(tree))
                    names = _spelled_names(nodes, _foreign_bindings(tree))
                    if path.name == "__init__.py" and top == "src":
                        package = ".".join(path.parent.relative_to(root / top).parts)
                        for node in nodes:
                            if isinstance(node, ast.ImportFrom) and _is_project_import(node):
                                for alias in node.names:
                                    names[alias.name] -= 1
                                    reexports.setdefault(alias.name, []).append(package)
                    spelled.update(names)
                    if path in parsed:
                        local[parsed[path].path] = names

        for ctx in judged:
            foreign = _foreign_bindings(ctx.tree)
            # a framework may call the members of a foreign subclass by
            # names it builds at run time
            scopes = [(None, ctx.tree.body)] + [
                (cls.name, cls.body)
                for cls in ctx.nodes
                if isinstance(cls, ast.ClassDef)
                and not any(_root_name(base) in foreign for base in cls.bases)
            ]
            for owner, body in scopes:
                for name, node in _public(body):
                    if isinstance(node, _DEFS) and _has_project_decorator(node, foreign):
                        continue
                    # a spelling in another file reaches it; one in this file
                    # does unless it is in the name's own body
                    count = spelled[name]
                    here = local.get(ctx.path, Counter())[name]
                    if count > here or count > _spelled_names(ast.walk(node), foreign)[name]:
                        continue
                    if owner is None and any(
                        not (ctx.module + ".").startswith(package + ".")
                        for package in reexports.get(name, ())
                    ):
                        continue  # imported by a package it does not live in
                    label = name if owner is None else f"{owner}.{name}"
                    yield self.finding_at(
                        ctx.path,
                        node,
                        f"public name {label!r} is reached by nothing in src/, "
                        "benchmarks/, tools/ or examples/ (its own body, __all__ "
                        "and its package __init__ aside); delete it with the "
                        "tests that only exercise it",
                    )
