"""Project-wide call graph for interprocedural lint rules.

The per-file rules in :mod:`repro.analysis.rules` see one tree at a time,
so a collective hidden two calls deep behind a rank-dependent branch is
invisible to them. This module builds the *whole-program* view:
:class:`Project` collects every function/method (plus a synthetic
``<module>`` node per file for top-level statements) from the linted
:class:`~repro.analysis.lint.LintContext`\\ s and resolves call sites to
their targets.

Resolution is deliberately **under-approximate** — a call resolves only
when the target is unambiguous:

- a bare name defined in the same module (or imported via
  ``from mod import name``), falling back to a *unique* project-wide
  match;
- ``self.method()`` / ``cls.method()`` against the enclosing class,
  walking resolvable base classes;
- ``alias.func()`` where ``alias`` names an imported project module
  (``import repro.distributed.elastic as elastic``).

Anything else (duck-typed receivers, higher-order calls, builtins) stays
unresolved, which keeps interprocedural rules free of false positives at
the cost of missing exotic dispatch. Communicator collectives
(``allreduce`` … ``split``) and point-to-point primitives are *never*
resolved into, even though their implementations live in this repo: rules
treat them as atomic protocol events, not user code.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.analysis.lint import LintContext

__all__ = [
    "COLLECTIVES",
    "P2P_PRIMITIVES",
    "FunctionNode",
    "CallSite",
    "Project",
    "body_nodes",
    "ordered_calls",
]

#: collective operations every rank must issue congruently — the one
#: definition the rules, the fault injector's swap table and the sanitizer's
#: kind table are pinned to; call sites with these attribute names are
#: protocol events and are never resolved into user code.
COLLECTIVES = frozenset({"allreduce", "broadcast", "allgather", "barrier", "split"})

#: point-to-point / control primitives, likewise treated as atomic.
P2P_PRIMITIVES = frozenset(
    {"send", "recv", "poll", "send_ctrl", "recv_ctrl", "sendrecv"}
)

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class FunctionNode:
    """One function, method, or synthetic per-file ``<module>`` scope."""

    qualname: str
    name: str
    module: str
    path: str
    node: ast.AST
    #: enclosing class name for methods, else ``None``
    class_name: str | None = None
    #: positional-or-keyword + keyword-only parameter names, in order
    #: (including ``self``/``cls`` for methods); empty for ``<module>``.
    params: tuple[str, ...] = ()

    @property
    def is_module_scope(self) -> bool:
        return self.name == "<module>"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FunctionNode({self.qualname})"


@dataclass
class CallSite:
    """One call expression inside a function, with its resolved targets."""

    caller: FunctionNode
    call: ast.Call
    #: resolved target functions; empty when the callee is unknown or an
    #: atomic primitive (collective / p2p).
    targets: tuple[FunctionNode, ...] = ()


def body_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk a function (or module) body without descending into nested
    function/class definitions — those are their own :class:`FunctionNode`\\ s
    and their statements execute on *their* call, not here."""
    stmts = getattr(scope, "body", [])
    stack: list[ast.AST] = [s for s in stmts if not isinstance(s, _SCOPE_NODES)]
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            stack.append(child)


def ordered_calls(scope: ast.AST) -> Iterator[ast.Call]:
    """Yield :class:`ast.Call` nodes of a scope in source/execution order
    (arguments before the enclosing call), skipping nested definitions."""

    def visit(node: ast.AST) -> Iterator[ast.Call]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPE_NODES):
                continue
            yield from visit(child)
        if isinstance(node, ast.Call):
            yield node

    for stmt in getattr(scope, "body", []):
        if isinstance(stmt, _SCOPE_NODES):
            continue
        yield from visit(stmt)


@dataclass
class _ModuleInfo:
    """Per-file name tables used during call resolution."""

    #: ``from mod import f as g`` -> {"g": ("mod", "f")}
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    #: ``import repro.x.y as z`` / ``from repro.x import y`` (module y)
    #: -> {"z": "repro.x.y"}
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: class name -> base-class expressions (for self.method resolution)
    class_bases: dict[str, list[ast.expr]] = field(default_factory=dict)


class Project:
    """Call graph over a set of linted files.

    Parameters
    ----------
    contexts:
        the parsed files; one :class:`FunctionNode` is created per
        function/method plus a ``<module>`` node per file.
    """

    def __init__(self, contexts: Sequence[LintContext]):
        self.contexts = list(contexts)
        #: qualname -> node, insertion-ordered (file order, then lexical)
        self.functions: dict[str, FunctionNode] = {}
        self._by_name: dict[str, list[FunctionNode]] = {}
        self._modules: dict[str, _ModuleInfo] = {}
        for ctx in self.contexts:
            self._index_file(ctx)
        self._call_cache: dict[str, tuple[CallSite, ...]] = {}
        self._callers: dict[str, list[CallSite]] | None = None
        self._dataflow = None

    @property
    def dataflow(self):
        """This project's :class:`~repro.analysis.dataflow.DataflowAnalysis`,
        built on first use — its fixpoints are a lint call's largest cost —
        and shared by the rules that read it."""
        if self._dataflow is None:
            from repro.analysis.dataflow import DataflowAnalysis  # it imports this module

            self._dataflow = DataflowAnalysis(self)
        return self._dataflow

    # -- indexing ---------------------------------------------------------

    def _module_key(self, ctx: LintContext) -> str:
        if ctx.module:
            return ctx.module
        # Files outside a repro package (tools/, benchmarks/) get a
        # path-derived pseudo-module so qualnames stay unique.
        return ctx.path.rsplit("/", 1)[-1].removesuffix(".py")

    def _index_file(self, ctx: LintContext) -> None:
        module = self._module_key(ctx)
        info = self._modules.setdefault(module, _ModuleInfo())

        def add(fn: FunctionNode) -> None:
            self.functions[fn.qualname] = fn
            if not fn.is_module_scope:
                self._by_name.setdefault(fn.name, []).append(fn)

        add(
            FunctionNode(
                qualname=f"{module}.<module>",
                name="<module>",
                module=module,
                path=ctx.path,
                node=ctx.tree,
            )
        )

        def walk(node: ast.AST, prefix: str, class_name: str | None) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qual = f"{prefix}.{child.name}"
                    add(
                        FunctionNode(
                            qualname=qual,
                            name=child.name,
                            module=module,
                            path=ctx.path,
                            node=child,
                            class_name=class_name,
                            params=_param_names(child),
                        )
                    )
                    walk(child, qual, None)
                elif isinstance(child, ast.ClassDef):
                    info.class_bases[child.name] = list(child.bases)
                    walk(child, f"{prefix}.{child.name}", child.name)
                else:
                    walk(child, prefix, class_name)

        walk(ctx.tree, module, None)
        self._collect_imports(ctx.tree, info)

    def _collect_imports(self, tree: ast.AST, info: _ModuleInfo) -> None:
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".", 1)[0]
                    target = alias.name if alias.asname else name
                    info.module_aliases[name] = target
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                for alias in node.names:
                    bound = alias.asname or alias.name
                    info.from_imports[bound] = (node.module, alias.name)

    # -- lookup -----------------------------------------------------------

    def _module_function(self, module: str, name: str) -> FunctionNode | None:
        return self.functions.get(f"{module}.{name}")

    def _resolve_class_method(
        self, module: str, class_name: str, method: str, depth: int = 0
    ) -> FunctionNode | None:
        if depth > 5:
            return None
        fn = self.functions.get(f"{module}.{class_name}.{method}")
        if fn is not None:
            return fn
        info = self._modules.get(module)
        if info is None:
            return None
        for base in info.class_bases.get(class_name, []):
            base_mod, base_name = self._resolve_class_expr(module, base)
            if base_name is None:
                continue
            fn = self._resolve_class_method(
                base_mod or module, base_name, method, depth + 1
            )
            if fn is not None:
                return fn
        return None

    def _resolve_class_expr(
        self, module: str, expr: ast.expr
    ) -> tuple[str | None, str | None]:
        """Resolve a base-class expression to (module, class name)."""
        info = self._modules.get(module)
        if isinstance(expr, ast.Name):
            if info and expr.id in info.from_imports:
                src_mod, src_name = info.from_imports[expr.id]
                return src_mod, src_name
            return module, expr.id
        if isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
            if info and expr.value.id in info.module_aliases:
                return info.module_aliases[expr.value.id], expr.attr
        return None, None

    # -- call resolution --------------------------------------------------

    def resolve_call(
        self, caller: FunctionNode, call: ast.Call
    ) -> tuple[FunctionNode, ...]:
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name_call(caller, func.id)
        if isinstance(func, ast.Attribute):
            return self._resolve_attr_call(caller, func)
        return ()

    def _resolve_name_call(
        self, caller: FunctionNode, name: str
    ) -> tuple[FunctionNode, ...]:
        # 1. function defined in the caller's module (module level)
        fn = self._module_function(caller.module, name)
        if fn is not None and fn.class_name is None:
            return (fn,)
        # 2. explicit `from mod import name`
        info = self._modules.get(caller.module)
        if info and name in info.from_imports:
            src_mod, src_name = info.from_imports[name]
            fn = self._module_function(src_mod, src_name)
            if fn is not None:
                return (fn,)
            return ()
        # 3. unique project-wide match on a module-level function
        candidates = [
            f for f in self._by_name.get(name, []) if f.class_name is None
        ]
        if len(candidates) == 1:
            return (candidates[0],)
        return ()

    def _resolve_attr_call(
        self, caller: FunctionNode, func: ast.Attribute
    ) -> tuple[FunctionNode, ...]:
        method = func.attr
        if method in COLLECTIVES or method in P2P_PRIMITIVES:
            return ()  # atomic protocol events
        recv = func.value
        if isinstance(recv, ast.Name):
            if recv.id in ("self", "cls") and caller.class_name:
                fn = self._resolve_class_method(
                    caller.module, caller.class_name, method
                )
                if fn is not None:
                    return (fn,)
                return ()
            info = self._modules.get(caller.module)
            if info and recv.id in info.module_aliases:
                fn = self._module_function(info.module_aliases[recv.id], method)
                if fn is not None:
                    return (fn,)
        return ()

    # -- traversal --------------------------------------------------------

    def call_sites(self, fn: FunctionNode) -> tuple[CallSite, ...]:
        """All call expressions in ``fn``'s body (nested defs excluded),
        in execution order, with resolved targets."""
        cached = self._call_cache.get(fn.qualname)
        if cached is not None:
            return cached
        sites = tuple(
            CallSite(caller=fn, call=call, targets=self.resolve_call(fn, call))
            for call in ordered_calls(fn.node)
        )
        self._call_cache[fn.qualname] = sites
        return sites

    def callers_of(self, qualname: str) -> list[CallSite]:
        """All resolved call sites targeting ``qualname``."""
        if self._callers is None:
            self._callers = {}
            for fn in list(self.functions.values()):
                for site in self.call_sites(fn):
                    for target in site.targets:
                        self._callers.setdefault(target.qualname, []).append(site)
        return self._callers.get(qualname, [])

    def iter_functions(self) -> Iterable[FunctionNode]:
        return self.functions.values()


def _param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    return tuple(names)
