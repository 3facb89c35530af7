"""Interprocedural dataflow over the :class:`~repro.analysis.callgraph.Project`.

Two analyses feed the whole-program distributed rules:

**Rank taint.** A value is *rank-tainted* when it derives from the
calling rank — ``comm.rank``, a bare ``rank`` name, any expression built
from one, a parameter that receives a tainted argument at some resolved
call site, or the return value of a function that returns taint. Taint
is what makes a branch *rank-divergent*: different ranks take different
arms, so any collective inside only one arm deadlocks the world.

**Collective summaries.** For every function, the ordered tuple of
collective operations (``allreduce`` … ``split``) it issues
*transitively* — its own protocol events plus, inlined in call order,
those of every resolved callee. Two branch arms are *congruent* when
their summaries are equal; the supervisor's ``if rank == leader`` blocks
that broadcast on both arms stay clean, while ``if rank == 0:
comm.allreduce(x)`` does not.

Both analyses are fixpoints over the call graph, bounded and
under-approximate in the same way resolution is: an unresolved call
contributes nothing, so the rules built on top miss exotic dispatch
rather than inventing findings.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.callgraph import (
    COLLECTIVES,
    FunctionNode,
    Project,
    body_nodes,
    ordered_calls,
)

__all__ = ["DataflowAnalysis", "CollectiveSite"]

#: cap on summary length; protocol sequences longer than this compare
#: by their first 64 events, which is ample for congruence checking.
_MAX_SUMMARY = 64

#: names whose values are rank-derived at the source level
_RANK_NAMES = frozenset({"rank"})
_RANK_ATTRS = frozenset({"rank"})


class CollectiveSite:
    """One protocol event inside a branch arm: either a direct collective
    call or a resolved call whose transitive summary issues collectives."""

    __slots__ = ("node", "fn", "chain")

    def __init__(self, node: ast.Call, fn: FunctionNode, chain: tuple[str, ...]):
        self.node = node
        self.fn = fn
        #: human-readable witness path, e.g. ``("helper", "sync", ".allreduce")``
        self.chain = chain

    @property
    def label(self) -> str:
        return " -> ".join(self.chain)


class DataflowAnalysis:
    """Rank-taint + collective-summary fixpoints for one project."""

    def __init__(self, project: Project):
        self.project = project
        #: qualname -> set of tainted parameter names
        self.param_taint: dict[str, set[str]] = {}
        #: qualname -> does the function return a rank-tainted value
        self.returns_taint: dict[str, bool] = {}
        #: qualname -> set of locally tainted names (incl. tainted params)
        self.tainted_names: dict[str, set[str]] = {}
        #: qualname -> transitive ordered collective summary
        self.summaries: dict[str, tuple[str, ...]] = {}
        self._chain_cache: dict[str, tuple[str, ...] | None] = {}
        #: qualname -> its ``(target, value)`` assignments and returned
        #: expressions, in body order: read on every fixpoint pass, walked once
        self._assigns: dict[str, list[tuple[str, ast.AST]]] = {}
        self._returns: dict[str, list[ast.AST]] = {}
        self._run_taint_fixpoint()
        self._run_summary_fixpoint()

    # -- taint ------------------------------------------------------------

    def _run_taint_fixpoint(self) -> None:
        fns = list(self.project.iter_functions())
        for fn in fns:
            self.param_taint[fn.qualname] = set()
            self.returns_taint[fn.qualname] = False
            self.tainted_names[fn.qualname] = set()
            body = list(body_nodes(fn.node))
            self._assigns[fn.qualname] = [
                (name, value)
                for node in body
                for name, value in _assignments(node)
                if value is not None
            ]
            self._returns[fn.qualname] = [
                node.value
                for node in body
                if isinstance(node, ast.Return) and node.value is not None
            ]
        # Bounded: each pass can only grow param_taint/returns_taint, both
        # finite; len(fns)+2 passes dominates any call-chain depth.
        for _ in range(len(fns) + 2):
            changed = False
            for fn in fns:
                changed |= self._taint_one(fn)
            if not changed:
                break

    def _taint_one(self, fn: FunctionNode) -> bool:
        tainted = set(self.param_taint[fn.qualname])
        # Local fixpoint: assignments propagate taint between names.
        for _ in range(32):
            grew = False
            for target_name, value in self._assigns[fn.qualname]:
                if self._expr_tainted_set(fn, value, tainted):
                    if target_name not in tainted:
                        tainted.add(target_name)
                        grew = True
            if not grew:
                break
        changed = tainted != self.tainted_names[fn.qualname]
        self.tainted_names[fn.qualname] = tainted

        # Returns.
        if not self.returns_taint[fn.qualname]:
            for value in self._returns[fn.qualname]:
                if self._expr_tainted_set(fn, value, tainted):
                    self.returns_taint[fn.qualname] = True
                    changed = True
                    break

        # Push taint into callee parameters at resolved call sites.
        for site in self.project.call_sites(fn):
            for target in site.targets:
                params = list(target.params)
                if target.class_name is not None and params[:1] in (
                    ["self"],
                    ["cls"],
                ):
                    params = params[1:]
                callee_taint = self.param_taint[target.qualname]
                for i, arg in enumerate(site.call.args):
                    if isinstance(arg, ast.Starred) or i >= len(params):
                        break
                    if self._expr_tainted_set(fn, arg, tainted):
                        if params[i] not in callee_taint:
                            callee_taint.add(params[i])
                            changed = True
                for kw in site.call.keywords:
                    if kw.arg is None or kw.arg not in target.params:
                        continue
                    if self._expr_tainted_set(fn, kw.value, tainted):
                        if kw.arg not in callee_taint:
                            callee_taint.add(kw.arg)
                            changed = True
        return changed

    def _expr_tainted_set(
        self, fn: FunctionNode, expr: ast.AST, tainted: set[str]
    ) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and (
                node.id in tainted or node.id in _RANK_NAMES
            ):
                return True
            if isinstance(node, ast.Attribute) and node.attr in _RANK_ATTRS:
                return True
            if isinstance(node, ast.Call):
                for target in self.project.resolve_call(fn, node):
                    if self.returns_taint.get(target.qualname):
                        return True
        return False

    def expr_tainted(self, fn: FunctionNode, expr: ast.AST) -> bool:
        """Is ``expr`` rank-tainted in ``fn``'s scope (post-fixpoint)?"""
        return self._expr_tainted_set(
            fn, expr, self.tainted_names.get(fn.qualname, set())
        )

    # -- collective summaries ---------------------------------------------

    def _run_summary_fixpoint(self) -> None:
        fns = list(self.project.iter_functions())
        for fn in fns:
            self.summaries[fn.qualname] = ()
        for _ in range(len(fns) + 2):
            changed = False
            for fn in fns:
                seq = self._stmt_summary(fn, getattr(fn.node, "body", []))
                if seq != self.summaries[fn.qualname]:
                    self.summaries[fn.qualname] = seq
                    changed = True
            if not changed:
                break

    def _stmt_summary(
        self, fn: FunctionNode, stmts: list[ast.stmt]
    ) -> tuple[str, ...]:
        """Transitive collective sequence of a statement list, in source
        order; branch arms are concatenated (the summary is a congruence
        *fingerprint*, not an execution trace)."""
        out: list[str] = []
        holder = ast.Module(body=list(stmts), type_ignores=[])
        for call in ordered_calls(holder):
            if len(out) >= _MAX_SUMMARY:
                break
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in COLLECTIVES:
                out.append(func.attr)
                continue
            for target in self.project.resolve_call(fn, call):
                out.extend(self.summaries[target.qualname])
        return tuple(out[:_MAX_SUMMARY])

    def arm_summary(
        self, fn: FunctionNode, stmts: list[ast.stmt]
    ) -> tuple[str, ...]:
        """Public wrapper: transitive collective sequence of a branch arm."""
        return self._stmt_summary(fn, stmts)

    def collective_sites(
        self, fn: FunctionNode, stmts: list[ast.stmt]
    ) -> Iterator[CollectiveSite]:
        """Protocol events anchored in ``stmts``: direct collectives plus
        resolved calls whose summaries are non-empty, each with a witness
        chain to its first collective."""
        holder = ast.Module(body=list(stmts), type_ignores=[])
        for call in ordered_calls(holder):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in COLLECTIVES:
                yield CollectiveSite(call, fn, (f".{func.attr}()",))
                continue
            for target in self.project.resolve_call(fn, call):
                if self.summaries[target.qualname]:
                    chain = self._chain_to_collective(target)
                    if chain is not None:
                        yield CollectiveSite(call, fn, (target.name,) + chain)
                    break

    def _chain_to_collective(
        self, fn: FunctionNode, depth: int = 0
    ) -> tuple[str, ...] | None:
        """Shortest-ish witness: names of callees leading to the first
        direct collective issued under ``fn``."""
        cached = self._chain_cache.get(fn.qualname, "miss")
        if cached != "miss":
            return cached
        if depth > 16:
            return None
        self._chain_cache[fn.qualname] = None  # cycle guard
        result: tuple[str, ...] | None = None
        for site in self.project.call_sites(fn):
            func = site.call.func
            if isinstance(func, ast.Attribute) and func.attr in COLLECTIVES:
                result = (f".{func.attr}()",)
                break
            for target in site.targets:
                if self.summaries[target.qualname]:
                    sub = self._chain_to_collective(target, depth + 1)
                    if sub is not None:
                        result = (target.name,) + sub
                        break
            if result is not None:
                break
        self._chain_cache[fn.qualname] = result
        return result


def _assignments(
    node: ast.AST,
) -> Iterator[tuple[str, ast.AST | None]]:
    """Yield ``(target_name, value_expr)`` pairs for simple assignments.

    Attribute targets are skipped (taint does not survive storage on an
    object — matching the lexical rule's semantics); tuple targets taint
    every name element; ``for`` loop variables over a tainted iterable
    taint the loop name (``for peer in range(rank)``).
    """
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield from _target_names(target, node.value)
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        yield from _target_names(node.target, node.value)
    elif isinstance(node, ast.AugAssign):
        yield from _target_names(node.target, node.value)
    elif isinstance(node, ast.NamedExpr):
        yield from _target_names(node.target, node.value)
    elif isinstance(node, (ast.For, ast.AsyncFor)):
        yield from _target_names(node.target, node.iter)
    elif isinstance(node, ast.withitem) and node.optional_vars is not None:
        yield from _target_names(node.optional_vars, node.context_expr)


def _target_names(
    target: ast.AST, value: ast.AST
) -> Iterator[tuple[str, ast.AST]]:
    if isinstance(target, ast.Name):
        yield target.id, value
    elif isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _target_names(elt, value)
    elif isinstance(target, ast.Starred):
        yield from _target_names(target.value, value)
    elif isinstance(target, ast.Subscript):
        # x[i] = tainted -> x becomes tainted (container carries taint)
        yield from _target_names(target.value, value)
