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

Both read the project's per-function index. Taint is a worklist
fixpoint that only ever grows what it records. Summaries take one pass
over the call graph's strongly connected components, callees first; a
call back into a recursive component adds that component's *loop*
fingerprint, the sorted collectives it issues. So neither the visiting
order nor the declaration order changes the result. Both are
under-approximate in the same way resolution is:
an unresolved call contributes nothing, so the rules built on top miss
exotic dispatch rather than inventing findings.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Collection, Iterable, Iterator

from repro.analysis.callgraph import COLLECTIVES, CallSite, FunctionNode, Project

__all__ = ["DataflowAnalysis"]

#: cap on summary length; protocol sequences longer than this compare
#: by their first 64 events, which is ample for congruence checking.
_MAX_SUMMARY = 64

#: names whose values are rank-derived at the source level
_RANK_NAMES = frozenset({"rank"})
_RANK_ATTRS = frozenset({"rank"})


def _collective(call: ast.Call) -> str | None:
    """The collective a call issues directly (``comm.allreduce(x)``), if any."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in COLLECTIVES:
        return func.attr
    return None


class DataflowAnalysis:
    """Rank-taint + collective-summary fixpoints for one project."""

    def __init__(self, project: Project):
        self.project = project
        #: qualname -> set of tainted parameter names
        self.param_taint: dict[str, set[str]] = {q: set() for q in project.functions}
        #: qualname -> does the function return a rank-tainted value
        self.returns_taint: dict[str, bool] = dict.fromkeys(project.functions, False)
        #: qualname -> set of locally tainted names (incl. tainted params)
        self.tainted_names: dict[str, set[str]] = {q: set() for q in project.functions}
        #: qualname -> transitive ordered collective summary
        self.summaries: dict[str, tuple[str, ...]] = {}
        self._taint()
        self._summarize()

    # -- taint ------------------------------------------------------------

    def _taint(self) -> None:
        """Visit every function, then every function a visit names, until
        none is named."""
        queue = deque(self.project.functions)
        queued = set(queue)
        while queue:
            qualname = queue.popleft()
            queued.remove(qualname)
            for name in self._taint_one(self.project.functions[qualname]):
                if name not in queued:
                    queued.add(name)
                    queue.append(name)

    def _taint_one(self, fn: FunctionNode) -> list[str]:
        """Recompute ``fn``'s taint from its tainted parameters; return the
        callers whose calls to it now return taint and the callees whose
        parameter taint grew."""
        index = self.project.index[fn.qualname]
        tainted = self.tainted_names[fn.qualname] = self._local_taint(fn)
        requeue: list[str] = []
        if not self.returns_taint[fn.qualname] and any(
            self._expr_tainted_set(value, tainted) for value in index.returns
        ):
            self.returns_taint[fn.qualname] = True
            requeue += [site.caller.qualname for site in self.project.callers_of(fn.qualname)]
        for site in index.sites:
            for target in site.targets:
                callee_taint = self.param_taint[target.qualname]
                for param, arg in _bound_args(site, target):
                    if param not in callee_taint and self._expr_tainted_set(arg, tainted):
                        callee_taint.add(param)
                        requeue.append(target.qualname)
        return requeue

    def _local_taint(self, fn: FunctionNode) -> set[str]:
        """Names tainted in ``fn``: its tainted parameters plus every name
        an assignment binds to a tainted value, however long the chain."""
        grown = list(self.param_taint[fn.qualname])
        # name -> the names bound to a value that reads it
        readers: dict[str, list[str]] = {}
        for name, value in self.project.index[fn.qualname].assigns:
            if self._expr_tainted_set(value, set()):  # reads a rank source
                grown.append(name)
            for node in ast.walk(value):
                if isinstance(node, ast.Name):
                    readers.setdefault(node.id, []).append(name)
        tainted: set[str] = set()
        while grown:
            name = grown.pop()
            if name not in tainted:
                tainted.add(name)
                grown += readers.get(name, ())
        return tainted

    def _expr_tainted_set(self, expr: ast.AST, tainted: set[str]) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and (
                node.id in tainted or node.id in _RANK_NAMES
            ):
                return True
            if isinstance(node, ast.Attribute) and node.attr in _RANK_ATTRS:
                return True
            if isinstance(node, ast.Call):
                for target in self.project.targets_of(node):
                    if self.returns_taint[target.qualname]:
                        return True
        return False

    def expr_tainted(self, fn: FunctionNode, expr: ast.AST) -> bool:
        """Is ``expr`` rank-tainted in ``fn``'s scope (post-fixpoint)?"""
        return self._expr_tainted_set(expr, self.tainted_names[fn.qualname])

    # -- collective summaries ---------------------------------------------

    def _summarize(self) -> None:
        """One pass over the call graph's strongly connected components,
        callees first. Inside a component, a call to a member adds the
        component's *loop* fingerprint: the sorted collectives its members
        issue besides those calls (nothing when they issue none), so a
        function's summary is empty exactly when it reaches no collective."""
        for group in self._components():
            members = set(group)
            sites = [self.project.index[qualname].sites for qualname in group]
            loop = tuple(sorted({e for s in sites for e in self._summary(s, members)}))
            for qualname, fn_sites in zip(group, sites):
                self.summaries[qualname] = self._summary(fn_sites, members, loop)

    def _components(self) -> Iterator[list[str]]:
        """Tarjan's strongly connected components of the resolved call
        graph, each yielded after every component it calls into."""
        order: dict[str, int] = {}
        low: dict[str, int] = {}  # the functions on `stack`
        stack: list[str] = []

        def enter(qualname: str) -> tuple[str, Iterator[str]]:
            order[qualname] = low[qualname] = len(order)
            stack.append(qualname)
            sites = self.project.index[qualname].sites
            return qualname, (t.qualname for site in sites for t in site.targets)

        for root in self.project.index:
            work = [] if root in order else [enter(root)]
            while work:
                qualname, callees = work[-1]
                for callee in callees:
                    if callee not in order:
                        work.append(enter(callee))
                        break
                    if callee in low:
                        low[qualname] = min(low[qualname], order[callee])
                else:
                    work.pop()
                    if work:
                        low[work[-1][0]] = min(low[work[-1][0]], low[qualname])
                    if low[qualname] == order[qualname]:
                        group = stack[stack.index(qualname):]
                        del stack[-len(group):]
                        for member in group:
                            del low[member]
                        yield group

    def _summary(
        self,
        sites: Iterable[CallSite],
        members: Collection[str] = (),
        loop: tuple[str, ...] = (),
    ) -> tuple[str, ...]:
        """Transitive collective sequence of some call sites, in execution
        order, a call into ``members`` adding ``loop``; branch arms are
        concatenated (the summary is a congruence *fingerprint*, not an
        execution trace)."""
        out: list[str] = []
        for site in sites:
            if len(out) >= _MAX_SUMMARY:
                break
            name = _collective(site.call)
            if name is not None:
                out.append(name)
            for target in site.targets:
                qualname = target.qualname
                out.extend(loop if qualname in members else self.summaries[qualname])
        return tuple(out[:_MAX_SUMMARY])

    def arm_summary(self, fn: FunctionNode, stmts: list[ast.stmt]) -> tuple[str, ...]:
        """Transitive collective sequence of a branch arm of ``fn``."""
        return self._summary(self.project.arm_sites(fn, stmts))

    def collective_sites(
        self, fn: FunctionNode, stmts: list[ast.stmt]
    ) -> Iterator[tuple[ast.Call, tuple[str, ...]]]:
        """Protocol events anchored in ``stmts``: direct collectives plus
        resolved calls whose summaries are non-empty, each with a witness —
        a shortest call chain to a collective, e.g. ``("helper", "sync",
        ".allreduce()")``."""
        for site in self.project.arm_sites(fn, stmts):
            name = _collective(site.call)
            if name is not None:
                yield site.call, (f".{name}()",)
            for target in site.targets:
                if self.summaries[target.qualname]:
                    yield site.call, self._witness(target)
                    break

    def _witness(self, fn: FunctionNode) -> tuple[str, ...]:
        """Breadth-first over the call sites from ``fn``, which reaches a
        collective: the first one found ends a shortest chain."""
        chains = {fn.qualname: (fn.name,)}
        queue = deque([fn])
        while queue:
            caller = queue.popleft()
            chain = chains[caller.qualname]
            for site in self.project.call_sites(caller):
                name = _collective(site.call)
                if name is not None:
                    return (*chain, f".{name}()")
                for target in site.targets:
                    if target.qualname not in chains:
                        chains[target.qualname] = (*chain, target.name)
                        queue.append(target)
        raise AssertionError(f"{fn.qualname} has a summary but reaches no collective")


def _bound_args(site: CallSite, target: FunctionNode) -> Iterator[tuple[str, ast.AST]]:
    """``(parameter, argument)`` pairs of a resolved call, positional
    arguments up to the first ``*args``, keywords by name."""
    params = list(target.params)
    if target.class_name is not None and params[:1] in (["self"], ["cls"]):
        params = params[1:]
    for param, arg in zip(params, site.call.args):
        if isinstance(arg, ast.Starred):
            break
        yield param, arg
    for kw in site.call.keywords:
        if kw.arg is not None and kw.arg in target.params:
            yield kw.arg, kw.value
