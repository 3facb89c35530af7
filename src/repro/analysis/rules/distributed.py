"""Distributed-hygiene rules.

Collectives are a *congruence* contract: every rank of a communicator must
issue the same sequence of collective calls with compatible arguments, or
the world deadlocks — the failure mode the fault-injection layer (PR 2) can
observe but not diagnose. The dynamic
:class:`~repro.analysis.comm_sanitizer.CommSanitizer` verifies congruence
at runtime; these rules flag the two lexical patterns that cause most
divergences before a single rank is spawned.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.callgraph import COLLECTIVES
from repro.analysis.lint import Finding, LintContext, ProjectRule, Rule, register


def _mentions_rank(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and sub.id == "rank":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr == "rank":
            return True
    return False


class _RankBranchVisitor(ast.NodeVisitor):
    """Record collective calls lexically inside rank-dependent branches."""

    def __init__(self) -> None:
        self.rank_depth = 0
        self.hits: list[tuple[ast.Call, str]] = []

    def _visit_branching(self, node: ast.If | ast.While) -> None:
        dependent = _mentions_rank(node.test)
        if dependent:
            self.rank_depth += 1
        for child in ast.iter_child_nodes(node):
            self.visit(child)
        if dependent:
            self.rank_depth -= 1

    visit_If = _visit_branching
    visit_While = _visit_branching

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self.rank_depth > 0
            and isinstance(func, ast.Attribute)
            and func.attr in COLLECTIVES
        ):
            self.hits.append((node, func.attr))
        self.generic_visit(node)


@register
class RankDependentCollective(Rule):
    id = "dist-rank-collective"
    category = "distributed"
    description = (
        "collective call lexically nested under a rank-dependent branch; "
        "unless every rank takes a congruent path this deadlocks the world "
        "— hoist the collective out of the branch (broadcast already "
        "handles root-vs-rest asymmetry internally)"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        visitor = _RankBranchVisitor()
        visitor.visit(ctx.tree)
        for node, name in visitor.hits:
            yield self.finding(
                ctx,
                node,
                f".{name}() inside a rank-dependent branch; every rank must "
                "issue the same collective sequence — hoist it out (or "
                "suppress with the congruence argument spelled out)",
            )


def _mentions_epoch(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "epoch" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "epoch" in sub.attr.lower():
            return True
        if isinstance(sub, ast.keyword) and sub.arg and "epoch" in sub.arg.lower():
            return True
    return False


def _names_assigned_from_epoch(names: set[str], scope: ast.AST) -> bool:
    """Is any of ``names`` assigned from an epoch-mentioning expression
    within ``scope``? (the heartbeat idiom: payload built once, sent in a
    loop)."""
    if not names:
        return False
    for sub in ast.walk(scope):
        if isinstance(sub, ast.Assign):
            targets = [t.id for t in sub.targets if isinstance(t, ast.Name)]
            if set(targets) & names and _mentions_epoch(sub.value):
                return True
        elif isinstance(sub, ast.AnnAssign):
            if (
                isinstance(sub.target, ast.Name)
                and sub.target.id in names
                and sub.value is not None
                and _mentions_epoch(sub.value)
            ):
                return True
    return False


def _expr_carries_epoch(expr: ast.AST, scope: ast.AST) -> bool:
    if _mentions_epoch(expr):
        return True
    names = {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return _names_assigned_from_epoch(names, scope)


def _payload_exprs(call: ast.Call) -> list[ast.AST]:
    """The payload arguments of a ``send_ctrl`` call: everything after the
    positional destination rank."""
    return list(call.args[1:]) + [kw.value for kw in call.keywords]


def _payload_carries_epoch(call: ast.Call, scope: ast.AST) -> bool:
    """Does a ``send_ctrl`` call's payload mention an epoch?

    Either directly in the argument expressions, or — when the payload is a
    bare name — in any assignment to that name within the enclosing scope
    (the idiom: ``heartbeat = np.array([HB, float(epoch), ...])`` then
    ``comm.send_ctrl(peer, heartbeat)``).
    """
    args = list(call.args) + [kw.value for kw in call.keywords]
    if any(_mentions_epoch(arg) for arg in args):
        return True
    names = {arg.id for arg in args if isinstance(arg, ast.Name)}
    return _names_assigned_from_epoch(names, scope)


def _params_feeding_expr(expr: ast.AST, fn) -> set[str]:
    """Parameters of ``fn`` that the expression's value derives from:
    mentioned directly, or feeding a bare name through one level of local
    assignment. Used to defer epoch judgement to the call sites."""
    params = set(fn.params)
    mentioned = {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    out = mentioned & params
    locals_ = mentioned - params
    if locals_:
        for sub in ast.walk(fn.node):
            if isinstance(sub, ast.Assign):
                targets = {
                    t.id for t in sub.targets if isinstance(t, ast.Name)
                }
                if targets & locals_:
                    value_names = {
                        n.id
                        for n in ast.walk(sub.value)
                        if isinstance(n, ast.Name)
                    }
                    out |= value_names & params
    return out


def _arg_for_param(site, target, param: str) -> ast.AST | None:
    """The argument expression bound to ``param`` at a resolved call site,
    or ``None`` when it cannot be mapped (starred args, missing)."""
    for kw in site.call.keywords:
        if kw.arg == param:
            return kw.value
    params = list(target.params)
    if target.class_name is not None and params[:1] in (["self"], ["cls"]):
        decorators = {
            d.id
            for d in getattr(target.node, "decorator_list", [])
            if isinstance(d, ast.Name)
        }
        if "staticmethod" not in decorators:
            params = params[1:]
    try:
        index = params.index(param)
    except ValueError:
        return None
    if index < len(site.call.args):
        arg = site.call.args[index]
        if isinstance(arg, ast.Starred):
            return None
        return arg
    return None


_UNTAGGED_MSG = (
    ".send_ctrl() payload carries no epoch tag; receivers "
    "cannot tell this frame from a stale round's — build "
    "the payload from the current epoch"
)


@register
class CtrlFrameWithoutEpoch(ProjectRule):
    id = "dist-epoch-tag"
    category = "distributed"
    description = (
        "control-frame send without an epoch tag, tracked through call "
        "chains; an untagged frame cannot be discarded as stale by a later "
        "detection/join round, which is exactly the stale-membership bug "
        "class the elastic epoch exists to kill — put the epoch in the "
        "payload (or in the expression that builds it, at whatever call "
        "depth the payload originates)"
    )

    def check_project(self, project) -> Iterable[Finding]:
        # Pass 1: every send_ctrl site. Payloads that locally carry an
        # epoch are clean; payloads derived from a parameter defer the
        # judgement to the function's (resolved) call sites; anything else
        # is flagged where it stands.
        pending: list[tuple[object, str, tuple[str, ...]]] = []
        for fn in project.iter_functions():
            for site in project.call_sites(fn):
                call = site.call
                func = call.func
                if not (
                    isinstance(func, ast.Attribute) and func.attr == "send_ctrl"
                ):
                    continue
                if _payload_carries_epoch(call, fn.node):
                    continue
                params: set[str] = set()
                for expr in _payload_exprs(call):
                    params |= _params_feeding_expr(expr, fn)
                if params and not fn.is_module_scope:
                    for param in sorted(params):
                        pending.append((fn, param, (fn.name,)))
                else:
                    yield self.finding_at(fn.path, call, _UNTAGGED_MSG)

        # Pass 2: walk deferred requirements up the call graph. A caller
        # satisfying the requirement with an epoch-built argument is clean;
        # a caller forwarding its own parameter defers again; a caller
        # passing an epoch-free payload is the bug's origin and gets the
        # finding. Unresolved/uncalled functions stay silent — resolution
        # is under-approximate and a missing caller is not evidence.
        visited: set[tuple[str, str]] = set()
        while pending:
            fn, param, chain = pending.pop()
            if (fn.qualname, param) in visited:
                continue
            visited.add((fn.qualname, param))
            for site in project.callers_of(fn.qualname):
                arg = _arg_for_param(site, fn, param)
                if arg is None:
                    continue
                caller = site.caller
                if _expr_carries_epoch(arg, caller.node):
                    continue
                caller_params = _params_feeding_expr(arg, caller)
                if caller_params and not caller.is_module_scope:
                    for cparam in sorted(caller_params):
                        pending.append((caller, cparam, (caller.name,) + chain))
                else:
                    path = " -> ".join((caller.name,) + chain)
                    yield self.finding_at(
                        caller.path,
                        site.call,
                        f"payload reaches .send_ctrl() via {path} without an "
                        "epoch tag; receivers cannot tell the frame from a "
                        "stale round's — build it from the current epoch at "
                        "this call site",
                    )


@register
class RecvWithoutTimeout(Rule):
    id = "dist-recv-timeout"
    category = "distributed"
    description = (
        "point-to-point recv without an explicit timeout; a silent peer "
        "then wedges the rank for the global default instead of the "
        "caller's deadline — pass timeout= (DEFAULT_TIMEOUT if the default "
        "really is intended)"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "recv"):
                continue
            # Zero-arg recv is a different API (multiprocessing.Connection);
            # Communicator.recv always names its source peer.
            if not node.args:
                continue
            if len(node.args) >= 2:
                continue  # positional timeout
            if any(kw.arg == "timeout" for kw in node.keywords):
                continue
            yield self.finding(
                ctx,
                node,
                ".recv(source) without an explicit timeout; name the "
                "deadline (timeout=...) so a dead peer surfaces as "
                "CommTimeoutError on *this* call site's terms",
            )
