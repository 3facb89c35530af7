"""Tape-safety rules for the step compiler.

:mod:`repro.jit` records ONE straight-line execution of ``forward`` /
``log_psi`` and replays it for every later batch with a matching guard key
(shape, dtype, parameter structure). Python-level control flow that branches
on the *values* flowing through the model is invisible to that guard: the
replay silently follows whichever branch the traced batch happened to take.
These rules flag the lexically obvious cases before a model ever reaches
``VQMC.step(compile='on')``.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.lint import Finding, LintContext, Rule, register

#: methods the compiler traces (directly, or transitively from ``log_psi``);
#: branches anywhere on this surface end up recorded as straight-line code.
_TRACED_METHODS = ("forward", "log_psi", "log_prob", "logits")


def _arg_names(fn: ast.FunctionDef) -> set[str]:
    args = fn.args
    names = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
    ]
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            names.append(extra.arg)
    return {n for n in names if n not in ("self", "cls")}


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _tainted_names(fn: ast.FunctionDef) -> set[str]:
    """Function arguments plus every name (transitively) assigned from one.

    A deliberately coarse lexical taint: precision is not the point — a
    branch on anything derived from the batch is a re-trace hazard.
    """
    tainted = _arg_names(fn)
    changed = True
    while changed:
        changed = False
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                value = node.value
                if value is None or not (_names_in(value) & tainted):
                    continue
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for name in _names_in(target):
                        if name not in tainted:
                            tainted.add(name)
                            changed = True
    return tainted


@register
class TapeUnsafeControlFlow(Rule):
    id = "jit-tape-unsafe"
    category = "jit"
    description = (
        "data-dependent control flow on the traced forward surface "
        "(forward/log_psi/log_prob/logits branching on a function "
        "argument); the step compiler records one straight-line path, so "
        "the replay silently follows the traced branch for every batch"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for cls in ctx.nodes:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (
                    not isinstance(fn, ast.FunctionDef)
                    or fn.name not in _TRACED_METHODS
                ):
                    continue
                tainted = _tainted_names(fn)
                for node in ast.walk(fn):
                    if isinstance(node, (ast.If, ast.While, ast.IfExp)):
                        hot = sorted(_names_in(node.test) & tainted)
                        if hot:
                            kind = type(node).__name__.lower()
                            yield self.finding(
                                ctx,
                                node,
                                f"{kind} branches on {', '.join(hot)} inside "
                                f"{cls.name}.{fn.name}; the compiled tape "
                                "replays only the traced branch — hoist the "
                                "branch out of the traced surface or run "
                                "this model with compile='off'",
                            )
