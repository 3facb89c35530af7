"""Autograd-hygiene rules.

The tensor engine records closures over the *buffers* of op inputs and
outputs (see :mod:`repro.tensor.tensor`). Mutating ``Tensor.data`` or
``.grad`` in place between forward and backward therefore silently corrupts
gradients — the exact bug class the dynamic
:class:`~repro.analysis.graph_sanitizer.GraphSanitizer` catches at runtime;
these rules catch the lexically obvious cases before the code ever runs.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.lint import Finding, LintContext, Rule, register

#: modules allowed to mutate Tensor buffers in place: the engine itself,
#: the optimizers (parameter updates happen between graphs, by contract),
#: and the perf kernels (audited for tape safety).
_MUTATION_WHITELIST = ("repro.tensor", "repro.optim", "repro.perf")

#: ndarray methods that mutate the receiver
_MUTATING_METHODS = {"fill", "sort", "put", "partition", "resize", "itemset"}

_TENSOR_BUFFERS = {"data", "grad"}


def _buffer_attr(node: ast.AST) -> str | None:
    """Return 'data'/'grad' when ``node`` is ``<expr>.data`` / ``<expr>.grad``."""
    if isinstance(node, ast.Attribute) and node.attr in _TENSOR_BUFFERS:
        return node.attr
    return None


@register
class TensorBufferMutation(Rule):
    id = "ag-tensor-mutation"
    category = "autograd"
    description = (
        "in-place mutation of Tensor.data/.grad outside the whitelisted "
        "engine/optimizer/perf modules; recorded backward closures alias "
        "these buffers, so mutation corrupts gradients silently"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        if ctx.in_module(_MUTATION_WHITELIST):
            return
        for node in ctx.nodes:
            if isinstance(node, ast.AugAssign):
                target = node.target
                buf = _buffer_attr(target)
                if buf is None and isinstance(target, ast.Subscript):
                    buf = _buffer_attr(target.value)
                if buf is not None:
                    yield self.finding(
                        ctx,
                        node,
                        f"augmented assignment mutates .{buf} in place; "
                        "backward closures alias this buffer — rebind the "
                        "tensor or route through a whitelisted kernel",
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Subscript):
                        buf = _buffer_attr(target.value)
                        if buf is not None:
                            yield self.finding(
                                ctx,
                                target,
                                f"subscript assignment mutates .{buf} in "
                                "place; backward closures alias this buffer",
                            )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _MUTATING_METHODS
                    and _buffer_attr(func.value) is not None
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f".{func.value.attr}.{func.attr}() mutates the "
                        "buffer in place; backward closures alias it",
                    )


def _is_float_literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def _is_computed(node: ast.AST) -> bool:
    """Arithmetic results: the values float equality is unreliable on."""
    if _is_float_literal(node):
        return False
    return isinstance(node, (ast.BinOp, ast.Call))


@register
class FloatEquality(Rule):
    id = "ag-float-eq"
    category = "autograd"
    description = (
        "== / != between a float literal and a computed (call/arithmetic) "
        "result; floating-point results are approximate — compare stored "
        "sentinels exactly, computed values with a tolerance"
    )

    def check(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ctx.nodes:
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                left, right = operands[i], operands[i + 1]
                if (_is_float_literal(left) and _is_computed(right)) or (
                    _is_computed(left) and _is_float_literal(right)
                ):
                    yield self.finding(
                        ctx,
                        node,
                        "exact float comparison against a computed result; "
                        "use np.isclose/np.allclose (or restructure to a "
                        "count/truthiness test)",
                    )
