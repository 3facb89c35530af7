"""Tape fusion: collapse linear-layer op chains into single fused nodes.

The interpreter records a masked linear layer as four primitives::

    scatter(W, M) -> transpose -> matmul(x, ·) -> add(·, b)

``W`` being the packed connected weights and ``M`` the mask's pattern.
Replaying that literally wastes work: the transpose is a fresh view node,
the backward builds the dense weight gradient in a fresh array before it
gathers it, and the first layer computes an input gradient nobody reads.
:func:`fuse_tape` pattern-matches the chain (scatter and bias both
optional, so plain ``Linear`` folds too) into one :class:`FusedLinear`
node whose forward is a scatter into a buffer allocated once and a single
BLAS call on it, and whose backward is the closed-form ``(δᵀx)[M]`` /
``Σδ`` / ``δ·W_eff`` family — and whose per-sample variant stops at
``(x, δ)``, the layer's factor of the O-matrix (:mod:`repro.nn.factored`).

Fusion only fires when the intermediate slots have no other consumer, so
any program that *observes* an intermediate keeps interpreter semantics.
"""

from __future__ import annotations

from repro.jit.tape import StepTape, TapeOp

__all__ = ["FusedLinear", "fuse_tape"]


class FusedLinear:
    """``out = src @ scatter(W, M)ᵀ + b`` folded into one node.

    ``M`` and ``b`` are optional: ``mask`` is the boolean pattern the packed
    ``W`` fills, or None for a dense ``W``."""

    op = "linear"

    __slots__ = ("index", "inputs", "slot", "shape", "dtype", "requires_grad",
                 "call_site", "ref", "src_slot", "w_slot", "mask", "bias_slot",
                 "attrs")

    def __init__(self, matmul_op: TapeOp, out_op: TapeOp, src_slot: int,
                 w_slot: int, mask, bias_slot: int | None):
        self.index = out_op.index
        self.inputs = (src_slot,)
        self.slot = out_op.slot
        self.shape = out_op.shape
        self.dtype = out_op.dtype
        self.requires_grad = out_op.requires_grad
        self.call_site = matmul_op.call_site
        self.ref = out_op.ref
        self.src_slot = src_slot
        self.w_slot = w_slot
        self.mask = mask  # boolean pattern or None
        self.bias_slot = bias_slot
        self.attrs = {"masked": mask is not None, "bias": bias_slot is not None}

    def __repr__(self) -> str:
        kind = "masked_linear" if self.mask is not None else "linear"
        return f"FusedLinear(#{self.index} {kind} -> slot {self.slot} {self.shape})"


def _is_2d(shape) -> bool:
    return len(shape) == 2


def fuse_tape(tape: StepTape):
    """Return ``(nodes, dead_slots)``: the fused node list (a mix of
    :class:`TapeOp` and :class:`FusedLinear`, in execution order) plus the
    slots whose ops were folded away and need no buffer."""
    ops = tape.ops
    op_of_slot = {op.slot: op for op in ops}
    leaf_of_slot = {l.slot: l for l in tape.leaves}

    consumers: dict[int, int] = {}
    for op in ops:
        for s in op.inputs:
            consumers[s] = consumers.get(s, 0) + 1
    # The returned tensor has an implicit external consumer.
    consumers[tape.out_slot] = consumers.get(tape.out_slot, 0) + 1

    def single_use(slot: int) -> bool:
        return consumers.get(slot, 0) == 1

    def param_slot(slot: int) -> bool:
        leaf = leaf_of_slot.get(slot)
        return leaf is not None and leaf.kind == "param"

    skip: set[int] = set()  # op indices folded into a fused node
    emit_as: dict[int, FusedLinear] = {}  # op index -> fused replacement
    dead_slots: set[int] = set()

    for op in ops:
        if op.op != "matmul" or op.index in skip or not _is_2d(op.shape):
            continue
        tr = op_of_slot.get(op.inputs[1])
        if tr is None or tr.op != "transpose" or not single_use(tr.slot):
            continue
        if tr.attrs.get("axes") not in (None, (1, 0)) or not _is_2d(tr.shape):
            continue
        wsrc = tr.inputs[0]
        mask = None
        folded = [tr.index]
        folded_slots = [tr.slot]
        if param_slot(wsrc):
            w_slot = wsrc
        else:
            sc = op_of_slot.get(wsrc)
            if sc is None or sc.op != "scatter" or not single_use(sc.slot) \
                    or not param_slot(sc.inputs[0]):
                continue
            w_slot, mask = sc.inputs[0], sc.attrs["pattern"]
            folded.append(sc.index)
            folded_slots.append(sc.slot)

        # Optionally fold the bias add that consumes the matmul result.
        out_op = op
        bias_slot = None
        if single_use(op.slot):
            adds = [o for o in ops if op.slot in o.inputs]
            if len(adds) == 1 and adds[0].op == "add" and adds[0].shape == op.shape:
                add = adds[0]
                other = add.inputs[1] if add.inputs[0] == op.slot else add.inputs[0]
                if param_slot(other):
                    out_op = add
                    bias_slot = other
                    folded.append(op.index)
                    folded_slots.append(op.slot)

        fused = FusedLinear(op, out_op, op.inputs[0], w_slot, mask, bias_slot)
        emit_as[out_op.index] = fused
        skip.update(folded)
        skip.add(out_op.index)
        dead_slots.update(folded_slots)

    nodes = []
    for op in ops:
        if op.index in emit_as:
            nodes.append(emit_as[op.index])
        elif op.index not in skip:
            nodes.append(op)
    return nodes, dead_slots
