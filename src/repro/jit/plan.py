"""Compiled replay plans: preallocated-arena execution of a fused tape.

A :class:`CompiledPlan` turns a :class:`~repro.jit.tape.StepTape` into
straight-line NumPy with every buffer preallocated:

- **Arena** — one buffer per live tape slot (forward activations), one per
  gradient-carrying slot (adjoints), plus per-op scratch; all allocated at
  build time and reused every replay, so the steady-state path performs
  zero per-step data allocation and — because no :class:`Tensor` is ever
  constructed — zero graph-node construction.
- **Fused kernels** — elementwise chains run via ufunc ``out=`` into the
  arena; fused linear layers are single BLAS calls on the effective weight,
  a masked layer's packed weights scattered into a buffer allocated once
  and its weight gradient gathered back to the packed entries; dead
  branches the interpreter computes unconditionally (first-layer input
  gradients, ``g * other`` products for non-differentiable operands) are
  eliminated at build time.
- **Batched-adjoint backward** — :meth:`gradient` seeds the step's
  per-sample weights and accumulates straight into one flat ``(d,)``
  vector through parameter views (no per-parameter concatenation);
  :meth:`per_sample` seeds ones and stops before parameter accumulation:
  each fused linear layer's inputs and output adjoints *are* its share of
  the per-sample O-matrix in factored form
  (:class:`~repro.nn.factored.FactoredO`), which is what SR consumes — the
  (B, d) array is never built.
- **Distinct rows** — every op of a traced ``log ψ`` acts on each batch row
  alone, so a batch is replayed on its ``U`` distinct rows
  (:func:`~repro.utils.rows.distinct_rows`) and the results are scattered
  back; the adjoint sweep takes each distinct row's summed seed. The arena
  keeps the traced batch ``B`` as its capacity: a replay on ``m ≤ B`` rows
  runs the same steps on the first ``m`` rows of every *batch-led* buffer —
  one that dataflow reaches from the input — which the closures read
  through slot lists, never as captured arrays. A tape whose ops mix rows
  is refused at build (:class:`TraceError`).

Parameter slots are rebound from ``Parameter.data`` on every replay, so
in-place optimizer updates need no re-trace; shape/dtype/identity changes
are caught by the compiler's guards. The guard key stays the traced
shape: no grouping retraces or grows the arena.
"""

from __future__ import annotations

import numpy as np

from repro.jit.errors import TapeDivergenceError, TraceError
from repro.jit.fuse import FusedLinear, fuse_tape
from repro.jit.tape import StepTape
from repro.models.base import group_configurations
from repro.nn.factored import FactoredO, LinearFactor
from repro.utils.rows import DistinctRows, every_row

__all__ = ["CompiledPlan", "InterpretedPlan"]

_LOG2 = float(np.log(2.0))


def _norm_axes(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, (int, np.integer)):
        axis = (int(axis),)
    return tuple(a % ndim for a in axis)


def _reduce_axes(from_shape, to_shape):
    """Axes to sum so a ``from_shape`` contribution collapses to
    ``to_shape`` (the closed form of ``tensor._unbroadcast``); ``None``
    when the shapes already match."""
    from_shape, to_shape = tuple(from_shape), tuple(to_shape)
    if from_shape == to_shape:
        return None
    lead = len(from_shape) - len(to_shape)
    return tuple(range(lead)) + tuple(
        lead + i for i, d in enumerate(to_shape) if d == 1 and from_shape[lead + i] != 1
    )


def _reshaper(shape, led: bool):
    """``arr -> arr.reshape(shape)``; axis 0 follows the replay's rows when
    the array is batch-led."""
    shape = tuple(shape)
    if not led:
        return lambda arr: arr.reshape(shape)
    rest = shape[1:]
    return lambda arr: arr.reshape((len(arr),) + rest)


def _rows_alike(array, batch: int) -> bool:
    """A constant with one identical row per batch row (a broadcast written
    out): its first ``m`` rows serve a replay on ``m`` rows."""
    return (
        batch > 1 and array.ndim >= 1 and array.shape[0] == batch
        and bool((array == array[:1]).all())
    )


def halved(x: np.ndarray) -> np.ndarray:
    """``x`` with its first half's rows each taken twice — a batch of the
    same size with repeats, for verifying the replay on distinct rows."""
    return x[np.arange(len(x)) // 2]


class CompiledPlan:
    """Executable compiled form of one traced step.

    Built by :class:`repro.jit.compiler.StepCompiler`; not constructed
    directly in normal use. ``params`` fixes the flat-gradient layout
    (``model.parameters()`` order) and may be a superset of the parameters
    the tape touches — untouched coordinates stay zero.
    """

    #: name of the span a driver wraps each executed stage in
    span = "jit.replay"

    def __init__(self, tape: StepTape, params):
        self.tape = tape
        self.params = list(params)
        self._nodes, self._dead = fuse_tape(tape)
        #: the traced batch: the arena's row capacity
        self.batch = tape.input_shape[0]

        self.arena_bytes = 0
        self._vals: list = [None] * tape.n_slots
        self._grads: list = [None] * tape.n_slots
        self._scratch: list = []  # per-op scratch, read by index
        self._rowwise: list = []  # (list, index, full buffer) of batch-led buffers
        self._m = self.batch  # rows the batch-led entries currently expose
        self._rows = every_row(self.batch)  # grouping of the last forward
        self._written = [False] * tape.n_slots
        self._aux: dict[int, dict] = {}  # node.index -> kernel state
        self._binders = []  # per-replay leaf rebinding closures
        self._fsteps = []  # forward closures, execution order
        self._ps_steps = None  # per-sample backward (built lazily)
        self._ps_error: TraceError | None = None
        self._ps_ones: np.ndarray | None = None
        self._ps_factors: list = []  # (LinearFactor, src slot, out slot)
        self._forward_ready = False

        self._leaves = {leaf.slot: leaf for leaf in tape.leaves}
        self._shapes = {leaf.slot: tuple(leaf.shape) for leaf in tape.leaves}
        for op in tape.ops:
            self._shapes[op.slot] = tuple(op.shape)
        self._rec = {leaf.slot: leaf.requires_grad for leaf in tape.leaves}
        for op in tape.ops:
            self._rec[op.slot] = op.requires_grad
        self._led = self._batch_led()

        offsets, off = {}, 0
        for p in self.params:
            offsets[id(p)] = (off, p.data.size, tuple(p.data.shape))
            off += p.data.size
        self.n_params = off
        self._offsets = offsets
        self._grad_flat = self._alloc((off,))
        # Zeroed once at build, never per sweep: regions no backward step
        # writes (parameters dead in the traced graph) must read as zero in
        # every gradient() result.
        self._grad_flat.fill(0.0)
        for leaf in tape.leaves:
            if leaf.kind == "param" and id(leaf.param) not in offsets:
                raise TraceError(
                    "traced step consumed a Parameter that is not in the "
                    "plan's parameter list — cannot lay out its gradient"
                )

        self._bind_leaves()
        for node in self._nodes:
            self._fsteps.append(self._forward_step(node))
        self._bsteps = self._build_backward(per_sample=False)
        out_shape = self._shapes[tape.out_slot]
        if self._grads[tape.out_slot] is None:
            self._grad_buf(tape.out_slot, out_shape)
        self.out_shape = out_shape

    # -- rows ------------------------------------------------------------------------

    def _batch_led(self) -> set[int]:
        """The slots whose axis 0 is the batch: dataflow from the input (and
        from constants whose rows are all alike). Raises :class:`TraceError`
        at an op that mixes rows — a replay on a subset of them would be
        wrong — or when the output is not one value per row."""
        batch, shapes = self.batch, self._shapes
        led = {
            leaf.slot for leaf in self.tape.leaves
            if leaf.kind == "input"
            or (leaf.kind == "const" and _rows_alike(leaf.array, batch))
        }
        for node in self._nodes:
            if not any(s in led for s in node.inputs):
                continue
            why = self._mixes_rows(node, led)
            if why:
                raise TraceError(
                    f"op {node.op!r} (recorded at {node.call_site}) {why}; the "
                    "plan replays a batch on its distinct rows, which needs "
                    "every op to act on each row alone"
                )
            led.add(node.slot)
        out = self.tape.out_slot
        if out not in led or len(shapes[out]) != 1:
            raise TraceError(
                f"traced output of shape {shapes[out]} is not one value per "
                f"row of the ({batch}, ...) input"
            )
        return led

    def _mixes_rows(self, node, led) -> str:
        """Why ``node``, which reads a batch-led slot, is not row-wise
        (empty when it is)."""
        shapes, shape = self._shapes, tuple(node.shape)
        if not shape or shape[0] != self.batch:
            return "moves the batch off axis 0"
        if isinstance(node, FusedLinear):
            return ""
        op, ins = node.op, node.inputs
        if op == "sum" and 0 in _norm_axes(node.attrs["axis"], len(shapes[ins[0]])):
            return "sums over the batch axis"
        if op == "matmul":
            a, b = ins
            if (a in led and len(shapes[a]) < 2) or (b in led and len(shapes[b]) < 3):
                return "contracts the batch axis"
            outside = [s for s in ins if s not in led and len(shapes[s]) >= 3]
        else:
            outside = [s for s in ins if s not in led]
        if any(len(shapes[s]) == len(shape) and shapes[s][0] != 1 for s in outside):
            return "pairs each batch row with a row of an operand not drawn from the batch"
        return ""

    def _place(self, store: list, index: int, shape, dtype=np.float64, led: bool = False):
        """Allocate a buffer into ``store[index]``; a batch-led one is
        registered so replays on fewer rows see its first rows. Buffers are
        placed while every row is exposed."""
        buf = self._alloc(shape, dtype)
        store[index] = buf
        if led:
            self._rowwise.append((store, index, buf))
        return buf

    def _scratch_buf(self, shape, dtype=np.float64, led: bool = False) -> int:
        """Index of a new scratch buffer in ``self._scratch``."""
        self._scratch.append(None)
        index = len(self._scratch) - 1
        self._place(self._scratch, index, shape, dtype, led)
        return index

    def _set_rows(self, m: int) -> None:
        """Point every batch-led entry at the first ``m`` rows of its buffer."""
        if m == self._m:
            return
        every = m == self.batch
        for store, index, buf in self._rowwise:
            store[index] = buf if every else buf[:m]
        self._m = m

    # -- arena ---------------------------------------------------------------------

    def _alloc(self, shape, dtype=np.float64):
        buf = np.empty(shape, dtype=dtype)
        self.arena_bytes += buf.nbytes
        return buf

    # -- leaves ----------------------------------------------------------------------

    def _bind_leaves(self) -> None:
        vals = self._vals
        for leaf in self.tape.leaves:
            slot = leaf.slot
            if leaf.kind == "const":
                vals[slot] = leaf.array
                if slot in self._led:
                    self._rowwise.append((vals, slot, leaf.array))
            elif leaf.kind == "param":

                def bind(x, *, slot=slot, param=leaf.param):
                    vals[slot] = param.data

                self._binders.append(bind)
            else:  # input

                def bind(x, *, slot=slot):
                    vals[slot] = x

                self._binders.append(bind)

    def _is_param(self, slot: int) -> bool:
        leaf = self._leaves.get(slot)
        return leaf is not None and leaf.kind == "param"

    # -- forward kernels ------------------------------------------------------------

    def _forward_step(self, node):
        vals, scr = self._vals, self._scratch
        op = node.op
        o = node.slot
        ins = node.inputs
        led = o in self._led

        if op == "reshape":
            # A view is re-derived per replay (its base may be a rebound
            # leaf); a view costs an array header, not a data buffer.
            i = ins[0]
            reshape = _reshaper(node.attrs["shape"], led)

            def step():
                vals[o] = reshape(vals[i])

            return step

        self._place(vals, o, node.shape, node.dtype, led)

        if isinstance(node, FusedLinear):
            src, w, b = node.src_slot, node.w_slot, node.bias_slot
            mask = node.mask
            if mask is not None:
                # The entries off the pattern are zeroed once, here, and no
                # replay writes them.
                weff = self._alloc(mask.shape)
                weff.fill(0.0)
                self._aux[node.index] = {"weff": lambda: weff}

                def step():
                    weff[mask] = vals[w]
                    np.matmul(vals[src], weff.T, out=vals[o])
                    if b is not None:
                        np.add(vals[o], vals[b], out=vals[o])

            else:
                self._aux[node.index] = {"weff": lambda: vals[w]}

                def step():
                    np.matmul(vals[src], vals[w].T, out=vals[o])
                    if b is not None:
                        np.add(vals[o], vals[b], out=vals[o])

            return step

        if op == "add":
            a, b = ins
            return lambda: np.add(vals[a], vals[b], out=vals[o])
        if op == "mul":
            a, b = ins
            return lambda: np.multiply(vals[a], vals[b], out=vals[o])
        if op == "matmul":
            a, b = ins
            return lambda: np.matmul(vals[a], vals[b], out=vals[o])
        if op == "relu":
            (a,) = ins
            return lambda: np.maximum(vals[a], 0.0, out=vals[o])
        if op == "log_cosh":
            (a,) = ins
            si = self._scratch_buf(node.shape, led=led)

            def step():
                out, s = vals[o], scr[si]
                np.abs(vals[a], out=out)
                np.multiply(out, -2.0, out=s)
                np.exp(s, out=s)
                np.log1p(s, out=s)
                np.add(out, s, out=out)
                np.subtract(out, _LOG2, out=out)

            return step
        if op == "bernoulli_log_prob":
            # Fused form of ``t log sigma(z) + (1-t) log sigma(-z)``: using
            # ``log sigma(z) - log sigma(-z) = z`` the elementwise chain
            # collapses to ``t*z - softplus(z)`` — one exp and one log1p
            # instead of the interpreter's two-branch evaluation (values
            # agree to rounding; the tolerance is pinned in tests).
            z, t = ins
            si = self._scratch_buf(node.shape, led=led)
            ei = self._scratch_buf(node.shape, led=led)
            gi = self._scratch_buf(node.shape, led=led)
            ni = self._scratch_buf(node.shape, bool, led)
            self._aux[node.index] = {"sig": gi}

            def step():
                zz, tt, out = vals[z], vals[t], vals[o]
                s, ez, sig, neg = scr[si], scr[ei], scr[gi], scr[ni]
                np.abs(zz, out=s)
                np.negative(s, out=s)
                np.exp(s, out=ez)  # ez = e^{-|z|}
                np.log1p(ez, out=s)
                np.maximum(zz, 0.0, out=out)
                np.add(out, s, out=out)  # out = softplus(z)
                np.multiply(tt, zz, out=s)
                np.subtract(s, out, out=out)
                # sigma(z) from the shared e^{-|z|}: 1/(1+e) for z >= 0,
                # e/(1+e) for z < 0 — no further transcendentals.
                np.add(ez, 1.0, out=s)
                np.divide(1.0, s, out=sig)
                np.multiply(sig, ez, out=s)
                np.less(zz, 0.0, out=neg)
                np.copyto(sig, s, where=neg)

            return step
        if op == "sum":
            (a,) = ins
            axis = node.attrs["axis"]
            keepdims = node.attrs["keepdims"]
            return lambda: np.sum(vals[a], axis=axis, keepdims=keepdims, out=vals[o])

        raise TraceError(
            f"op {op!r} (recorded at {node.call_site}) has no compiled kernel; "
            "this step cannot be replayed"
        )

    # -- backward construction -----------------------------------------------------

    def _grad_buf(self, slot: int, shape):
        """Get-or-create the adjoint buffer for a slot; parameter slots are
        views into the flat gradient vector."""
        if self._grads[slot] is None:
            leaf = self._leaves.get(slot)
            if leaf is not None and leaf.kind == "param":
                off, size, pshape = self._offsets[id(leaf.param)]
                self._grads[slot] = self._grad_flat[off:off + size].reshape(pshape)
            else:
                self._place(self._grads, slot, shape, led=slot in self._led)
        return self._grads[slot]

    def _acc(self, slot, contrib_shape, per_sample=False, call_site=""):
        """Closure accumulating a ``contrib_shape`` adjoint term into a
        slot, reducing broadcast axes (the interpreter's ``_unbroadcast``)."""
        target_shape = self._shapes[slot]
        self._grad_buf(slot, target_shape)
        grads = self._grads
        written = self._written
        axes = _reduce_axes(contrib_shape, target_shape)
        if per_sample and axes is not None and 0 in axes:
            raise TraceError(
                f"per-sample compilation would contract the batch axis into "
                f"a shape-{target_shape} operand (recorded at {call_site})"
            )
        if axes is None:

            def acc(val):
                buf = grads[slot]
                if written[slot]:
                    np.add(buf, val, out=buf)
                else:
                    np.copyto(buf, val)
                    written[slot] = True

        else:

            def acc(val):
                buf = grads[slot]
                v = val.sum(axis=axes).reshape(buf.shape)
                if written[slot]:
                    np.add(buf, v, out=buf)
                else:
                    np.copyto(buf, v)
                    written[slot] = True

        return acc

    def _build_backward(self, per_sample: bool):
        """Compile the adjoint sweep (reverse node order).

        The scalar and per-sample sweeps share every propagation kernel —
        on a batch-diagonal tape the per-sample adjoints *are* the scalar
        adjoints under a ones seed — and differ only at parameter
        accumulation: scalar mode contracts the batch into the flat
        gradient, per-sample mode stops short of it and records which
        buffers hold each layer's factor of O.
        """
        steps = []
        if per_sample:
            counts: dict[int, int] = {}
            for node in self._nodes:
                slots = ((node.w_slot, node.bias_slot)
                         if isinstance(node, FusedLinear) else node.inputs)
                for s in slots:
                    if s is not None and self._is_param(s):
                        counts[s] = counts.get(s, 0) + 1
            if any(c > 1 for c in counts.values()):
                raise TraceError(
                    "per-sample compilation requires each parameter to be "
                    "consumed exactly once (shared weights would sum two "
                    "factors into one O block)"
                )
        for node in reversed(self._nodes):
            if not node.requires_grad:
                continue
            self._grad_buf(node.slot, node.shape)
            if isinstance(node, FusedLinear):
                steps.append(self._linear_backward(node, per_sample))
                continue
            rec = [s for s in node.inputs if self._rec.get(s, False)]
            if not rec:
                continue
            if per_sample:
                for s in rec:
                    if self._is_param(s):
                        raise TraceError(
                            f"per-sample compilation requires parameters to "
                            f"enter through fused linear layers; op "
                            f"{node.op!r} at {node.call_site} consumes one "
                            "directly"
                        )
            step = self._generic_backward(node, rec, per_sample)
            if step is not None:
                steps.append(step)
        return steps

    def _linear_backward(self, node: FusedLinear, per_sample: bool):
        vals, grads, scr = self._vals, self._grads, self._scratch
        written = self._written
        o = node.slot
        src, w, b = node.src_slot, node.w_slot, node.bias_slot
        mask = node.mask
        weff = self._aux[node.index]["weff"]
        B, _ = node.shape
        in_dim = self._shapes[src][1]
        x_rec = self._rec.get(src, False)
        if x_rec:
            acc_src = self._acc(src, (B, in_dim), per_sample, node.call_site)
            sx = self._scratch_buf((B, in_dim), led=src in self._led)

        if not per_sample:
            woff, wsize, wshape = self._offsets[id(self._leaves[w].param)]
            wview = self._grad_flat[woff:woff + wsize].reshape(wshape)
            # The (out, in) weight gradient: the packed view itself for a
            # dense weight's first write, else a scratch that a masked layer
            # gathers from.
            sw = self._alloc((self._shapes[o][1], in_dim))
            live = None if mask is None else np.flatnonzero(mask)
            if b is not None:
                boff, bsize, bshape = self._offsets[id(self._leaves[b].param)]
                bview = self._grad_flat[boff:boff + bsize].reshape(bshape)
                sb = self._alloc(bshape)

            def step():
                if not written[o]:
                    return
                g = grads[o]
                if b is not None:
                    # First write per sweep lands directly in the flat-grad
                    # view (no memset, no extra add pass); only shared
                    # parameters take the accumulate branch.
                    if written[b]:
                        np.sum(g, axis=0, out=sb)
                        np.add(bview, sb, out=bview)
                    else:
                        np.sum(g, axis=0, out=bview)
                        written[b] = True
                if written[w]:
                    np.matmul(g.T, vals[src], out=sw)
                    np.add(wview, sw if mask is None else sw[mask], out=wview)
                elif mask is None:
                    np.matmul(g.T, vals[src], out=wview)
                    written[w] = True
                else:
                    np.matmul(g.T, vals[src], out=sw)
                    np.take(sw.reshape(-1), live, out=wview, mode="clip")
                    written[w] = True
                if x_rec:
                    np.matmul(g, weff(), out=scr[sx])
                    acc_src(scr[sx])

            return step

        # Per-sample: stop before parameter accumulation — the layer's
        # inputs and output adjoints are its share of the factored O.
        woff = self._offsets[id(self._leaves[w].param)][0]
        boff = self._offsets[id(self._leaves[b].param)][0] if b is not None else None
        shape = (self._shapes[o][1], in_dim)
        self._ps_factors.append((LinearFactor(shape, woff, boff, mask), src, o))

        def step():
            if not written[o]:
                grads[o].fill(0.0)  # off the seeded path: a zero factor
            elif x_rec:
                np.matmul(grads[o], weff(), out=scr[sx])
                acc_src(scr[sx])

        return step

    def _generic_backward(self, node, rec, per_sample):
        vals, grads, scr = self._vals, self._grads, self._scratch
        written = self._written
        o = node.slot
        op = node.op
        ins = node.inputs
        site = node.call_site
        led = o in self._led

        def guard(fn):
            def step():
                if written[o]:
                    fn()

            return step

        if op == "reshape":
            (a,) = ins
            in_shape = self._shapes[a]
            acc = self._acc(a, in_shape, per_sample, site)
            reshape = _reshaper(in_shape, a in self._led)
            return guard(lambda: acc(reshape(grads[o])))

        if op == "sum":
            (a,) = ins
            in_shape = self._shapes[a]
            axis, keepdims = node.attrs["axis"], node.attrs["keepdims"]
            axes = _norm_axes(axis, len(in_shape))
            if per_sample and 0 in axes:
                raise TraceError(
                    f"per-sample compilation cannot sum over the batch axis "
                    f"(recorded at {site})"
                )
            keep_shape = tuple(1 if i in axes else d for i, d in enumerate(in_shape))
            reshape = _reshaper(keep_shape, a in self._led)
            acc = self._acc(a, in_shape, per_sample, site)
            return guard(lambda: acc(reshape(grads[o])))

        if op == "bernoulli_log_prob":
            z, t = ins
            if z not in rec:
                return None
            sig = self._aux[node.index]["sig"]
            si = self._scratch_buf(node.shape, led=led)
            acc = self._acc(z, node.shape, per_sample, site)

            def fb():
                s = scr[si]
                np.subtract(vals[t], scr[sig], out=s)
                np.multiply(s, grads[o], out=s)
                acc(s)

            return guard(fb)

        if op == "matmul":
            a, b = ins
            if per_sample and self._rec.get(b, False):
                raise TraceError(
                    f"per-sample compilation cannot differentiate the "
                    f"batch-contracting operand of matmul at {site}"
                )
            fns = []
            if self._rec.get(a, False):
                sa_shape = np.broadcast_shapes(
                    node.shape[:-2], self._shapes[b][:-2]
                ) + (node.shape[-2], self._shapes[b][-2])
                sa = self._scratch_buf(sa_shape, led=led)
                acc_a = self._acc(a, sa_shape, per_sample, site)

                def fa():
                    np.matmul(grads[o], np.swapaxes(vals[b], -1, -2), out=scr[sa])
                    acc_a(scr[sa])

                fns.append(fa)
            if self._rec.get(b, False):
                sb_shape = np.broadcast_shapes(
                    node.shape[:-2], self._shapes[a][:-2]
                ) + (self._shapes[a][-1], node.shape[-1])
                # 2-D: the rows are contracted away; deeper, axis 0 is the batch
                sb = self._scratch_buf(sb_shape, led=led and len(node.shape) > 2)
                acc_b = self._acc(b, sb_shape, per_sample, site)

                def fb():
                    np.matmul(np.swapaxes(vals[a], -1, -2), grads[o], out=scr[sb])
                    acc_b(scr[sb])

                fns.append(fb)
            if len(fns) == 1:
                return guard(fns[0])
            return guard(lambda: (fns[0](), fns[1]()))

        # Elementwise family: one scratch of the output's shape per term.
        def term(target, compute):
            si = self._scratch_buf(node.shape, led=led)
            acc = self._acc(target, node.shape, per_sample, site)

            def fn():
                s = scr[si]
                compute(s)
                acc(s)

            return fn

        fns = []
        if op == "add":
            for a in rec:
                acc = self._acc(a, node.shape, per_sample, site)
                fns.append(lambda acc=acc: acc(grads[o]))
        elif op == "mul":
            a, b = ins
            if self._rec.get(a, False):
                fns.append(term(a, lambda s, b=b: np.multiply(grads[o], vals[b], out=s)))
            if self._rec.get(b, False):
                fns.append(term(b, lambda s, a=a: np.multiply(grads[o], vals[a], out=s)))
        elif op == "relu":
            (a,) = ins
            mi = self._scratch_buf(node.shape, bool, led)

            def frelu(s, a=a):
                np.greater(vals[a], 0.0, out=scr[mi])
                np.multiply(grads[o], scr[mi], out=s)

            fns.append(term(a, frelu))
        elif op == "log_cosh":
            (a,) = ins

            def flc(s, a=a):
                np.tanh(vals[a], out=s)
                np.multiply(s, grads[o], out=s)

            fns.append(term(a, flc))
        else:
            raise TraceError(
                f"op {op!r} (recorded at {site}) has no compiled backward kernel"
            )

        if not fns:
            return None
        if len(fns) == 1:
            return guard(fns[0])
        return guard(lambda: [fn() for fn in fns])

    # -- execution -------------------------------------------------------------------

    def _check_input(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.tape.input_shape:
            raise ValueError(
                f"compiled plan expects input shape {self.tape.input_shape}, "
                f"got {x.shape} — the compiler's guards should have re-traced"
            )
        return x

    def _replay(self, x: np.ndarray) -> np.ndarray:
        """The forward steps on every row of ``x`` (at most the arena's
        ``B``); returns the plan's own output buffer."""
        self._set_rows(len(x))
        for bind in self._binders:
            bind(x)
        for step in self._fsteps:
            step()
        self._forward_ready = True
        return self._vals[self.tape.out_slot]

    def forward(self, x, rows: DistinctRows | None = None) -> np.ndarray:
        """Replay the traced forward on a new batch of 0/1 rows; returns a
        new array, one value per row.

        The replay runs on the batch's distinct rows — ``rows``, when the
        caller has grouped it (``distinct_rows(x == 1)``), else grouped
        here — and scatters back. :meth:`gradient` and :meth:`per_sample`
        keep the grouping."""
        x = self._check_input(x)
        x, self._rows = group_configurations(x, x.shape[-1], rows)
        return self._rows.apply(self._replay, x)

    def _seed_backward(self, seed) -> None:
        # No memset: every sweep runs the same straight-line steps, so the
        # set of written parameter regions is identical each time — first
        # writes overwrite (copyto-first in the accumulators), and regions
        # no step ever touches keep their build-time zeros.
        if not self._forward_ready:
            raise RuntimeError("CompiledPlan backward invoked before forward")
        out_slot = self.tape.out_slot
        written = self._written
        for i in range(len(written)):
            written[i] = False
        np.copyto(self._grads[out_slot], seed)
        written[out_slot] = True

    def gradient(self, seed) -> np.ndarray:
        """Compiled adjoint sweep: seed the output adjoint (e.g. the VQMC
        surrogate's weights), one weight per row of the last forward's
        batch, and return the flat ``(d,)`` gradient. The sweep runs on the
        forward's distinct rows, each seeded with the sum of its copies'
        weights. The returned buffer is owned by the plan and overwritten
        by the next sweep."""
        seed = np.asarray(seed, dtype=np.float64)
        if seed.shape != self.out_shape:
            raise ValueError(f"seed shape {seed.shape} != output shape {self.out_shape}")
        self._seed_backward(self._rows.sums(seed))
        for step in self._bsteps:
            step()
        return self._grad_flat

    def per_sample(self, x, rows: DistinctRows | None = None):
        """Replay forward plus the batched per-sample adjoint: returns
        ``(log_psi (B,), O)`` with ``O`` the (B, d) matrix in factored form
        (:class:`~repro.nn.factored.FactoredO`), holding the distinct rows
        and the grouping (``rows`` as in :meth:`forward`). Its factors are
        views of the plan's buffers, overwritten by the next replay or
        sweep. Raises
        :class:`TraceError` for tapes that are not batch-diagonal (the
        error is sticky — callers should fall back to the interpreter for
        good)."""
        if self._ps_error is not None:
            raise self._ps_error
        if self._ps_steps is None:
            self._set_rows(self.batch)  # its buffers are placed at full size
            try:
                self._ps_steps = self._build_backward(per_sample=True)
                self._ps_ones = np.ones(self.out_shape)
            except TraceError as exc:
                self._ps_error = exc
                raise
        lp = self.forward(x, rows)
        self._seed_backward(self._ps_ones[: self._m])
        for step in self._ps_steps:
            step()
        vals, grads = self._vals, self._grads
        factors = [(layer, vals[src], grads[out]) for layer, src, out in self._ps_factors]
        return lp, FactoredO(factors[::-1], self.n_params, self._rows)

    # -- verification -----------------------------------------------------------------

    def selftest(self, rtol: float = 1e-9, atol: float = 1e-12) -> None:
        """Replay the batch with repeats :func:`halved` builds from the
        traced one on its distinct rows and compare the output, then replay
        every row of the traced batch and compare every live op output
        against the interpreter's recorded arrays; raises
        :class:`TapeDivergenceError` at the first mismatch."""
        x = self.tape.x
        out = next((n.ref for n in self._nodes if n.slot == self.tape.out_slot), None)
        if out is not None and self.batch > 1:
            got, want = self.forward(halved(x)), halved(out)
            if not np.allclose(got, want, rtol=rtol, atol=atol):
                raise TapeDivergenceError(
                    "compiled replay on a batch's distinct rows diverged from the "
                    f"interpreter by {float(np.max(np.abs(got - want))):.3e}"
                )
        self.forward(x, every_row(self.batch))
        for node in self._nodes:
            if node.ref is None:
                continue
            got = self._vals[node.slot]
            if not np.allclose(got, node.ref, rtol=rtol, atol=atol):
                diff = float(np.max(np.abs(np.asarray(got) - node.ref)))
                raise TapeDivergenceError(
                    f"compiled replay diverged from the interpreter by {diff:.3e}",
                    op_index=node.index, op=node.op, call_site=node.call_site,
                )


class InterpretedPlan:
    """The degenerate plan: :class:`CompiledPlan`'s three calls, run by the
    interpreter on ``model`` — what :meth:`StepCompiler.plan` hands out
    when a step is not compiled, so drivers execute one code path. Like
    the compiled plan, it evaluates a batch's distinct rows once.

    :meth:`gradient` assumes the caller zeroed the parameter gradients
    since the last sweep (``VQMC.step`` does, once per step).
    """

    span = "jit.interpret"

    def __init__(self, model):
        self.model = model
        self._log_psi = None  # graph-carrying output of the last forward()
        self._rows: DistinctRows | None = None  # its grouping

    def forward(self, x, rows: DistinctRows | None = None) -> np.ndarray:
        """``log_psi(x)`` values; the graph is kept for :meth:`gradient`.
        ``rows`` as in :meth:`CompiledPlan.forward`."""
        x, self._rows = group_configurations(x, np.shape(x)[-1], rows)

        def run(batch):
            self._log_psi = self.model.log_psi(batch)
            return self._log_psi.data

        return self._rows.apply(run, x)

    def gradient(self, seed) -> np.ndarray:
        """Backpropagate the surrogate ``(log_psi * seed).sum()`` through
        the last :meth:`forward`'s graph (freed here); ``seed`` as in
        :meth:`CompiledPlan.gradient`."""
        if self._log_psi is None:
            raise RuntimeError("InterpretedPlan backward invoked before forward")
        seed = np.asarray(seed, dtype=np.float64)
        out_shape = self._rows.inverse.shape
        if seed.shape != out_shape:
            raise ValueError(f"seed shape {seed.shape} != output shape {out_shape}")
        log_psi, self._log_psi = self._log_psi, None
        (log_psi * self._rows.sums(seed)).sum().backward(free_graph=True)
        return self.model.flat_grad()

    def per_sample(self, x, rows: DistinctRows | None = None):
        """``(log_psi (B,), O (B, d))`` from ``model.log_psi_and_grads`` on
        the distinct rows. ``O`` is factored where the model supplies that
        form, and then holds the distinct rows and the grouping; an array
        ``O`` is scattered back to one row per sample."""
        x, rows = group_configurations(x, np.shape(x)[-1], rows)
        lp, o = self.model.log_psi_and_grads(x[rows.first])
        if isinstance(o, FactoredO):
            return lp[rows.inverse], FactoredO(o.factors, o.shape[1], rows)
        return lp[rows.inverse], np.asarray(o)[rows.inverse]
