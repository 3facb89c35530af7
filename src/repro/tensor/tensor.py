"""The :class:`Tensor` class: a numpy array with a backward graph.

Design notes
------------
- Closure-based tape: each op attaches a ``_backward`` closure to its output
  that scatters the output's gradient into the inputs' ``grad`` buffers.
  ``Tensor.backward`` runs the closures in reverse topological order.
- Broadcasting: binary ops broadcast like numpy; gradients are un-broadcast
  by summing over the broadcast axes (:func:`_unbroadcast`).
- Gradients accumulate (+=), so a tensor used twice receives both paths.
- ``no_grad``: inside the context no graph is recorded, matching the
  inference/sampling hot paths where autograd overhead would be pure waste.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "InPlaceMutationError",
    "NonFiniteError",
    "graph_sanitizer_state",
    "set_graph_sanitizer",
    "tape_recorder_state",
    "set_tape_recorder",
]

# Thread-local: the thread-backed distributed runtime runs one rank per
# thread, and one rank sampling under no_grad must not disable recording
# for a rank that is mid-backward.
_STATE = threading.local()


class InPlaceMutationError(RuntimeError):
    """A tensor recorded in a backward graph was mutated before backward.

    Raised by the graph sanitizer
    (:class:`repro.analysis.graph_sanitizer.GraphSanitizer`): the backward
    closures alias the buffers they saw at record time, so an in-place
    update between forward and backward corrupts gradients silently.
    """


class NonFiniteError(RuntimeError):
    """An op produced NaN/Inf from all-finite inputs (first origin).

    Raised (or recorded, per policy) by the graph sanitizer at the op that
    *introduced* the non-finite values, instead of wherever they later
    surface as a diverged loss.
    """


# The active graph-sanitizer state, per thread (one rank per thread in the
# threaded distributed backend — each rank opts in independently). The
# engine only duck-calls ``state.on_node(out, parents, recorded)`` and
# ``state.verify(node)``; the state object itself lives in
# :mod:`repro.analysis.graph_sanitizer`, keeping the engine import-free.
_SANITIZER = threading.local()


def graph_sanitizer_state():
    """The thread's active sanitizer state, or None."""
    return getattr(_SANITIZER, "state", None)


def set_graph_sanitizer(state) -> None:
    """Install (or clear, with None) the thread's sanitizer state."""
    _SANITIZER.state = state


# The active tape recorder, per thread. The trace-and-fuse compiler
# (:mod:`repro.jit`) installs a recorder for ONE interpreted step; the
# engine duck-calls ``state.on_op(out, parents, op, attrs, recorded)`` for
# every node built by :meth:`Tensor._make`, which is exactly the
# information needed to snapshot the step's op sequence into a
# :class:`repro.jit.StepTape`. Like the sanitizer, the state object lives
# outside the engine so ``repro.tensor`` stays import-free.
_RECORDER = threading.local()


def tape_recorder_state():
    """The thread's active tape recorder, or None."""
    return getattr(_RECORDER, "state", None)


def set_tape_recorder(state) -> None:
    """Install (or clear, with None) the thread's tape recorder."""
    _RECORDER.state = state


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the ``with`` block (per-thread)."""
    prev = is_grad_enabled()
    _STATE.grad_enabled = False
    try:
        yield
    finally:
        _STATE.grad_enabled = prev


def is_grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over axes that were added or expanded by broadcasting."""
    if grad.shape == shape:
        return grad
    # Remove leading axes numpy prepended.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _as_array(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    return arr


class Tensor:
    """A numpy array with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like; stored as ``float64``.
    requires_grad:
        Whether gradients should flow into this tensor. Leaf tensors with
        ``requires_grad=True`` receive a ``.grad`` array after ``backward``.
    name:
        Optional label used in error messages and graph dumps.
    """

    __slots__ = (
        "data",
        "grad",
        "requires_grad",
        "_backward",
        "_parents",
        "name",
        "_version",
        "_sanitize",
        # Weakref support: lifetime tests (and leak detectors) observe graph
        # release after ``backward(free_graph=True)`` without pinning nodes.
        "__weakref__",
    )

    def __init__(self, data, requires_grad: bool = False, name: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name
        # Buffer version counter: tracked in-place mutators (optimizer
        # steps, parameter loading) bump it via bump_version(); the graph
        # sanitizer snapshots it per recorded op and additionally
        # fingerprints the buffer to catch *untracked* mutation.
        self._version = 0
        self._sanitize = None

    @property
    def version(self) -> int:
        """Buffer version: incremented by every tracked in-place mutation."""
        return self._version

    def bump_version(self) -> None:
        """Declare a tracked in-place mutation of ``data``.

        Every whitelisted mutator (optimizers, ``Module`` parameter
        loading) calls this after updating ``data`` in place, so the graph
        sanitizer can tell a *tracked-but-illegal* mutation (version
        changed while the tensor sat in a live graph) from an untracked one
        (buffer contents changed behind the counter's back).
        """
        self._version += 1

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
        op: str = "",
        attrs: dict | None = None,
    ) -> "Tensor":
        """Build an op output node; record graph only if grad is enabled.

        ``op`` names the primitive (``"add"``, ``"matmul"``, ...) and
        ``attrs`` carries its non-tensor arguments (axes, exponents, index
        objects). Both are only observed by an installed tape recorder
        (:func:`set_tape_recorder`) — the interpreted path never reads
        them, so the metadata costs nothing when no trace is running.
        """
        needs = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=needs)
        if needs:
            out._parents = tuple(parents)

            def _bw() -> None:
                assert out.grad is not None
                backward(out.grad)

            out._backward = _bw
        state = graph_sanitizer_state()
        if state is not None:
            state.on_node(out, parents, recorded=needs)
        recorder = tape_recorder_state()
        if recorder is not None:
            recorder.on_op(out, parents, op, attrs, recorded=needs)
        return out

    def _accum(self, grad: np.ndarray) -> None:
        """Accumulate ``grad`` into this tensor's gradient buffer."""
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # -- basic protocol -------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{label})"

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # -- backward pass ---------------------------------------------------------

    def backward(
        self, grad: np.ndarray | None = None, free_graph: bool = False
    ) -> None:
        """Backpropagate from this tensor.

        ``grad`` is the seed gradient. For scalar outputs (``size == 1``)
        it defaults to ones — the usual dL/dL = 1. For non-scalar outputs
        an explicit seed is REQUIRED: the old implicit-ones default
        silently differentiated ``out.sum()`` instead of ``out``, which
        reads like a bug at every call site that relied on it. Pass
        ``np.ones_like(t.data)`` to get the summed behaviour on purpose.

        ``free_graph=True`` drops every visited node's ``_parents`` and
        ``_backward`` closure after the sweep, so the graph — and every
        intermediate activation those closures pin — becomes collectible
        immediately instead of surviving until the next step rebuilds it.
        The freed graph cannot be backpropagated again; leaf ``.grad``
        buffers are untouched. :meth:`repro.core.vqmc.VQMC.step` passes it
        by default.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None and self.data.size != 1:
            raise RuntimeError(
                f"backward() on a non-scalar (shape {self.data.shape}) requires "
                "an explicit seed gradient; the implicit all-ones seed summed "
                "the output silently — pass grad=np.ones_like(t.data) if that "
                "is what you mean, or reduce the output first"
            )
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        # Iterative DFS (graphs from long sampling loops can be deep).
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))

        self.grad = np.ones_like(self.data) if grad is None else _as_array(grad)
        if self.grad.shape != self.data.shape:
            raise ValueError(
                f"seed gradient shape {self.grad.shape} != tensor shape {self.data.shape}"
            )
        state = graph_sanitizer_state()
        for node in reversed(topo):
            if node._backward is not None:
                if state is not None:
                    state.verify(node)
                node._backward()
        if free_graph:
            for node in topo:
                if node._parents or node._backward is not None:
                    node._parents = ()
                    node._backward = None

    # -- arithmetic -------------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data + other.data

        def bw(g: np.ndarray) -> None:
            self._accum(_unbroadcast(g, self.shape))
            other._accum(_unbroadcast(g, other.shape))

        return Tensor._make(out_data, (self, other), bw, "add")

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data * other.data

        def bw(g: np.ndarray) -> None:
            self._accum(_unbroadcast(g * other.data, self.shape))
            other._accum(_unbroadcast(g * self.data, other.shape))

        return Tensor._make(out_data, (self, other), bw, "mul")

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        def bw(g: np.ndarray) -> None:
            self._accum(-g)

        return Tensor._make(-self.data, (self,), bw, "neg")

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        out_data = self.data / other.data

        def bw(g: np.ndarray) -> None:
            self._accum(_unbroadcast(g / other.data, self.shape))
            other._accum(
                _unbroadcast(-g * self.data / (other.data**2), other.shape)
            )

        return Tensor._make(out_data, (self, other), bw, "truediv")

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        out_data = self.data**exponent

        def bw(g: np.ndarray) -> None:
            self._accum(g * exponent * self.data ** (exponent - 1))

        return Tensor._make(out_data, (self,), bw, "pow", {"exponent": exponent})

    def __matmul__(self, other) -> "Tensor":
        other = self._coerce(other)
        if self.ndim < 2 or other.ndim < 2:
            raise ValueError(
                "matmul requires >=2-D operands; use reshape for vectors "
                f"(got {self.shape} @ {other.shape})"
            )
        out_data = self.data @ other.data

        def bw(g: np.ndarray) -> None:
            ga = g @ np.swapaxes(other.data, -1, -2)
            gb = np.swapaxes(self.data, -1, -2) @ g
            self._accum(_unbroadcast(ga, self.shape))
            other._accum(_unbroadcast(gb, other.shape))

        return Tensor._make(out_data, (self, other), bw, "matmul")

    # -- elementwise nonlinearities ------------------------------------------------

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(g * out_data)

        return Tensor._make(out_data, (self,), bw, "exp")

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(g / self.data)

        return Tensor._make(out_data, (self,), bw, "log")

    def sqrt(self) -> "Tensor":
        out_data = np.sqrt(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(g * 0.5 / out_data)

        return Tensor._make(out_data, (self,), bw, "sqrt")

    def abs(self) -> "Tensor":
        out_data = np.abs(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(g * np.sign(self.data))

        return Tensor._make(out_data, (self,), bw, "abs")

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(g * (1.0 - out_data**2))

        return Tensor._make(out_data, (self,), bw, "tanh")

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def bw(g: np.ndarray) -> None:
            self._accum(g * mask)

        return Tensor._make(out_data, (self,), bw, "relu")

    def sigmoid(self) -> "Tensor":
        # Numerically stable split over sign.
        x = self.data
        out_data = np.empty_like(x)
        pos = x >= 0
        out_data[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out_data[~pos] = ex / (1.0 + ex)

        def bw(g: np.ndarray) -> None:
            self._accum(g * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), bw, "sigmoid")

    def log_cosh(self) -> "Tensor":
        """Stable ``log(cosh(x)) = |x| + log1p(exp(-2|x|)) - log 2``.

        This is the RBM's ``Lncoshsum`` building block; the naive
        ``np.log(np.cosh(x))`` overflows already at |x| ≈ 710.
        """
        ax = np.abs(self.data)
        out_data = ax + np.log1p(np.exp(-2.0 * ax)) - np.log(2.0)
        th = np.tanh(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(g * th)

        return Tensor._make(out_data, (self,), bw, "log_cosh")

    def log1p(self) -> "Tensor":
        out_data = np.log1p(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(g / (1.0 + self.data))

        return Tensor._make(out_data, (self,), bw, "log1p")

    def expm1(self) -> "Tensor":
        out_data = np.expm1(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(g * (out_data + 1.0))

        return Tensor._make(out_data, (self,), bw, "expm1")

    def sin(self) -> "Tensor":
        out_data = np.sin(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(g * np.cos(self.data))

        return Tensor._make(out_data, (self,), bw, "sin")

    def cos(self) -> "Tensor":
        out_data = np.cos(self.data)

        def bw(g: np.ndarray) -> None:
            self._accum(-g * np.sin(self.data))

        return Tensor._make(out_data, (self,), bw, "cos")

    def clip(self, low: float | None = None, high: float | None = None) -> "Tensor":
        """Clamp values; gradient is passed through only inside the bounds
        (the subgradient convention used by deep-learning frameworks)."""
        out_data = np.clip(self.data, low, high)
        inside = np.ones_like(self.data, dtype=bool)
        if low is not None:
            inside &= self.data > low
        if high is not None:
            inside &= self.data < high

        def bw(g: np.ndarray) -> None:
            self._accum(g * inside)

        return Tensor._make(out_data, (self,), bw, "clip", {"low": low, "high": high})

    # -- reductions ------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def bw(g: np.ndarray) -> None:
            gg = g
            if not keepdims and axis is not None:
                gg = np.expand_dims(gg, axis)
            self._accum(np.broadcast_to(gg, self.shape).copy())

        return Tensor._make(
            out_data, (self,), bw, "sum", {"axis": axis, "keepdims": keepdims}
        )

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = (axis,) if isinstance(axis, int) else tuple(axis)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.max(axis=axis, keepdims=keepdims)

        def bw(g: np.ndarray) -> None:
            gg = g
            od = out_data
            if not keepdims and axis is not None:
                gg = np.expand_dims(gg, axis)
                od = np.expand_dims(od, axis)
            mask = self.data == od
            # Split gradient evenly across ties (numpy semantics don't define
            # a winner; even split keeps gradcheck happy away from ties).
            share = mask / mask.sum(axis=axis, keepdims=True)
            self._accum(np.broadcast_to(gg, self.shape) * share)

        return Tensor._make(
            out_data, (self,), bw, "max", {"axis": axis, "keepdims": keepdims}
        )

    # -- shape manipulation --------------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out_data = self.data.reshape(shape)
        orig = self.shape

        def bw(g: np.ndarray) -> None:
            self._accum(g.reshape(orig))

        return Tensor._make(out_data, (self,), bw, "reshape", {"shape": shape})

    def transpose(self, axes: tuple[int, ...] | None = None) -> "Tensor":
        out_data = self.data.transpose(axes)
        if axes is None:
            inv: tuple[int, ...] | None = None
        else:
            inv = tuple(np.argsort(axes))

        def bw(g: np.ndarray) -> None:
            self._accum(g.transpose(inv))

        return Tensor._make(out_data, (self,), bw, "transpose", {"axes": axes})

    def __getitem__(self, idx) -> "Tensor":
        out_data = self.data[idx]

        def bw(g: np.ndarray) -> None:
            buf = np.zeros_like(self.data)
            np.add.at(buf, idx, g)
            self._accum(buf)

        return Tensor._make(out_data, (self,), bw, "getitem", {"idx": idx})


def concatenate(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.concatenate``."""
    ts = list(tensors)
    out_data = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def bw(g: np.ndarray) -> None:
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            t._accum(g[tuple(sl)])

    return Tensor._make(out_data, ts, bw, "concatenate", {"axis": axis})


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Differentiable ``np.stack``."""
    ts = list(tensors)
    out_data = np.stack([t.data for t in ts], axis=axis)

    def bw(g: np.ndarray) -> None:
        for i, t in enumerate(ts):
            t._accum(np.take(g, i, axis=axis))

    return Tensor._make(out_data, ts, bw, "stack", {"axis": axis})


def minimum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise min; ties split the gradient evenly."""
    out_data = np.minimum(a.data, b.data)
    a_wins = a.data < b.data
    tie = a.data == b.data

    def bw(g: np.ndarray) -> None:
        ga = g * (a_wins + 0.5 * tie)
        gb = g * (~a_wins & ~tie) + g * 0.5 * tie
        a._accum(_unbroadcast(ga, a.shape))
        b._accum(_unbroadcast(gb, b.shape))

    return Tensor._make(out_data, (a, b), bw, "minimum")


def maximum(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise max; ties split the gradient evenly."""
    out_data = np.maximum(a.data, b.data)
    a_wins = a.data > b.data
    tie = a.data == b.data

    def bw(g: np.ndarray) -> None:
        ga = g * (a_wins + 0.5 * tie)
        gb = g * (~a_wins & ~tie) + g * 0.5 * tie
        a._accum(_unbroadcast(ga, a.shape))
        b._accum(_unbroadcast(gb, b.shape))

    return Tensor._make(out_data, (a, b), bw, "maximum")


def where(cond: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable ``np.where`` with a non-differentiable condition."""
    cond = np.asarray(cond, dtype=bool)
    out_data = np.where(cond, a.data, b.data)

    def bw(g: np.ndarray) -> None:
        a._accum(_unbroadcast(np.where(cond, g, 0.0), a.shape))
        b._accum(_unbroadcast(np.where(cond, 0.0, g), b.shape))

    return Tensor._make(out_data, (a, b), bw, "where", {"cond": cond})
