"""Trace-and-fuse compiler for the VQMC step hot path.

The interpreter in :mod:`repro.tensor` rebuilds and re-walks a Python
autograd graph on every optimisation step. For a fixed model and batch
shape that graph is the *same straight-line program* every time — so this
package records it once and replays it as preallocated NumPy:

- :mod:`repro.jit.tape` — capture the op sequence from ``Tensor._make``
  into an immutable :class:`StepTape`;
- :mod:`repro.jit.fuse` — collapse (masked) linear-layer chains into
  single fused nodes with closed-form backwards;
- :mod:`repro.jit.plan` — :class:`CompiledPlan`: buffer-arena replay,
  flat-gradient adjoint sweep and the per-sample O-matrix in factored
  form — and
  :class:`InterpretedPlan`, the same three calls run by the interpreter;
- :mod:`repro.jit.compiler` — :class:`StepCompiler`: guard keys
  (shape/dtype/parameter structure), transparent re-trace on miss,
  compiled-vs-interpreted verification, and the ``'auto'|'on'|'off'``
  policy (:meth:`StepCompiler.plan`) that picks which plan a step runs.

Drivers normally reach this through ``VQMC.step(compile='auto'|'on'|'off')``
rather than using the compiler directly. See ``docs/performance.md``
("Compiled step") for the tracing model and guard semantics.
"""

from repro.jit.compiler import StepCompiler
from repro.jit.errors import TapeDivergenceError, TraceError
from repro.jit.fuse import FusedLinear, fuse_tape
from repro.jit.plan import CompiledPlan, InterpretedPlan
from repro.jit.tape import StepTape, TapeOp, TapeRecorder, trace

__all__ = [
    "CompiledPlan",
    "FusedLinear",
    "InterpretedPlan",
    "StepCompiler",
    "StepTape",
    "TapeDivergenceError",
    "TapeOp",
    "TapeRecorder",
    "TraceError",
    "fuse_tape",
    "trace",
]
