"""Guarded step compilation: trace once, replay until a guard fails.

:class:`StepCompiler` owns the trace → fuse → plan pipeline for one model
and the policy of *whether* a step is compiled. Drivers call
:meth:`StepCompiler.plan` once per step and execute whatever it returns:

- ``mode='off'`` → the :class:`~repro.jit.plan.InterpretedPlan`;
- ``mode='auto'`` → a :class:`~repro.jit.plan.CompiledPlan`, or the
  interpreted plan once the path (``'autograd'`` / ``'per_sample'``) has
  proved untraceable — the reason is kept in :attr:`StepCompiler.fallbacks`,
  ``jit.fallback`` is counted once, and compilation is never re-attempted;
- ``mode='on'`` → a compiled plan, or the :class:`TraceError` /
  :class:`TapeDivergenceError` that prevented one.

Each call to :meth:`plan_for` checks the current **guard key** — input
shape and dtype plus the parameter structure (object identity, shape,
dtype per parameter) — against the cached plan:

- key matches → cache hit, replay the existing plan (parameter *values*
  are read live from ``Parameter.data``, so optimizer updates never miss);
- key differs → guard miss, transparently re-trace and re-compile.

Every freshly built plan is verified before first use: the forward replay
is compared node-by-node against the interpreter's traced activations, and
the compiled gradient against an autograd backward on the traced graph;
then the traced batch with repeats (:func:`~repro.jit.plan.halved`) is
replayed and swept on its distinct rows and compared against the same
batch on every row.
Divergence raises :class:`TapeDivergenceError` with the offending op index
and call site. With ``verify_replay=True`` the comparison re-runs on
*every* replay (slow; for tests and debugging data-dependent control flow).

Metrics (when a registry is attached): counters ``jit.trace``,
``jit.cache_hit``, ``jit.guard_miss``, ``jit.fallback``; gauge
``jit.arena_bytes``.
"""

from __future__ import annotations

import numpy as np

from repro.jit.errors import TapeDivergenceError, TraceError
from repro.jit.plan import CompiledPlan, InterpretedPlan, halved
from repro.jit.tape import trace
from repro.utils.rows import every_row

__all__ = ["StepCompiler"]

#: compiled vs interpreted agreement bound asserted after every (re)trace —
#: fusion may reorder float ops, so bit-identity is not guaranteed, but the
#: kernels mirror the interpreter's stable formulas closely enough that the
#: test suite pins this at 1e-10.
VERIFY_RTOL = 1e-9
VERIFY_ATOL = 1e-12


class StepCompiler:
    """Trace-and-replay compiler for a model's ``log_psi`` hot path.

    Parameters
    ----------
    model:
        The wavefunction; the traced function is ``model.log_psi``.
    metrics:
        Optional :class:`repro.obs.Metrics` registry for cache-hit /
        guard-miss / arena-size instrumentation.
    tracer:
        Optional :class:`repro.obs.Tracer`; tracing and build-time
        verification run inside a ``jit.trace`` span.
    verify_replay:
        Compare every replay against a fresh interpreted run (slow).

    Not thread-safe: use one compiler per driver rank.
    """

    def __init__(self, model, metrics=None, tracer=None, verify_replay=False):
        self.model = model
        self.metrics = metrics
        self.tracer = tracer
        self.verify_replay = verify_replay
        self._fn = model.log_psi
        self._plan: CompiledPlan | None = None
        self._guard = None
        self._interpreted = InterpretedPlan(model)
        self.stats = {"traces": 0, "cache_hits": 0, "guard_misses": 0}
        #: why a gradient path ('autograd' / 'per_sample') stopped being
        #: compiled under ``mode='auto'``; sticky for the compiler's life.
        self.fallbacks: dict[str, str] = {}

    # -- guards ------------------------------------------------------------------

    def _check_overrides(self) -> None:
        """A compiled plan replays the *class* implementation captured at
        trace time; an instance-level override of an amplitude method (tests
        and ablations monkeypatch these) would be silently ignored, so
        refuse to compile such models."""
        d = getattr(self.model, "__dict__", {})
        for name in ("log_psi", "log_psi_and_grads", "forward"):
            if name in d:
                raise TraceError(
                    f"model instance overrides {name!r}; compilation traces "
                    "the class implementation and would ignore the override"
                )

    def _guard_key(self, x: np.ndarray):
        return (
            x.shape,
            x.dtype,
            tuple(
                (id(p), p.data.shape, p.data.dtype) for p in self.model.parameters()
            ),
        )

    def _count(self, name: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc()

    # -- compilation --------------------------------------------------------------

    def plan(self, x, per_sample: bool, mode: str = "auto"):
        """The plan that executes this step's gradient phase on batch ``x``:
        ``forward`` + ``gradient`` (scalar adjoint sweep), or ``per_sample``
        (O-matrix in factored form) when ``per_sample`` is set. See the module
        docstring for what each ``mode`` returns."""
        path = "per_sample" if per_sample else "autograd"
        if mode == "off" or path in self.fallbacks:
            return self._interpreted
        try:
            return self.per_sample_plan(x) if per_sample else self.plan_for(x)
        except (TraceError, TapeDivergenceError) as exc:
            if mode == "on":
                raise
            self.fallbacks[path] = str(exc)
            self._count("jit.fallback")
            return self._interpreted

    def plan_for(self, x) -> CompiledPlan:
        """Return a verified plan for batch ``x``, re-tracing on guard miss.

        Raises :class:`TraceError` when the step cannot be compiled and
        :class:`TapeDivergenceError` when verification fails.
        """
        self._check_overrides()
        x = np.asarray(x)
        key = self._guard_key(x)
        if self._plan is not None and key == self._guard:
            self.stats["cache_hits"] += 1
            self._count("jit.cache_hit")
            if self.verify_replay:
                self._plan = self._verified_replay_plan(self._plan, x)
            return self._plan
        if self._plan is not None:
            self.stats["guard_misses"] += 1
            self._count("jit.guard_miss")
        self._plan = self._compile(x)
        self._guard = key
        return self._plan

    def per_sample_plan(self, x) -> CompiledPlan:
        """Like :meth:`plan_for`, but additionally requires (and eagerly
        builds) the per-sample sweep behind the factored O-matrix."""
        plan = self.plan_for(x)
        if plan._ps_error is not None:
            raise plan._ps_error
        if plan._ps_steps is None:
            # Build and verify the per-sample sweep on the traced batch,
            # every row of it, then on a batch with repeats.
            x = plan.tape.x
            for batch, rows in ((x, every_row(len(x))), (halved(x), None)):
                lp, o = plan.per_sample(batch, rows)
                self._verify_per_sample(plan, lp, o)
        return plan

    def _compile(self, x: np.ndarray) -> CompiledPlan:
        span = (
            self.tracer.span("jit.trace", batch=int(np.asarray(x).shape[0]))
            if self.tracer is not None
            else _null_ctx()
        )
        with span:
            tape = trace(self._fn, x)
            plan = CompiledPlan(tape, self.model.parameters())
            plan.selftest()
            self._verify_gradient(plan)
            tape.release_refs()
        self.stats["traces"] += 1
        self._count("jit.trace")
        if self.metrics is not None:
            self.metrics.gauge("jit.arena_bytes").set(plan.arena_bytes)
        return plan

    # -- verification --------------------------------------------------------------

    def _verify_gradient(self, plan: CompiledPlan) -> None:
        """Compare the compiled adjoint sweep against an autograd backward
        on the traced graph (then free that graph), and the sweep over a
        batch's distinct rows against the sweep over all of its rows."""
        tape = plan.tape
        if tape.out is None or not tape.out.requires_grad:
            return
        rng = np.random.default_rng(0)
        seed = rng.standard_normal(plan.out_shape)
        self.model.zero_grad()
        tape.out.backward(
            seed if seed.shape != () else None, free_graph=True
        )
        want = self.model.flat_grad()
        self.model.zero_grad()
        x = tape.x
        plan.forward(x, every_row(len(x)))
        _check_gradient(plan.gradient(seed), want, "autograd")
        if len(x) > 1:
            # halved(x) takes traced row i // 2 as its row i: its sweep with
            # ``seed`` is the traced batch's with the seeds summed that way
            summed = np.bincount(np.arange(len(x)) // 2, weights=seed, minlength=len(x))
            want = plan.gradient(summed).copy()
            plan.forward(halved(x))
            _check_gradient(plan.gradient(seed), want, "the sweep over every row")

    def _verify_per_sample(self, plan: CompiledPlan, lp, o) -> None:
        """Check the factored O-matrix against the scalar sweep contracted
        with a probe vector — ``probe @ O == gradient(probe)`` — and its
        Gram matrix against itself: ``probeᵀ(O Oᵀ)probe == ‖probe @ O‖²``."""
        rng = np.random.default_rng(1)
        probe = rng.standard_normal(plan.out_shape)
        contracted = probe @ o
        quadratic = probe @ o.gram() @ probe
        direct = plan.gradient(probe)  # overwrites the buffers ``o`` views
        if not np.allclose(contracted, direct, rtol=VERIFY_RTOL, atol=1e-10):
            raise TapeDivergenceError(
                "per-sample O-matrix disagrees with the scalar adjoint sweep "
                f"(max |Δ| = {np.max(np.abs(contracted - direct)):.3e})"
            )
        if not np.isclose(quadratic, contracted @ contracted, rtol=VERIFY_RTOL, atol=1e-10):
            raise TapeDivergenceError(
                "Gram matrix from layer statistics disagrees with O Oᵀ "
                f"(probe form {quadratic:.17g} against {contracted @ contracted:.17g})"
            )

    def _verified_replay_plan(self, plan: CompiledPlan, x) -> CompiledPlan:
        """``verify_replay`` mode: replay, then re-run the interpreter on
        the same batch and localise any drift to the first divergent op."""
        got = plan.forward(x)
        from repro.tensor.tensor import no_grad

        with no_grad():
            want = self._fn(np.asarray(x, dtype=np.float64)).data
        if np.allclose(got, want, rtol=VERIFY_RTOL, atol=VERIFY_ATOL):
            return plan
        # Drift: re-trace to find where the recorded program and the live
        # program first disagree, against a replay of every row.
        plan.forward(x, every_row(len(x)))
        fresh = trace(self._fn, x)
        old_ops = plan.tape.ops
        for i, new_op in enumerate(fresh.ops):
            if i >= len(old_ops):
                break
            old = old_ops[i]
            if plan._vals[old.slot] is None:
                continue  # folded into a fused node; checked via its output
            if (old.op, old.inputs, old.shape) != (new_op.op, new_op.inputs, new_op.shape):
                raise TapeDivergenceError(
                    f"traced program changed: op #{i} was {old.op!r}, "
                    f"interpreter now runs {new_op.op!r}",
                    op_index=i, op=new_op.op, call_site=new_op.call_site,
                )
            if not np.allclose(plan._vals[old.slot], new_op.ref,
                               rtol=VERIFY_RTOL, atol=VERIFY_ATOL):
                raise TapeDivergenceError(
                    "guarded replay drifted from the interpreter",
                    op_index=i, op=old.op, call_site=old.call_site,
                )
        raise TapeDivergenceError(
            "guarded replay drifted from the interpreter "
            f"(op count {len(old_ops)} -> {len(fresh.ops)})",
            op_index=min(len(old_ops), len(fresh.ops)),
        )


def _check_gradient(got, want, against: str) -> None:
    if not np.allclose(got, want, rtol=VERIFY_RTOL, atol=VERIFY_ATOL):
        idx = int(np.argmax(np.abs(got - want)))
        raise TapeDivergenceError(
            f"compiled gradient diverged from {against} "
            f"(max |Δ| = {np.max(np.abs(got - want)):.3e} at coordinate {idx})"
        )


class _null_ctx:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False
