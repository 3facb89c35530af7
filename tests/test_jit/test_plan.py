"""Compiled replay correctness: plan vs interpreter, fusion, zero-alloc."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.jit import StepCompiler, TraceError
from repro.jit.fuse import FusedLinear
from repro.jit.plan import CompiledPlan, InterpretedPlan
from repro.models import MADE, RBM, MeanField, RNNWaveFunction
from repro.tensor import no_grad
from repro.tensor.tensor import set_tape_recorder, tape_recorder_state

TOL = dict(rtol=1e-9, atol=1e-10)  # the ISSUE's 1e-10 agreement bound


def _batch(n: int, b: int, seed: int = 1) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(b, n)).astype(np.float64)


def _interp_gradient(model, x, seed_vec):
    model.zero_grad()
    out = model.log_psi(x)
    out.backward(seed_vec, free_graph=True)
    grad = model.flat_grad()
    model.zero_grad()
    return out.data, grad


@st.composite
def made_cases(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    depth = draw(st.integers(min_value=1, max_value=2))
    widths = tuple(
        draw(st.integers(min_value=2, max_value=12)) for _ in range(depth)
    )
    batch = draw(st.integers(min_value=1, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    return n, widths, batch, seed


class TestReplayMatchesInterpreter:
    @settings(max_examples=25, deadline=None)
    @given(made_cases())
    def test_random_made_shapes_batches_and_perturbations(self, case):
        n, widths, batch, seed = case
        rng = np.random.default_rng(seed)
        model = MADE(n, hidden=widths, rng=rng)
        x = rng.integers(0, 2, size=(batch, n)).astype(np.float64)
        compiler = StepCompiler(model)
        plan = compiler.plan_for(x)

        # Two rounds: trace-time parameters, then an optimizer-style
        # in-place perturbation that must be picked up on cache hit.
        for round_ in range(2):
            seed_vec = rng.standard_normal(batch)
            want_f, want_g = _interp_gradient(model, x, seed_vec)
            got_f = plan.forward(x)
            got_g = plan.gradient(seed_vec).copy()
            np.testing.assert_allclose(got_f, want_f, **TOL)
            np.testing.assert_allclose(got_g, want_g, **TOL)

            lp_m, o_m = model.log_psi_and_grads(x)
            lp_c, o_c = compiler.per_sample_plan(x).per_sample(x)
            np.testing.assert_allclose(lp_c, lp_m, **TOL)
            np.testing.assert_allclose(o_c, o_m, **TOL)

            if round_ == 0:
                for p in model.parameters():
                    p.data += 0.05 * rng.standard_normal(p.data.shape)
                    p.bump_version()
        assert compiler.stats["traces"] == 1  # perturbation stayed a cache hit

    def test_rbm_per_sample_matches_hand_vectorised(self):
        model = RBM(8, hidden=12, rng=np.random.default_rng(3))
        x = _batch(8, 16)
        plan = StepCompiler(model).per_sample_plan(x)
        lp_m, o_m = model.log_psi_and_grads(x)
        lp_c, o_c = plan.per_sample(x)
        np.testing.assert_allclose(lp_c, lp_m, **TOL)
        np.testing.assert_allclose(o_c, o_m, **TOL)

    def test_forward_accepts_fresh_batches(self):
        model = MADE(6, hidden=8, rng=np.random.default_rng(0))
        x0 = _batch(6, 4, seed=1)
        plan = StepCompiler(model).plan_for(x0)
        for seed in (2, 3, 4):
            x = _batch(6, 4, seed=seed)
            with no_grad():
                want = model.log_psi(x).data
            np.testing.assert_allclose(plan.forward(x), want, **TOL)


class TestPlanMechanics:
    def test_fusion_produces_fused_linear_nodes(self):
        model = MADE(6, hidden=8, rng=np.random.default_rng(0))
        plan = StepCompiler(model).plan_for(_batch(6, 4))
        fused = [n for n in plan._nodes if isinstance(n, FusedLinear)]
        # MADE is masked-linear stacks: every layer should fuse.
        assert len(fused) == len(model.fc_layers)

    def test_selftest_passes_on_fresh_plan(self):
        model = MADE(6, hidden=8, rng=np.random.default_rng(0))
        plan = StepCompiler(model).plan_for(_batch(6, 4))
        plan.selftest()

    def test_arena_is_preallocated(self):
        model = MADE(6, hidden=8, rng=np.random.default_rng(0))
        plan = StepCompiler(model).plan_for(_batch(6, 4))
        assert plan.arena_bytes > 0

    def test_bad_input_shape_rejected(self):
        model = MADE(6, hidden=8, rng=np.random.default_rng(0))
        plan = StepCompiler(model).plan_for(_batch(6, 4))
        with pytest.raises(ValueError):
            plan.forward(_batch(6, 8))

    def test_gradient_seed_shape_checked(self):
        """One seed per row of the last forward, on the compiled and the
        interpreted plan alike: a scalar seed does not broadcast, and a
        wrong-length one is refused."""
        model = MADE(6, hidden=8, rng=np.random.default_rng(0))
        x = _batch(6, 4)
        for plan in (StepCompiler(model).plan_for(x), InterpretedPlan(model)):
            for seed, shape in ((0.5, r"\(\)"), (np.ones(7), r"\(7,\)")):
                plan.forward(x)
                message = rf"seed shape {shape} != output shape \(4,\)"
                with pytest.raises(ValueError, match=message):
                    plan.gradient(seed)

    def test_mean_field_compiles_scalar_path(self):
        model = MeanField(6, rng=np.random.default_rng(0))
        x = _batch(6, 4)
        compiler = StepCompiler(model)
        plan = compiler.plan_for(x)
        with no_grad():
            want = model.log_psi(x).data
        np.testing.assert_allclose(plan.forward(x), want, **TOL)


class _CountingRecorder:
    """Duck-typed tape recorder: counts every graph node the engine builds."""

    def __init__(self):
        self.count = 0

    def on_op(self, out, parents, op, attrs, recorded):
        self.count += 1


class TestZeroAllocationReplay:
    def test_steady_state_replay_builds_no_graph_nodes(self):
        model = MADE(8, hidden=10, rng=np.random.default_rng(0))
        x = _batch(8, 16)
        compiler = StepCompiler(model)
        plan = compiler.per_sample_plan(x)
        seed_vec = np.random.default_rng(2).standard_normal(16)
        # Warm up: lazy per-sample buffers are part of the build, not replay.
        plan.forward(x)
        plan.gradient(seed_vec)
        plan.per_sample(x)

        assert tape_recorder_state() is None
        rec = _CountingRecorder()
        set_tape_recorder(rec)
        try:
            for _ in range(3):
                plan.forward(x)
                plan.gradient(seed_vec)
                plan.per_sample(x)
        finally:
            set_tape_recorder(None)
        assert rec.count == 0, (
            f"steady-state replay constructed {rec.count} graph nodes"
        )

    def test_steady_state_replay_allocates_no_arena(self):
        model = MADE(8, hidden=10, rng=np.random.default_rng(0))
        x = _batch(8, 16)
        plan = StepCompiler(model).per_sample_plan(x)
        seed_vec = np.random.default_rng(2).standard_normal(16)
        plan.forward(x)
        plan.gradient(seed_vec)
        plan.per_sample(x)
        before = plan.arena_bytes
        for _ in range(5):
            plan.forward(x)
            plan.gradient(seed_vec)
            plan.per_sample(x)
        assert plan.arena_bytes == before


class TestPerSampleFallback:
    def test_untraceable_per_sample_raises_trace_error(self):
        # MeanField's scalar path compiles, but its per-sample sweep hits an
        # op family the batched adjoint does not support — the compiler must
        # surface that as TraceError so 'auto' mode can fall back cleanly.
        model = MeanField(6, rng=np.random.default_rng(0))
        x = _batch(6, 4)
        compiler = StepCompiler(model)
        compiler.plan_for(x)  # scalar path is fine
        with pytest.raises(TraceError):
            compiler.per_sample_plan(x)


#: every op a compiled plan holds after fusion; a kernel outside this set
#: serves no ansatz
COMPILED_OPS = frozenset(
    ("linear", "add", "mul", "matmul", "reshape", "sum", "relu", "log_cosh",
     "bernoulli_log_prob")
)

ANSATZE = {
    "made": lambda rng: MADE(6, hidden=8, rng=rng),
    "deep_made": lambda rng: MADE(6, hidden=[9, 7], rng=rng),
    "rbm": lambda rng: RBM(6, rng=rng),
    "mean_field": lambda rng: MeanField(6, rng=rng),
    "rnn": lambda rng: RNNWaveFunction(6, hidden=4, rng=rng),
}

_RNN_REASON = (
    r"op 'add' \(recorded at .*rnn\.py:\d+\) pairs each batch row with a row "
    r"of an operand not drawn from the batch; "
)

#: the fallback reason of each (ansatz, path) that runs interpreted; every
#: other pair compiles
FALLBACKS = {
    ("mean_field", "per_sample"): (
        r"per-sample compilation cannot differentiate the batch-contracting "
        r"operand of matmul at .*mean_field\.py:\d+$"
    ),
    ("rnn", "autograd"): _RNN_REASON,
    ("rnn", "per_sample"): _RNN_REASON,
}


class TestWhichAnsatzCompiles:
    @pytest.mark.parametrize("path", ["autograd", "per_sample"])
    @pytest.mark.parametrize("name", sorted(ANSATZE))
    def test_compiled_or_interpreted(self, name, path):
        compiler = StepCompiler(ANSATZE[name](np.random.default_rng(0)))
        plan = compiler.plan(_batch(6, 8), path == "per_sample", "auto")
        reason = FALLBACKS.get((name, path))
        if reason is None:
            assert isinstance(plan, CompiledPlan), compiler.fallbacks
            assert compiler.fallbacks == {}
            assert {node.op for node in plan._nodes} <= COMPILED_OPS
        else:
            assert isinstance(plan, InterpretedPlan)
            assert list(compiler.fallbacks) == [path]
            assert re.match(reason, compiler.fallbacks[path]), compiler.fallbacks
