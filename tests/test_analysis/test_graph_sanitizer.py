"""GraphSanitizer: in-place-mutation detection and NaN/Inf origin tracking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    GraphSanitizer,
    InPlaceMutationError,
    NonFiniteError,
)
from repro.tensor import Tensor

pytestmark = pytest.mark.analysis


def _loss(w: Tensor) -> Tensor:
    return (w * w).sum()


class TestCleanRuns:
    def test_clean_forward_backward_passes(self):
        w = Tensor(np.arange(4.0), requires_grad=True)
        with GraphSanitizer() as sanitizer:
            loss = _loss(w)
            loss.backward()
        np.testing.assert_allclose(w.grad, 2.0 * np.arange(4.0))
        assert sanitizer.nodes_recorded > 0
        assert sanitizer.nodes_verified > 0
        assert sanitizer.mutations_detected == 0
        assert sanitizer.nonfinite_origins == []

    def test_gradients_match_unsanitized_run(self):
        w1 = Tensor(np.linspace(-1.0, 1.0, 8), requires_grad=True)
        w2 = Tensor(np.linspace(-1.0, 1.0, 8), requires_grad=True)
        _loss(w1).backward()
        with GraphSanitizer():
            _loss(w2).backward()
        np.testing.assert_array_equal(w1.grad, w2.grad)

    def test_sanitizer_is_off_outside_context(self):
        w = Tensor(np.ones(3), requires_grad=True)
        with GraphSanitizer() as sanitizer:
            pass
        loss = _loss(w)
        w.data += 1.0  # would raise inside the context
        loss.backward()
        assert sanitizer.nodes_recorded == 0


class TestMutationDetection:
    def test_untracked_mutation_raises_at_backward(self):
        w = Tensor(np.ones(4), requires_grad=True)
        with GraphSanitizer():
            loss = _loss(w)
            w.data += 100.0  # raw ndarray mutation: no bump_version()
            with pytest.raises(InPlaceMutationError, match="untracked"):
                loss.backward()

    def test_tracked_mutation_raises_at_backward(self):
        w = Tensor(np.ones(4), requires_grad=True)
        with GraphSanitizer():
            loss = _loss(w)
            w.data += 100.0
            w.bump_version()  # tracked mutation: counter moves
            with pytest.raises(InPlaceMutationError, match="tracked"):
                loss.backward()

    def test_diagnostic_names_recording_site(self):
        w = Tensor(np.ones(4), requires_grad=True)
        with GraphSanitizer():
            loss = _loss(w)  # RECORD-SITE
            w.data[0] = -5.0
            with pytest.raises(InPlaceMutationError) as excinfo:
                loss.backward()
        assert "test_graph_sanitizer.py" in str(excinfo.value)

    def test_mutation_after_backward_is_fine(self):
        w = Tensor(np.ones(4), requires_grad=True)
        with GraphSanitizer() as sanitizer:
            _loss(w).backward()
            w.data += 1.0  # graph fully consumed: legal by contract
        assert sanitizer.mutations_detected == 0

    def test_full_buffer_fingerprint_catches_single_element(self):
        # The default strided sample can miss a lone mutated element in a
        # large buffer; sample=0 hashes everything.
        n = 10_000
        w = Tensor(np.ones(n), requires_grad=True)
        with GraphSanitizer(sample=0):
            loss = _loss(w)
            w.data[n // 3] = 7.0
            with pytest.raises(InPlaceMutationError):
                loss.backward()

    def test_check_mutation_false_disables_tracking(self):
        w = Tensor(np.ones(4), requires_grad=True)
        with GraphSanitizer(check_mutation=False) as sanitizer:
            loss = _loss(w)
            w.data += 1.0
            loss.backward()  # no snapshots, no verification
        assert sanitizer.nodes_recorded == 0


class TestNonFinite:
    def test_nan_origin_raises_at_the_producing_op(self):
        x = Tensor(np.array([1e308, 1.0]), requires_grad=True)
        with GraphSanitizer():
            with pytest.raises(NonFiniteError) as excinfo:
                with np.errstate(over="ignore"):
                    x * 10.0  # 1e309 overflows to inf: first non-finite op
        message = str(excinfo.value)
        assert "Inf" in message
        assert "test_graph_sanitizer.py" in message

    def test_record_mode_collects_origins_and_continues(self):
        x = Tensor(np.array([1e308, 1.0]), requires_grad=True)
        with GraphSanitizer(nonfinite="record") as sanitizer:
            with np.errstate(over="ignore"):
                y = x * 10.0
            z = y * 2.0  # already non-finite input: not a fresh origin
        assert len(sanitizer.nonfinite_origins) == 1
        origin = sanitizer.nonfinite_origins[0]
        assert origin.n_inf == 1 and origin.n_nan == 0
        assert origin.shape == (2,)
        assert "first produced" in origin.describe()
        assert np.isinf(z.data).any()

    def test_finite_runs_record_nothing(self):
        x = Tensor(np.linspace(0.1, 1.0, 5), requires_grad=True)
        with GraphSanitizer(nonfinite="record") as sanitizer:
            (x * 10.0).sum().backward()
        assert sanitizer.nonfinite_origins == []

    def test_check_finite_false_disables_origin_tracking(self):
        x = Tensor(np.array([1e308]), requires_grad=True)
        with GraphSanitizer(check_finite=False) as sanitizer:
            with np.errstate(over="ignore"):
                x * 10.0
        assert sanitizer.nonfinite_origins == []


class TestLifecycle:
    def test_nested_sanitizers_rejected(self):
        with GraphSanitizer():
            with pytest.raises(RuntimeError, match="already active"):
                with GraphSanitizer():
                    pass

    def test_state_cleared_after_exception(self):
        with pytest.raises(ValueError):
            with GraphSanitizer():
                raise ValueError("boom")
        # Context unwound: a fresh sanitizer must be installable.
        with GraphSanitizer():
            pass

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GraphSanitizer(nonfinite="explode")
        with pytest.raises(ValueError):
            GraphSanitizer(sample=-1)
