"""Wire-protocol validation: specs, vocabularies, canonical model keys."""

from __future__ import annotations

import pytest

from repro.serve.protocol import (
    MAX_QUERY_BATCH,
    JobSpec,
    ProtocolError,
    QuerySpec,
)


class TestJobSpec:
    def test_defaults_round_trip(self):
        spec = JobSpec.from_json({})
        assert spec.problem == "tim" and spec.arch == "made"
        assert JobSpec.from_json(spec.to_json()) == spec

    def test_unknown_fields_rejected(self):
        with pytest.raises(ProtocolError, match="unknown job spec fields"):
            JobSpec.from_json({"probem": "tim"})  # typo must 400, not default

    @pytest.mark.parametrize(
        "field,value",
        [
            ("problem", "sudoku"),
            ("arch", "transformer"),
            ("sampler", "exact"),
            ("optimizer", "lbfgs"),
            ("n", 1),
            ("n", "eight"),
            ("iterations", 0),
            ("batch_size", 0),
            ("hidden", 0),
            ("hidden", True),
            ("inject_fault_at", 0),
        ],
    )
    def test_bad_values_rejected(self, field, value):
        with pytest.raises(ProtocolError):
            JobSpec.from_json({field: value})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ProtocolError):
            JobSpec.from_json({"n": True})

    def test_model_key_identity(self):
        a = JobSpec.from_json({"n": 10, "arch": "made", "seed": 3})
        b = JobSpec.from_json(
            {"n": 10, "arch": "made", "seed": 3, "iterations": 999, "priority": 5}
        )
        # Training-schedule fields are not part of the model's identity.
        assert a.model_key() == b.model_key()
        assert hash(a.model_key()) == hash(b.model_key())
        assert a.model_key() != a.model_key(checkpoint="ckpt.npz")
        assert a.model_key() != JobSpec.from_json({"n": 10, "seed": 4}).model_key()


class TestQuerySpec:
    def test_kind_argument_overrides_payload(self):
        spec = QuerySpec.from_json({"kind": "sample"}, kind="energy")
        assert spec.kind == "energy"  # the endpoint, not the body, decides

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="unknown query kind"):
            QuerySpec.from_json({"kind": "gradient"})

    def test_batch_cap(self):
        QuerySpec.from_json({"batch_size": MAX_QUERY_BATCH})
        with pytest.raises(ProtocolError, match="capped"):
            QuerySpec.from_json({"batch_size": MAX_QUERY_BATCH + 1})

    def test_job_id_must_be_string(self):
        with pytest.raises(ProtocolError):
            QuerySpec.from_json({"job_id": 7})

    def test_query_and_job_keys_agree(self):
        job = JobSpec.from_json({"n": 12, "arch": "made", "hidden": 8, "seed": 2})
        query = QuerySpec.from_json(
            {"n": 12, "arch": "made", "hidden": 8, "seed": 2}
        )
        assert query.model_key() == job.model_key()
