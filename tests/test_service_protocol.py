"""Protocol-layer tests for :mod:`repro.service.protocol`.

Every error path must produce a *typed* :class:`ServiceError` (stable
``code``, mapped HTTP status) — never a bare traceback — and the
request dataclasses must mirror the library's cache-digest parameters
exactly, which is what makes served estimates share persistent-cache
entries (and coalesce keys) with direct library calls.
"""

from __future__ import annotations

import json

import pytest

from repro.cache import estimate_digest
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import complete_graph
from repro.io import instance_to_dict
from repro.mechanisms.threshold import ApprovalThreshold
from repro.service.protocol import (
    HTTP_STATUS,
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    EstimateRequest,
    ExperimentRequest,
    PowerThreshold,
    ServiceError,
    build_mechanism,
    instance_pool,
    mechanism_pool,
    mechanism_spec,
    parse_body,
    parse_request,
)


def _instance(n: int = 16, seed: int = 0) -> ProblemInstance:
    comp = bounded_uniform_competencies(n, 0.35, seed=seed)
    return ProblemInstance(complete_graph(n), comp, alpha=0.05)


def _body(**overrides):
    body = {
        "v": PROTOCOL_VERSION,
        "op": "estimate",
        "instance": instance_to_dict(_instance()),
        "mechanism": {"name": "approval_threshold", "params": {"threshold": 2}},
        "rounds": 40,
        "seed": 1,
    }
    body.update(overrides)
    return body


def _raw(**overrides) -> bytes:
    return json.dumps(_body(**overrides)).encode()


class TestServiceError:
    def test_codes_map_to_http_statuses(self):
        for code, status in HTTP_STATUS.items():
            assert ServiceError(code, "x").http_status == status

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            ServiceError("nonsense", "x")

    def test_payload_shape(self):
        payload = ServiceError("queue_full", "busy").payload()
        assert payload == {
            "v": PROTOCOL_VERSION,
            "ok": False,
            "error": {"code": "queue_full", "message": "busy"},
        }


class TestParseBody:
    def test_valid_body_round_trips(self):
        assert parse_body(_raw())["op"] == "estimate"

    def test_malformed_json_is_typed(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_body(b'{"v": 1, "op": ')
        assert excinfo.value.code == "bad_json"
        assert excinfo.value.http_status == 400

    def test_non_utf8_is_bad_json(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_body(b"\xff\xfe\x00")
        assert excinfo.value.code == "bad_json"

    def test_non_object_body_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_body(b'[1, 2, 3]')
        assert excinfo.value.code == "bad_request"

    def test_unknown_schema_version(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_body(_raw(v=99))
        assert excinfo.value.code == "unsupported_version"
        assert "v1" in excinfo.value.message

    def test_missing_version(self):
        body = _body()
        del body["v"]
        with pytest.raises(ServiceError) as excinfo:
            parse_body(json.dumps(body).encode())
        assert excinfo.value.code == "unsupported_version"

    def test_oversized_payload(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_body(b"x" * 100, max_bytes=10)
        assert excinfo.value.code == "payload_too_large"
        assert excinfo.value.http_status == 413

    def test_default_limit_is_8mib(self):
        assert MAX_PAYLOAD_BYTES == 8 * 1024 * 1024

    def test_unknown_op(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_body(_raw(op="destroy"))
        assert excinfo.value.code == "bad_request"


class TestParseRequest:
    def test_valid_request(self):
        req = parse_request(parse_body(_raw()))
        assert isinstance(req, EstimateRequest)
        assert req.rounds == 40 and req.seed == 1
        assert req.exact_conditional is True
        # Existing callers still send the Monte Carlo engine key.
        legacy = parse_request(parse_body(_raw(engine="batch")))
        assert legacy.coalesce_key() == req.coalesce_key()

    def test_unknown_field_rejected(self):
        with pytest.raises(ServiceError) as excinfo:
            parse_request(parse_body(_raw(surprise=1)))
        assert excinfo.value.code == "bad_request"
        assert "surprise" in excinfo.value.message

    @pytest.mark.parametrize("field", ["instance", "mechanism"])
    def test_missing_required_field(self, field):
        body = _body()
        del body[field]
        with pytest.raises(ServiceError) as excinfo:
            parse_request(parse_body(json.dumps(body).encode()))
        assert excinfo.value.code == "bad_request"
        assert field in excinfo.value.message

    @pytest.mark.parametrize(
        "overrides",
        [
            {"rounds": 0},
            {"rounds": "many"},
            {"rounds": True},
            {"seed": -1},
            {"seed": 2**63},
            {"tie_policy": "RECOUNT"},
            {"engine": "quantum"},
            {"target_se": -0.1},
            {"target_se": "small"},
            {"exact_conditional": "yes"},
            {"max_rounds": 100},  # requires target_se
            {"instance": 7},
            {"instance": {"bogus": True}},
            {"mechanism": {"name": "mind_reader", "params": {}}},
            {"mechanism": {"name": "approval_threshold", "params": {}}},
            {"mechanism": {"name": "direct", "params": {"x": 1}}},
        ],
    )
    def test_invalid_fields_are_bad_request(self, overrides):
        with pytest.raises(ServiceError) as excinfo:
            parse_request(parse_body(_raw(**overrides)))
        assert excinfo.value.code == "bad_request"

    def test_experiment_request(self):
        body = {
            "v": PROTOCOL_VERSION,
            "op": "experiment",
            "experiment": "F1",
            "scale": "smoke",
        }
        req = parse_request(parse_body(json.dumps(body).encode()))
        assert isinstance(req, ExperimentRequest)
        assert req.coalesce_key() == req.group_key()

    def test_experiment_requires_id(self):
        body = {"v": PROTOCOL_VERSION, "op": "experiment"}
        with pytest.raises(ServiceError) as excinfo:
            parse_request(parse_body(json.dumps(body).encode()))
        assert excinfo.value.code == "bad_request"

    def test_interned_instances_are_shared(self):
        instances, mechanisms = instance_pool(), mechanism_pool()
        a = parse_request(parse_body(_raw()), instances, mechanisms)
        b = parse_request(parse_body(_raw()), instances, mechanisms)
        assert a.instance is b.instance
        assert a.mechanism is b.mechanism


class TestDeterminismKeys:
    """The digest contract: served and direct calls share cache keys."""

    def test_estimator_params_match_library_digest(self):
        req = parse_request(parse_body(_raw()))
        # The literal params dict montecarlo.py hashes for this call
        # (see test_estimate_cache.PARAMS).
        assert req.estimator_params() == {
            "fn": "estimate_correct_probability",
            "rounds": 40,
            "tie_policy": "INCORRECT",
            "exact_conditional": True,
            "target_se": None,
            "max_rounds": None,
        }

    def test_coalesce_key_is_the_cache_digest(self):
        req = parse_request(parse_body(_raw()))
        digest = estimate_digest(
            _instance(), ApprovalThreshold(2), 1, req.estimator_params()
        )
        assert req.coalesce_key() == f"estimate:{digest}"

    def test_ops_do_not_coalesce_across_each_other(self):
        est = parse_request(parse_body(_raw()))
        ballot = parse_request(parse_body(_raw(op="ballot")))
        assert est.coalesce_key() != ballot.coalesce_key()

    def test_group_key_ignores_rounds_and_seed(self):
        a = parse_request(parse_body(_raw()))
        b = parse_request(parse_body(_raw(rounds=80, seed=9)))
        assert a.group_key() == b.group_key()
        assert a.coalesce_key() != b.coalesce_key()

    def test_adaptive_max_rounds_defaults_to_rounds(self):
        req = parse_request(parse_body(_raw(target_se=0.01)))
        params = req.estimator_params()
        assert params["target_se"] == 0.01
        assert params["max_rounds"] == 40


class TestMechanismSpecs:
    def test_known_specs_build(self):
        base = {"name": "approval_threshold", "params": {"threshold": 2}}
        specs = [
            {"name": "direct", "params": {}},
            base,
            {"name": "random_approved", "params": {}},
            {"name": "fraction_approved", "params": {"fraction": 0.25}},
            {"name": "sampled_neighbourhood", "params": {"threshold": 2, "d": 3}},
            {"name": "greedy_best", "params": {}},
            {"name": "capped_random_approved", "params": {"max_weight": 4}},
            {"name": "abstention", "params": {"base": base, "abstain_prob": 0.1}},
        ]
        for spec in specs:
            mech = build_mechanism(spec)
            assert mech.cache_token(_instance()) is not None

    def test_power_threshold_matches_lambda(self):
        power = PowerThreshold(exponent=1 / 3)
        for degree in (1, 5, 39):
            assert power(degree) == degree ** (1 / 3)

    def test_power_threshold_spec(self):
        spec = mechanism_spec(
            "approval_threshold",
            threshold={"kind": "power", "exponent": 0.5, "scale": 2.0},
        )
        mech = build_mechanism(spec)
        assert mech.cache_token(_instance()) is not None

    def test_mechanism_spec_validates_eagerly(self):
        with pytest.raises(ServiceError):
            mechanism_spec("approval_threshold")  # missing threshold

    def test_abstention_requires_local_base(self):
        with pytest.raises(ServiceError) as excinfo:
            build_mechanism(
                {
                    "name": "abstention",
                    "params": {
                        "base": {
                            "name": "abstention",
                            "params": {
                                "base": {"name": "direct", "params": {}},
                                "abstain_prob": 0.5,
                            },
                        },
                        "abstain_prob": 0.5,
                    },
                }
            )
        assert excinfo.value.code == "bad_request"
