"""Protocol-layer tests for :mod:`repro.service.protocol`.

Every error path must produce a *typed* :class:`ServiceError` (stable
``code``, mapped HTTP status) — never a bare traceback — and the
request dataclasses must mirror the library's cache-digest parameters
exactly, which is what makes served estimates share persistent-cache
entries (and coalesce keys) with direct library calls.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cache import estimate_digest
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import complete_graph
from repro.io import instance_to_dict
from repro.mechanisms.threshold import ApprovalThreshold
from repro.service.client import ServiceClient
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


_DROP = object()
"""An override value that removes the key from the body."""


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
    return {key: value for key, value in body.items() if value is not _DROP}


def _raw(**overrides) -> bytes:
    return json.dumps(_body(**overrides), sort_keys=True).encode()


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
            # estimate_ballot_probability has no exact_conditional.
            {"op": "ballot", "exact_conditional": False},
            {
                "op": "sweep", "seed": _DROP, "seeds": [1, 2],
                "point_op": "ballot", "exact_conditional": False,
            },
            # Each sweep point is computed and streamed once.
            {"op": "sweep", "seed": _DROP, "seeds": [1, 2], "indices": [0, 0, 0]},
        ],
    )
    def test_invalid_fields_are_bad_request(self, overrides):
        with pytest.raises(ServiceError) as excinfo:
            parse_request(parse_body(_raw(**overrides)))
        assert excinfo.value.code == "bad_request"

    @pytest.mark.parametrize(
        "overrides, culprit",
        [
            ({"op": "ballot", "exact_conditional": True}, "exact_conditional"),
            (
                {
                    "op": "sweep", "seed": _DROP, "seeds": [1, 2],
                    "point_op": "ballot", "exact_conditional": True,
                },
                "exact_conditional",
            ),
            (
                {"op": "sweep", "seed": _DROP, "seeds": [1, 2], "indices": [1, 0, 1]},
                "indices",
            ),
        ],
    )
    def test_rejection_names_the_field(self, overrides, culprit):
        with pytest.raises(ServiceError) as excinfo:
            parse_request(parse_body(_raw(**overrides)))
        assert excinfo.value.code == "bad_request"
        assert culprit in excinfo.value.message
        # The same body without the culprit is valid.
        parse_request(parse_body(_raw(**dict(overrides, **{culprit: _DROP}))))

    def test_experiment_request(self):
        body = {
            "v": PROTOCOL_VERSION,
            "op": "experiment",
            "experiment": "F1",
            "scale": "smoke",
        }
        req = parse_request(parse_body(json.dumps(body, sort_keys=True).encode()))
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


# -- wire identity ---------------------------------------------------------


def _pin_bodies():
    """One fixed body per op; every digest derived from them is pinned."""
    instance = instance_to_dict(_instance(n=8, seed=5))
    mechanism = {"name": "approval_threshold", "params": {"threshold": 2}}
    base = {"v": PROTOCOL_VERSION, "instance": instance, "mechanism": mechanism}
    return {
        "estimate": dict(
            base, op="estimate", rounds=40, seed=1, tie_policy="COIN_FLIP",
            exact_conditional=False,
        ),
        "gain": dict(
            base, op="gain", rounds=64, seed=2, target_se=0.02, max_rounds=256,
        ),
        "ballot": dict(base, op="ballot", rounds=30, seed=3),
        "sweep": dict(
            base, op="sweep", rounds=20, seeds=[4, 5, 4], point_op="gain",
            indices=[2, 0],
        ),
        "experiment": {
            "v": PROTOCOL_VERSION, "op": "experiment", "experiment": "T2",
            "scale": "smoke", "seed": 6,
        },
        "delta": dict(
            base, op="delta", rounds=16, seed=7, engine="exact",
            edits=[[{"kind": "competency", "voter": 1, "competency": 0.6}]],
        ),
        "attack": dict(
            base, op="attack", rounds=32, seed=8, scenario={"name": "misreport"},
            budget=3, min_harm=0.1, margin=1.5, max_steps=4,
        ),
    }


_PIN_KEYS = {
    "estimate": {
        "coalesce": (
            "estimate:81fae34cb0bee290b0a9de93406d4613"
            "b2ffb3ab6035cd2ba64b0fae4f953cfd"
        ),
        "group": (
            "2d70b2e1bcc62a0122a8fa0f84b76bf0"
            "1ad7f5bfcd9d3fa743cf54a1850985ba"
        ),
        "routing": (
            "estimate:81fae34cb0bee290b0a9de93406d4613"
            "b2ffb3ab6035cd2ba64b0fae4f953cfd"
        ),
    },
    "gain": {
        "coalesce": (
            "gain:c3d0cb4c9bf27722a10ee90138f659fe"
            "e859496ff917f279dbe3d7637d96ef1a"
        ),
        "group": (
            "2d70b2e1bcc62a0122a8fa0f84b76bf0"
            "1ad7f5bfcd9d3fa743cf54a1850985ba"
        ),
        "routing": (
            "gain:c3d0cb4c9bf27722a10ee90138f659fe"
            "e859496ff917f279dbe3d7637d96ef1a"
        ),
    },
    "ballot": {
        "coalesce": (
            "ballot:e59e41b72bd39a7371f3cf2ef9f7b98e"
            "ecc8719cc5616d32d1ebb94e9f33c711"
        ),
        "group": (
            "2d70b2e1bcc62a0122a8fa0f84b76bf0"
            "1ad7f5bfcd9d3fa743cf54a1850985ba"
        ),
        "routing": (
            "ballot:e59e41b72bd39a7371f3cf2ef9f7b98e"
            "ecc8719cc5616d32d1ebb94e9f33c711"
        ),
    },
    "sweep": {
        "points": [
            "gain:288a018ca6946d0563bb65567ee9548a"
            "c6d3eb4ce227ee9aa000f51836a4d572",
            "gain:fe333b708725089819d47927a09d7c6d"
            "60a0e4086dfc32fba27779ed0f7e146d",
            "gain:288a018ca6946d0563bb65567ee9548a"
            "c6d3eb4ce227ee9aa000f51836a4d572",
        ],
        "coalesce": (
            "gain:fe333b708725089819d47927a09d7c6d"
            "60a0e4086dfc32fba27779ed0f7e146d"
        ),
        "group": (
            "2d70b2e1bcc62a0122a8fa0f84b76bf0"
            "1ad7f5bfcd9d3fa743cf54a1850985ba"
        ),
        "routing": (
            "gain:fe333b708725089819d47927a09d7c6d"
            "60a0e4086dfc32fba27779ed0f7e146d"
        ),
    },
    "experiment": {
        "coalesce": (
            "cc66b20d6fdba821e3f1005e7d09c433"
            "3d32bfd1272b9ac6b6c6f18752a27858"
        ),
        "group": (
            "cc66b20d6fdba821e3f1005e7d09c433"
            "3d32bfd1272b9ac6b6c6f18752a27858"
        ),
        "routing": (
            "cc66b20d6fdba821e3f1005e7d09c433"
            "3d32bfd1272b9ac6b6c6f18752a27858"
        ),
    },
    "delta": {
        "coalesce": (
            "delta:9f8efa50f62b18d768d68a255e1584ff"
            "db69b9a60ab129317ccfba01b792a653"
        ),
        "group": (
            "a505a5753100e403b1b375db3632204b"
            "7a3b4f2833026fb479a6d28e6086a369"
        ),
        "routing": (
            "delta:a505a5753100e403b1b375db3632204b"
            "7a3b4f2833026fb479a6d28e6086a369"
        ),
        "session": (
            "a505a5753100e403b1b375db3632204b"
            "7a3b4f2833026fb479a6d28e6086a369"
        ),
    },
    "attack": {
        "coalesce": (
            "attack:451a471cb53a25b739126de68cb8381f"
            "48ced8b25e3d1ccf2a70b402aba7fc45"
        ),
        "group": (
            "4dcb15baff4b72515a700af1a9452032"
            "8d6bb2a3addaedca0c842b042eab9e25"
        ),
        "routing": (
            "attack:4dcb15baff4b72515a700af1a9452032"
            "8d6bb2a3addaedca0c842b042eab9e25"
        ),
        "base": (
            "4dcb15baff4b72515a700af1a9452032"
            "8d6bb2a3addaedca0c842b042eab9e25"
        ),
    },
}


# Every top-level key each op accepts.  A body carrying all of them (with
# valid values) parses; adding any other key is a ``bad_request``.
# ballot's ``exact_conditional`` is checked by the bad-request cases.
_ACCEPTED_KEYS = {
    "estimate": {
        "v", "op", "instance", "mechanism", "rounds", "seed", "tie_policy",
        "exact_conditional", "engine", "target_se", "max_rounds",
    },
    "gain": {
        "v", "op", "instance", "mechanism", "rounds", "seed", "tie_policy",
        "exact_conditional", "engine", "target_se", "max_rounds",
    },
    "ballot": {
        "v", "op", "instance", "mechanism", "rounds", "seed", "tie_policy",
        "engine", "target_se", "max_rounds",
    },
    "sweep": {
        "v", "op", "instance", "mechanism", "rounds", "seeds", "tie_policy",
        "exact_conditional", "engine", "target_se", "max_rounds", "point_op",
        "indices",
    },
    "experiment": {"v", "op", "experiment", "scale", "seed", "engine", "target_se"},
    "delta": {
        "v", "op", "instance", "mechanism", "rounds", "seed", "tie_policy",
        "engine", "target_se", "max_rounds", "edits",
    },
    "attack": {
        "v", "op", "instance", "mechanism", "scenario", "budget", "rounds",
        "seed", "tie_policy", "engine", "min_harm", "margin", "max_steps",
    },
}

_FULL_VALUES = {
    "rounds": 16, "seed": 1, "tie_policy": "INCORRECT",
    "exact_conditional": True, "target_se": 0.05, "max_rounds": 32,
    "seeds": [1, 2], "point_op": "estimate", "indices": [1],
    "experiment": "T2", "scale": "smoke", "edits": [],
    "scenario": {"name": "misreport"}, "budget": 2, "min_harm": 0.1,
    "margin": 1.0, "max_steps": 3,
}


def _full_body(op):
    body = {"v": PROTOCOL_VERSION, "op": op}
    for key in sorted(_ACCEPTED_KEYS[op] - {"v", "op"}):
        if key == "instance":
            body[key] = instance_to_dict(_instance(n=8))
        elif key == "mechanism":
            body[key] = {"name": "approval_threshold", "params": {"threshold": 2}}
        elif key == "engine":
            body[key] = "mc" if op in ("delta", "attack") else "batch"
        else:
            body[key] = _FULL_VALUES[key]
    return body


class TestWireIdentityPin:
    """Cache entries and shard routing are keyed by these digests: a
    change to any literal below re-keys every stored estimate and moves
    traffic between shards, so they must only change on purpose."""

    @pytest.mark.parametrize("op", sorted(_pin_bodies()))
    def test_wire_identity_pin(self, op):
        body = json.dumps(_pin_bodies()[op], sort_keys=True)
        req = parse_request(parse_body(body.encode()))
        expected = _PIN_KEYS[op]
        if op == "sweep":
            # A sweep has no identity of its own: each point routes and
            # coalesces as the single estimate it expands to.
            assert list(req.point_routing_keys()) == expected["points"]
            req = req.point(1)
        assert req.coalesce_key() == expected["coalesce"]
        assert req.group_key() == expected["group"]
        assert req.routing_key() == expected["routing"]
        if op == "delta":
            assert req.session_token() == expected["session"]
        if op == "attack":
            assert req.base_token() == expected["base"]

    @pytest.mark.parametrize("op", sorted(_ACCEPTED_KEYS))
    def test_accepted_keys(self, op):
        body = _full_body(op)
        assert set(body) == _ACCEPTED_KEYS[op]
        parse_request(parse_body(json.dumps(body).encode()))
        others = set().union(*_ACCEPTED_KEYS.values()) | {"surprise"}
        others -= _ACCEPTED_KEYS[op]
        if op == "ballot":
            others.discard("exact_conditional")
        for key in sorted(others):
            with pytest.raises(ServiceError) as excinfo:
                parse_request(parse_body(json.dumps(dict(body, **{key: 1})).encode()))
            assert excinfo.value.code == "bad_request"
            assert "unknown field" in excinfo.value.message
            assert key in excinfo.value.message


# -- client bodies ---------------------------------------------------------


class _Sent(Exception):
    """Raised by the capturing transport once a body is handed over."""


class _CapturingClient(ServiceClient):
    """A client whose transport records each body instead of sending it."""

    def __init__(self):
        super().__init__(port=1)
        self.sent = []

    def _exchange(self, method, path, payload, headers):
        self.sent.append((path, json.loads(payload)))
        raise _Sent


_SCENARIO = {"name": "misreport"}
_EDITS = [[{"kind": "competency", "voter": 1, "competency": 0.6}]]

# op -> (client call given only what it requires, the body that call
# sent with every default spelled out, as the client did before it
# left defaults to the field table).
_DEFAULTED_CALLS = {
    "estimate": (
        lambda c, i, m: c.estimate(i, m),
        dict(rounds=400, seed=0, tie_policy="INCORRECT", exact_conditional=True),
    ),
    "gain": (
        lambda c, i, m: c.gain(i, m),
        dict(rounds=400, seed=0, tie_policy="INCORRECT", exact_conditional=True),
    ),
    "ballot": (
        lambda c, i, m: c.ballot(i, m),
        dict(rounds=400, seed=0, tie_policy="INCORRECT"),
    ),
    "experiment": (
        lambda c, i, m: c.experiment("T2"),
        dict(experiment="T2", scale="default", seed=0),
    ),
    "sweep": (
        lambda c, i, m: c.sweep(i, m, seeds=[4, 5]),
        dict(
            seeds=[4, 5], point_op="estimate", rounds=400,
            tie_policy="INCORRECT", exact_conditional=True,
        ),
    ),
    "sweep-gain": (
        lambda c, i, m: c.sweep(i, m, seeds=[4, 5], point_op="gain"),
        dict(
            seeds=[4, 5], point_op="gain", rounds=400,
            tie_policy="INCORRECT", exact_conditional=True,
        ),
    ),
    "sweep-ballot": (
        lambda c, i, m: list(c.iter_sweep(i, m, seeds=[4, 5], point_op="ballot")),
        dict(seeds=[4, 5], point_op="ballot", rounds=400, tie_policy="INCORRECT"),
    ),
    "delta": (
        lambda c, i, m: c.delta(i, m, edits=_EDITS),
        dict(
            rounds=64, seed=0, tie_policy="INCORRECT", engine="mc", edits=_EDITS,
        ),
    ),
    "delta-session": (
        lambda c, i, m: c.delta_session(i, m).apply(_EDITS[0]).estimate(),
        dict(
            rounds=64, seed=0, tie_policy="INCORRECT", engine="mc", edits=_EDITS,
        ),
    ),
    "attack": (
        lambda c, i, m: c.attack(i, m, _SCENARIO),
        dict(
            scenario=_SCENARIO, budget=8, rounds=64, seed=0,
            tie_policy="INCORRECT", engine="mc", min_harm=0.05, margin=2.0,
        ),
    ),
    "attack-search": (
        lambda c, i, m: c.attack_search(i, m, _SCENARIO).run(),
        dict(
            scenario=_SCENARIO, budget=8, rounds=64, seed=0,
            tie_policy="INCORRECT", engine="mc", min_harm=0.05, margin=2.0,
        ),
    ),
}

_GIVEN_KEYS = {
    "v", "op", "instance", "mechanism", "experiment", "seeds", "point_op",
    "edits", "scenario",
}
"""The keys the calls above give; the client adds no default to them."""

_MC_VALUES = dict(
    rounds=40, seed=1, tie_policy="COIN_FLIP", target_se=0.02, max_rounds=256,
)
_SWEEP_VALUES = dict(
    rounds=40, seeds=[4, 5, 4], tie_policy="COIN_FLIP", target_se=0.02,
    max_rounds=256, indices=[2, 0],
)
_SESSION_VALUES = dict(rounds=16, seed=7, tie_policy="COIN_FLIP", engine="exact")
_PER_ESTIMATE_VALUES = dict(target_se=0.02, max_rounds=32)
_ATTACK_VALUES = dict(
    budget=3, rounds=32, seed=8, tie_policy="COIN_FLIP", engine="exact",
    min_harm=0.1, margin=1.5, max_steps=4,
)

# op -> (client call with a non-default value for every field, its body).
_EXPLICIT_CALLS = {
    "estimate": (
        lambda c, i, m: c.estimate(i, m, exact_conditional=False, **_MC_VALUES),
        dict(_MC_VALUES, exact_conditional=False),
    ),
    "gain": (
        lambda c, i, m: c.gain(i, m, exact_conditional=False, **_MC_VALUES),
        dict(_MC_VALUES, exact_conditional=False),
    ),
    "ballot": (lambda c, i, m: c.ballot(i, m, **_MC_VALUES), _MC_VALUES),
    "experiment": (
        lambda c, i, m: c.experiment("T3", scale="smoke", seed=6, target_se=0.05),
        dict(experiment="T3", scale="smoke", seed=6, target_se=0.05),
    ),
    "sweep-gain": (
        lambda c, i, m: c.sweep(
            i, m, point_op="gain", exact_conditional=False, **_SWEEP_VALUES,
        ),
        dict(_SWEEP_VALUES, point_op="gain", exact_conditional=False),
    ),
    "sweep-ballot": (
        lambda c, i, m: c.sweep(i, m, point_op="ballot", **_SWEEP_VALUES),
        dict(_SWEEP_VALUES, point_op="ballot"),
    ),
    "delta": (
        lambda c, i, m: c.delta(
            i, m, edits=_EDITS, **_SESSION_VALUES, **_PER_ESTIMATE_VALUES,
        ),
        dict(_SESSION_VALUES, **_PER_ESTIMATE_VALUES, edits=_EDITS),
    ),
    "delta-session": (
        lambda c, i, m: c.delta_session(i, m, **_SESSION_VALUES)
        .apply(_EDITS[0]).estimate(**_PER_ESTIMATE_VALUES),
        dict(_SESSION_VALUES, **_PER_ESTIMATE_VALUES, edits=_EDITS),
    ),
    "attack": (
        lambda c, i, m: c.attack(i, m, _SCENARIO, **_ATTACK_VALUES),
        dict(_ATTACK_VALUES, scenario=_SCENARIO),
    ),
    "attack-search": (
        lambda c, i, m: c.attack_search(i, m, _SCENARIO, **_ATTACK_VALUES).run(),
        dict(_ATTACK_VALUES, scenario=_SCENARIO),
    ),
}


def _sent_body(call):
    """The one body ``call`` sends, captured without a network."""
    client = _CapturingClient()
    mechanism = {"name": "approval_threshold", "params": {"threshold": 2}}
    with pytest.raises(_Sent):
        call(client, _instance(n=8, seed=5), mechanism)
    (path, body), = client.sent
    assert path == f"/v1/{body['op']}"
    return body


def _spelled_body(op, fields):
    body = {"v": PROTOCOL_VERSION, "op": op.split("-")[0], **fields}
    if body["op"] != "experiment":
        body["instance"] = instance_to_dict(_instance(n=8, seed=5))
        body["mechanism"] = {"name": "approval_threshold", "params": {"threshold": 2}}
    return body


def _identity(body):
    """Every identity the server derives from ``body``."""
    req = parse_request(parse_body(json.dumps(body, sort_keys=True).encode()))
    if req.op == "sweep":
        return (
            req.point_routing_keys(),
            req.point_indices(),
            [_identity_of(req.point(i)) for i in req.point_indices()],
        )
    return _identity_of(req)


def _identity_of(req):
    keys = [req.coalesce_key(), req.group_key(), req.routing_key()]
    if req.op == "delta":
        keys.append(req.session_token())
    if req.op == "attack":
        keys.append(req.base_token())
    return keys


class TestClientBodies:
    """The client takes request shape and defaults from ``FIELDS`` alone:
    a body with defaults omitted parses to the identities of the body
    that spells them out, so cache entries and routing do not move."""

    @pytest.mark.parametrize("op", sorted(_DEFAULTED_CALLS))
    def test_defaults_omitted(self, op):
        call, fields = _DEFAULTED_CALLS[op]
        body = _sent_body(call)
        spelled = _spelled_body(op, fields)
        assert set(body) <= _GIVEN_KEYS
        assert body == {key: spelled[key] for key in body}
        assert _identity(body) == _identity(spelled)

    @pytest.mark.parametrize("op", sorted(_EXPLICIT_CALLS))
    def test_every_field_given(self, op):
        call, fields = _EXPLICIT_CALLS[op]
        body = _sent_body(call)
        spelled = _spelled_body(op, fields)
        assert body == spelled
        assert _identity(body) == _identity(spelled)
        assert _identity(body) != _identity(_sent_body(_DEFAULTED_CALLS[op][0]))

    def test_sweep_takes_array_seeds(self):
        body = _sent_body(lambda c, i, m: c.sweep(i, m, seeds=np.array([4, 5])))
        assert body["seeds"] == [4, 5]

    @pytest.mark.parametrize(
        "call",
        [
            lambda c, i, m: c.estimate(i, m, round=40),
            lambda c, i, m: c.estimate(i, m, engine="batch"),
            lambda c, i, m: c.gain(i, m, seeds=[1]),
            lambda c, i, m: c.ballot(i, m, exact_conditional=True),
            lambda c, i, m: c.experiment("T2", rounds=4),
            lambda c, i, m: c.experiment("T2", engine="batch"),
            lambda c, i, m: c.iter_sweep(i, m, seeds=[1], seed=1),
            lambda c, i, m: c.sweep(i, m, seeds=[1], engine="batch"),
            lambda c, i, m: c.iter_sweep(
                i, m, seeds=[1], point_op="ballot", exact_conditional=False,
            ),
            lambda c, i, m: c.sweep(
                i, m, seeds=[1], point_op="ballot", exact_conditional=True,
            ),
            lambda c, i, m: c.delta(i, m, budget=2),
            lambda c, i, m: c.delta_session(i, m, scenario=_SCENARIO),
            lambda c, i, m: c.delta_session(i, m, edits=_EDITS).estimate(),
            lambda c, i, m: c.delta_session(i, m, target_se=0.1).estimate(),
            lambda c, i, m: c.delta_session(i, m).estimate(edits=_EDITS),
            lambda c, i, m: c.delta_session(i, m).estimate(rounds=8),
            lambda c, i, m: c.attack(i, m, _SCENARIO, target_se=0.1),
            lambda c, i, m: c.attack_search(i, m, _SCENARIO, edits=[]),
        ],
        ids=[
            "estimate", "estimate-engine", "gain", "ballot", "experiment",
            "experiment-engine", "sweep-seed", "sweep-engine",
            "iter-sweep-ballot", "sweep-ballot", "delta", "delta-session",
            "delta-session-edits", "delta-session-target-se",
            "delta-session-estimate-edits", "delta-session-estimate-rounds",
            "attack", "attack-search",
        ],
    )
    def test_unknown_keyword_fails_before_sending(self, call):
        client = _CapturingClient()
        mechanism = {"name": "approval_threshold", "params": {"threshold": 2}}
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call(client, _instance(n=8), mechanism)
        assert client.sent == []


class _Replying(ServiceClient):
    """A client whose transport answers every request with fixed bytes."""

    def __init__(self, status, lines):
        super().__init__(port=1)
        self.status, self.lines = status, lines

    def _exchange(self, method, path, payload, headers):
        replying = self

        class _Response:
            status = replying.status

            def read(self):
                return b"".join(replying.lines)

            def readline(self):
                return replying.lines.pop(0) if replying.lines else b""

        return _Response()


class TestClientErrors:
    """One decoder maps every error object the client reads to a typed error."""

    def test_unknown_code_is_internal(self):
        error = {"code": "novel", "message": "x"}
        body = json.dumps({"v": 1, "ok": False, "error": error})
        with pytest.raises(ServiceError) as excinfo:
            _Replying(418, [body.encode()]).experiment("T2")
        assert excinfo.value.code == "internal"

    def test_sweep_point_with_unknown_code_is_internal(self):
        line = json.dumps({"i": 0, "ok": False, "error": {"code": "novel"}})
        client = _Replying(200, [line.encode() + b"\n"])
        with pytest.raises(ServiceError) as excinfo:
            client.sweep(_instance(n=8), {"name": "direct", "params": {}}, seeds=[1])
        assert excinfo.value.code == "internal"
        assert "sweep point 0" in excinfo.value.message

    def test_sweep_point_keeps_a_known_code(self):
        error = {"code": "timeout", "message": "slow"}
        line = json.dumps({"i": 0, "ok": False, "error": error})
        client = _Replying(200, [line.encode() + b"\n"])
        with pytest.raises(ServiceError) as excinfo:
            client.sweep(_instance(n=8), {"name": "direct", "params": {}}, seeds=[1])
        assert excinfo.value.code == "timeout"
        assert excinfo.value.message == "sweep point 0: slow"

    def test_healthz_returns_a_degraded_fleet(self):
        payload = {"v": 1, "ok": False, "status": "degraded",
                   "shards": {"count": 2, "alive": 1}}
        client = _Replying(200, [json.dumps(payload).encode()])
        assert client.healthz() == payload
