"""Versioned request/response protocol of the estimation service.

Everything crossing the wire is JSON.  A request is an *envelope*::

    {"v": 1, "op": "estimate", ...op-specific fields...}

and a response is either ``{"v": 1, "ok": true, "result": ...}`` or a
typed error ``{"v": 1, "ok": false, "error": {"code", "message"}}``
whose ``code`` maps to a fixed HTTP status (:data:`HTTP_STATUS`).  The
protocol version is part of every payload; a request carrying any other
``v`` is rejected with ``unsupported_version`` rather than guessed at.

Validation is strict: unknown top-level keys, wrong types, out-of-range
values and malformed instances are all ``bad_request`` errors carrying a
human-readable message — the server never raises a bare traceback at a
client.  Mechanisms travel as declarative *specs* (``{"name", "params"}``)
resolved through a registry of picklable builders, because the service
contract is determinism: a spec pins mechanism behaviour exactly, where
a pickled closure could not be validated or reproduced.

Two digests drive the server's coalescing micro-batcher (see
:mod:`repro.service.batcher`):

* :meth:`EstimateRequest.coalesce_key` — the full estimate digest
  (:func:`repro.cache.estimate_digest`, the same key the persistent
  cache uses) prefixed with the op, identifying *identical* requests
  whose in-flight computation can be shared;
* :meth:`EstimateRequest.group_key` — instance digest plus mechanism
  token, identifying *compatible* requests that one warm
  :class:`~repro.voting.montecarlo.BatchEstimator` should serve
  back-to-back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

from repro._util.mathx import LRUCache
from repro.cache import (
    SCHEMA_VERSION,
    _canonical_json,
    _sha256_hex,
    estimate_digest,
    instance_token,
    seed_token,
)
from repro.core.instance import ProblemInstance
from repro.incremental.edits import Edit, edit_chain_digest, edit_from_dict, edit_to_dict
from repro.incremental.session import ENGINES
from repro.mechanisms import (
    AbstentionMechanism,
    ApprovalThreshold,
    CappedRandomApproved,
    DelegationMechanism,
    DirectVoting,
    FractionApproved,
    GreedyBest,
    LocalDelegationMechanism,
    RandomApproved,
    SampledNeighbourhood,
)
from repro.voting.montecarlo import CorrectnessEstimate, _check_engine
from repro.voting.outcome import TiePolicy

PROTOCOL_VERSION = 1
"""Bumped whenever request or response layouts change incompatibly."""

MAX_PAYLOAD_BYTES = 8 * 1024 * 1024
"""Default request-body ceiling; larger bodies are ``payload_too_large``."""

OPS = ("estimate", "gain", "ballot", "experiment", "sweep", "delta", "attack")
"""Recognised operations (each served at ``POST /v1/<op>``)."""

SCALES = ("smoke", "default", "full")
TIE_POLICIES = ("INCORRECT", "COIN_FLIP")

MAX_ROUNDS = 10_000_000
MAX_SEED = 2**63 - 1
MAX_SWEEP_POINTS = 100_000
"""Ceiling on seeds per sweep request (the response streams, but the
request body is parsed whole)."""

MAX_DELTA_ROUNDS = 4096
"""Ceiling on a delta session's retained rounds (state is O(rounds·n))."""

MAX_DELTA_EDIT_BATCHES = 4096
MAX_DELTA_EDITS = 100_000
"""Ceilings on one delta request's edit chain."""

MAX_ATTACK_BUDGET = 1024
MAX_ATTACK_STEPS = 1024
"""Ceilings on one attack search (each step runs a full candidate scan)."""

HTTP_STATUS = {
    "bad_json": 400,
    "bad_request": 400,
    "unsupported_version": 400,
    "not_found": 404,
    "payload_too_large": 413,
    "queue_full": 429,
    "internal": 500,
    "shard_unavailable": 503,
    "shutting_down": 503,
    "timeout": 504,
}
"""Error code → HTTP status; the closed set of typed service errors."""


class ServiceError(Exception):
    """A typed protocol error: machine code + human message.

    Raised server-side to produce an error payload, and client-side when
    an error payload comes back — the ``code`` survives the round trip,
    so callers can branch on ``queue_full`` vs ``timeout`` without
    parsing prose.
    """

    def __init__(self, code: str, message: str) -> None:
        if code not in HTTP_STATUS:
            raise ValueError(f"unknown service error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def http_status(self) -> int:
        return HTTP_STATUS[self.code]

    def payload(self) -> Dict[str, Any]:
        """The JSON body this error is serialised as."""
        return {
            "v": PROTOCOL_VERSION,
            "ok": False,
            "error": {"code": self.code, "message": self.message},
        }

    def __repr__(self) -> str:
        return f"ServiceError({self.code!r}, {self.message!r})"


def ok_payload(result: Any) -> Dict[str, Any]:
    """The JSON body of a successful response."""
    return {"v": PROTOCOL_VERSION, "ok": True, "result": result}


def _bad(message: str) -> ServiceError:
    return ServiceError("bad_request", message)


# -- field readers ---------------------------------------------------------


def _check_keys(data: Mapping[str, Any], allowed) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise _bad(f"unknown field(s) {unknown}; allowed: {sorted(allowed)}")


@dataclass(frozen=True)
class Field:
    """One top-level request field: its reader, default and bounds.

    ``read(key, value, field, parsed)`` validates the wire ``value`` (the
    ``default`` when the key is absent) and returns the parsed value;
    ``parsed`` holds the fields read before it, in table order.  A field
    with no default that is not ``required`` is optional: absent or
    ``null`` reads as ``None``.  ``wire_only`` fields are validated and
    then dropped (the legacy Monte Carlo ``engine`` key).
    """

    read: Callable[[str, Any, "Field", "Parsed"], Any]
    default: Any = None
    low: Any = None
    high: Any = None
    choices: Tuple[str, ...] = ()
    required: bool = False
    wire_only: bool = False


Parsed = Dict[str, Any]
"""The fields read so far, by name."""


def _given(key: str, value: Any, field: Field, parsed: Parsed) -> Any:
    return value


def _int(key: str, value: Any, field: Field, parsed: Parsed) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _bad(f"{key!r} must be an integer, got {type(value).__name__}")
    if not field.low <= value <= field.high:
        raise _bad(f"{key!r} must be in [{field.low}, {field.high}], got {value}")
    return value


def _float(key: str, value: Any, field: Field, parsed: Parsed) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{key!r} must be a number, got {type(value).__name__}")
    if not field.low <= float(value) <= field.high:
        raise _bad(
            f"{key!r} must be in [{field.low:g}, {field.high:g}], got {value}"
        )
    return float(value)


def _positive(key: str, value: Any, field: Field, parsed: Parsed) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _bad(f"{key!r} must be a number, got {type(value).__name__}")
    if not value > 0:
        raise _bad(f"{key!r} must be positive, got {value}")
    return float(value)


def _bool(key: str, value: Any, field: Field, parsed: Parsed) -> bool:
    if not isinstance(value, bool):
        raise _bad(f"{key!r} must be a boolean, got {type(value).__name__}")
    return value


def _choice(key: str, value: Any, field: Field, parsed: Parsed) -> str:
    if value not in field.choices:
        raise _bad(f"{key!r} must be one of {list(field.choices)}, got {value!r}")
    return value


def _tie_policy(key: str, value: Any, field: Field, parsed: Parsed) -> TiePolicy:
    return TiePolicy[_choice(key, value, field, parsed)]


def _mc_engine(key: str, value: Any, field: Field, parsed: Parsed) -> str:
    """The Monte Carlo ``engine`` key is still accepted, as ``"batch"`` only."""
    try:
        _check_engine(value)
    except ValueError as exc:
        raise _bad(str(exc)) from None
    return value


def _capped_rounds(key: str, value: Any, field: Field, parsed: Parsed) -> int:
    if parsed.get("target_se") is None:
        raise _bad(f"{key!r} requires 'target_se'")
    return _int(key, value, field, parsed)


def _experiment_id(key: str, value: Any, field: Field, parsed: Parsed) -> str:
    if not isinstance(value, str) or not value:
        raise _bad(f"{key!r} must be a non-empty experiment id string")
    return value


def _int_list(
    key: str, value: Any, field: Field, limit: int
) -> Tuple[int, ...]:
    if not isinstance(value, list):
        raise _bad(f"{key!r} must be a list of integers")
    if len(value) > limit:
        raise _bad(f"{key!r} has {len(value)} entries (limit {limit})")
    return tuple(
        _int(f"{key}[{i}]", entry, field, {}) for i, entry in enumerate(value)
    )


def _seeds(key: str, value: Any, field: Field, parsed: Parsed) -> Tuple[int, ...]:
    seeds = _int_list(key, value, field, MAX_SWEEP_POINTS)
    if not seeds:
        raise _bad(f"{key!r} must be a non-empty list of integers")
    return seeds


def _indices(key: str, value: Any, field: Field, parsed: Parsed) -> Tuple[int, ...]:
    count = len(parsed["seeds"])
    indices = _int_list(key, value, replace(field, high=count - 1), count)
    if len(set(indices)) != len(indices):
        raise _bad(f"{key!r} entries must be distinct point indices")
    return indices


def _edits(key: str, value: Any, field: Field, parsed: Parsed) -> Tuple[Tuple[Edit, ...], ...]:
    if not isinstance(value, list):
        raise _bad(f"{key!r} must be a list of edit batches")
    if len(value) > MAX_DELTA_EDIT_BATCHES:
        raise _bad(
            f"{key!r} has {len(value)} batches "
            f"(limit {MAX_DELTA_EDIT_BATCHES}); open a fresh session"
        )
    batches = []
    total = 0
    for index, batch in enumerate(value):
        if not isinstance(batch, list):
            raise _bad(f"edit batch {index} must be a list of edit objects")
        total += len(batch)
        if total > MAX_DELTA_EDITS:
            raise _bad(
                f"{key!r} carries over {MAX_DELTA_EDITS} edits; "
                "open a fresh session"
            )
        parsed_batch = []
        for edit in batch:
            try:
                parsed_batch.append(edit_from_dict(edit))
            except ValueError as exc:
                raise _bad(f"invalid edit in batch {index}: {exc}") from None
        batches.append(tuple(parsed_batch))
    return tuple(batches)


def _scenario(key: str, value: Any, field: Field, parsed: Parsed) -> Any:
    from repro.attacks.scenarios import build_scenario

    if not isinstance(value, dict):
        raise _bad(f"{key!r} must be a scenario spec object")
    try:
        build_scenario(value)
    except ValueError as exc:
        raise _bad(f"invalid scenario spec: {exc}") from None
    return value


# -- mechanism specs -------------------------------------------------------


@dataclass(frozen=True)
class PowerThreshold:
    """A picklable power-law threshold ``j(d) = scale * (d + offset)**exponent``.

    The wire form of lambda thresholds like ``lambda d: d ** (1/3)``:
    mechanisms served over the protocol must be built from declarative
    data, and this covers every threshold family the experiments use
    (the paper's ``d^{1/3}`` included) while staying picklable for the
    process-pool engine.
    """

    exponent: float
    offset: float = 0.0
    scale: float = 1.0

    def __call__(self, degree: int) -> float:
        return self.scale * (float(degree) + self.offset) ** self.exponent

    @property
    def __name__(self) -> str:  # label used by ApprovalThreshold.name
        return f"power({self.exponent:g},+{self.offset:g},x{self.scale:g})"


def _threshold_from(value: Any, field_name: str = "threshold") -> Any:
    """A threshold argument from its wire form (number or power spec)."""
    if isinstance(value, bool):
        raise _bad(f"{field_name!r} must be a number or power spec")
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, dict):
        _check_keys(value, ("kind", "exponent", "offset", "scale"))
        if value.get("kind") != "power":
            raise _bad(f"{field_name!r} spec kind must be 'power'")
        try:
            return PowerThreshold(
                exponent=float(value["exponent"]),
                offset=float(value.get("offset", 0.0)),
                scale=float(value.get("scale", 1.0)),
            )
        except (KeyError, TypeError, ValueError):
            raise _bad(
                f"{field_name!r} power spec needs numeric 'exponent' "
                "(optional 'offset'/'scale')"
            ) from None
    raise _bad(
        f"{field_name!r} must be a number or {{'kind': 'power', ...}} spec, "
        f"got {type(value).__name__}"
    )


def _no_params(name: str, params: Mapping[str, Any]) -> None:
    if params:
        raise _bad(f"mechanism {name!r} takes no params, got {sorted(params)}")


def _build_direct(params: Mapping[str, Any]) -> DelegationMechanism:
    _no_params("direct", params)
    return DirectVoting()


def _build_approval_threshold(params: Mapping[str, Any]) -> DelegationMechanism:
    _check_keys(params, ("threshold",))
    if "threshold" not in params:
        raise _bad("mechanism 'approval_threshold' requires 'threshold'")
    return ApprovalThreshold(_threshold_from(params["threshold"]))


def _build_random_approved(params: Mapping[str, Any]) -> DelegationMechanism:
    _no_params("random_approved", params)
    return RandomApproved()


def _build_fraction_approved(params: Mapping[str, Any]) -> DelegationMechanism:
    _check_keys(params, ("fraction",))
    fraction = params.get("fraction", 0.5)
    if isinstance(fraction, bool) or not isinstance(fraction, (int, float)):
        raise _bad("'fraction' must be a number")
    try:
        return FractionApproved(float(fraction))
    except ValueError as exc:
        raise _bad(str(exc)) from None


def _build_sampled_neighbourhood(params: Mapping[str, Any]) -> DelegationMechanism:
    _check_keys(params, ("threshold", "d"))
    if "threshold" not in params:
        raise _bad("mechanism 'sampled_neighbourhood' requires 'threshold'")
    d = params.get("d")
    if d is not None and (isinstance(d, bool) or not isinstance(d, int)):
        raise _bad("'d' must be an integer when given")
    try:
        return SampledNeighbourhood(_threshold_from(params["threshold"]), d=d)
    except ValueError as exc:
        raise _bad(str(exc)) from None


def _build_greedy_best(params: Mapping[str, Any]) -> DelegationMechanism:
    _no_params("greedy_best", params)
    return GreedyBest()


def _build_capped_random_approved(params: Mapping[str, Any]) -> DelegationMechanism:
    _check_keys(params, ("max_weight",))
    max_weight = params.get("max_weight")
    if isinstance(max_weight, bool) or not isinstance(max_weight, int):
        raise _bad("mechanism 'capped_random_approved' requires integer 'max_weight'")
    try:
        return CappedRandomApproved(max_weight)
    except ValueError as exc:
        raise _bad(str(exc)) from None


def _build_abstention(params: Mapping[str, Any]) -> DelegationMechanism:
    _check_keys(params, ("base", "abstain_prob"))
    base_spec = params.get("base")
    if not isinstance(base_spec, dict):
        raise _bad("mechanism 'abstention' requires a 'base' mechanism spec")
    base = build_mechanism(base_spec)
    if not isinstance(base, LocalDelegationMechanism):
        raise _bad(
            f"'abstention' base must be a local mechanism, got {base.name!r}"
        )
    prob = params.get("abstain_prob")
    if isinstance(prob, bool) or not isinstance(prob, (int, float)):
        raise _bad("mechanism 'abstention' requires numeric 'abstain_prob'")
    try:
        return AbstentionMechanism(base, float(prob))
    except ValueError as exc:
        raise _bad(str(exc)) from None


MECHANISM_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], DelegationMechanism]] = {
    "direct": _build_direct,
    "approval_threshold": _build_approval_threshold,
    "random_approved": _build_random_approved,
    "fraction_approved": _build_fraction_approved,
    "sampled_neighbourhood": _build_sampled_neighbourhood,
    "greedy_best": _build_greedy_best,
    "capped_random_approved": _build_capped_random_approved,
    "abstention": _build_abstention,
}
"""Wire name → validated mechanism constructor."""


def mechanism_spec(name: str, **params: Any) -> Dict[str, Any]:
    """Build (and eagerly validate) a mechanism spec dict.

    Client-side convenience: catches typos before the request leaves the
    process.  ``mechanism_spec("approval_threshold", threshold=3)``.
    """
    spec = {"name": name, "params": params}
    build_mechanism(spec)
    return spec


def build_mechanism(spec: Any) -> DelegationMechanism:
    """Resolve a ``{"name", "params"}`` spec into a mechanism instance."""
    if not isinstance(spec, dict):
        raise _bad(f"mechanism spec must be an object, got {type(spec).__name__}")
    _check_keys(spec, ("name", "params"))
    name = spec.get("name")
    builder = MECHANISM_BUILDERS.get(name)
    if builder is None:
        raise _bad(
            f"unknown mechanism {name!r}; known: {sorted(MECHANISM_BUILDERS)}"
        )
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise _bad("'params' must be an object")
    return builder(params)


# -- interning -------------------------------------------------------------


class InternPool:
    """LRU of deserialised objects keyed by their canonical-JSON digest.

    Long-lived servers see the same instance/mechanism payloads over and
    over; reconstructing a :class:`ProblemInstance` (CSR adjacency,
    approval structure, compiled views) per request would dominate the
    event loop.  Interning returns the *same* object for byte-identical
    payloads, so all its lazily-built caches stay warm across requests.
    Keys are content digests — two clients sending equal payloads share
    one entry.
    """

    def __init__(self, build: Callable[[Any], Any], maxsize: int = 64) -> None:
        self._build = build
        self._cache = LRUCache(maxsize)

    def get(self, data: Any) -> Any:
        key = _sha256_hex(_canonical_json(data).encode())
        obj = self._cache.get(key)
        if obj is None:
            obj = self._build(data)
            self._cache.put(key, obj)
        return obj

    def __len__(self) -> int:
        return len(self._cache)


def _build_instance(data: Any) -> ProblemInstance:
    from repro.io import instance_from_dict

    if not isinstance(data, dict):
        raise _bad(f"'instance' must be an object, got {type(data).__name__}")
    try:
        return instance_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _bad(f"invalid instance payload: {exc}") from None


def instance_pool(maxsize: int = 64) -> InternPool:
    """An :class:`InternPool` of problem instances."""
    return InternPool(_build_instance, maxsize)


def mechanism_pool(maxsize: int = 64) -> InternPool:
    """An :class:`InternPool` of mechanisms."""
    return InternPool(build_mechanism, maxsize)


# -- requests --------------------------------------------------------------


_OP_FN = {
    "estimate": "estimate_correct_probability",
    "gain": "estimate_correct_probability",
    "ballot": "estimate_ballot_probability",
}


def _mechanism_token(mechanism: DelegationMechanism, instance: ProblemInstance) -> Any:
    """The mechanism's cache token on ``instance``, or ``None``."""
    token_fn = getattr(mechanism, "cache_token", None)
    return token_fn(instance) if token_fn is not None else None


def _digest(payload: Any) -> str:
    return _sha256_hex(_canonical_json(payload).encode())


@dataclass(frozen=True)
class EstimateRequest:
    """A validated ``estimate`` / ``gain`` / ``ballot`` request."""

    op: str
    instance: ProblemInstance
    mechanism: DelegationMechanism
    rounds: int
    seed: int
    tie_policy: TiePolicy
    target_se: Optional[float]
    max_rounds: Optional[int]
    exact_conditional: bool = True
    """Unused by ``ballot``, which rejects the wire key."""
    via: Optional[str] = None
    """The enclosing operation, when this request is a derived point
    (``"sweep"`` for sweep fanout points).  Server-side metadata only —
    it labels cache statistics per originating op and is deliberately
    excluded from every digest, so wire identities are unchanged."""

    def estimator_params(self) -> Dict[str, Any]:
        """The estimator-parameter dict, mirroring the library's digests.

        Must match :mod:`repro.voting.montecarlo`'s ``params`` exactly so
        a served estimate and the equivalent direct library call share
        one persistent-cache entry.
        """
        cap = self.rounds if self.max_rounds is None else self.max_rounds
        params: Dict[str, Any] = {
            "fn": _OP_FN[self.op],
            "rounds": self.rounds,
            "tie_policy": self.tie_policy.name,
            "target_se": self.target_se,
            "max_rounds": None if self.target_se is None else cap,
        }
        if self.op != "ballot":
            params["exact_conditional"] = self.exact_conditional
        return params

    def coalesce_key(self) -> Optional[str]:
        """Identity of this computation, or ``None`` when unshareable."""
        digest = estimate_digest(
            self.instance, self.mechanism, self.seed, self.estimator_params()
        )
        if digest is None:
            return None
        return f"{self.op}:{digest}"

    def group_key(self) -> Optional[str]:
        """Identity of the (instance, mechanism) pair for micro-batching."""
        mtoken = _mechanism_token(self.mechanism, self.instance)
        if mtoken is None:
            return None
        return _digest(
            {"instance": instance_token(self.instance), "mechanism": mtoken}
        )

    def routing_key(self) -> str:
        """The shard-routing identity of this request.

        The contract (enforced statically by reprolint D203) is that
        routing keys are *content-addressed*: derived from the estimate
        digest, never from wall clocks, pids or per-process randomness —
        so a given computation always lands on the same shard, where its
        duplicates coalesce.  Requests whose mechanism cannot be
        tokenised (no ``estimate_digest``) fall back to a digest of the
        same content components minus the mechanism token; they lose
        per-shard coalescing but still route deterministically.
        """
        key = self.coalesce_key()
        if key is not None:
            return key
        return _digest(
            {
                "op": self.op,
                "instance": instance_token(self.instance),
                "seed": self.seed,
                "params": self.estimator_params(),
            }
        )


@dataclass(frozen=True)
class ExperimentRequest:
    """A validated experiment-table query."""

    experiment: str
    scale: str
    seed: int
    target_se: Optional[float]

    op: str = "experiment"

    def coalesce_key(self) -> str:
        return _digest(
            {
                "op": self.op,
                "experiment": self.experiment,
                "scale": self.scale,
                "seed": self.seed,
                "target_se": self.target_se,
            }
        )

    # Experiments don't share estimator state; each runs as its own
    # batch so distinct experiments spread across the worker pool.
    group_key = coalesce_key

    # The coalesce key is already a pure content digest, so it doubles
    # as the shard-routing identity (D203 contract).
    routing_key = coalesce_key


@dataclass(frozen=True)
class SweepRequest:
    """A validated sweep: one (instance, mechanism, params) over many seeds.

    A sweep is the wire form of an experiment-grid row: ``seeds[i]``
    yields one :class:`EstimateRequest` per point, all sharing the
    instance, mechanism and estimator parameters.  The response is
    *streamed* — NDJSON, one line per completed point — so the server
    never buffers a whole grid.  ``indices`` is the shard-fanout filter:
    the sharded front-end forwards the same body to each worker with the
    subset of point indices that consistent-hash onto it, and each
    worker computes only those.
    """

    point_op: str
    instance: ProblemInstance
    mechanism: DelegationMechanism
    rounds: int
    seeds: Tuple[int, ...]
    tie_policy: TiePolicy
    target_se: Optional[float]
    max_rounds: Optional[int]
    exact_conditional: bool = True
    indices: Optional[Tuple[int, ...]] = None

    op: str = "sweep"

    def point(self, index: int) -> EstimateRequest:
        """The single-point request for ``seeds[index]``."""
        return EstimateRequest(
            op=self.point_op,
            instance=self.instance,
            mechanism=self.mechanism,
            rounds=self.rounds,
            seed=self.seeds[index],
            tie_policy=self.tie_policy,
            exact_conditional=self.exact_conditional,
            target_se=self.target_se,
            max_rounds=self.max_rounds,
            via="sweep",
        )

    def point_indices(self) -> Tuple[int, ...]:
        """The indices this server should compute (all, unless filtered)."""
        if self.indices is not None:
            return self.indices
        return tuple(range(len(self.seeds)))

    def point_routing_keys(self) -> Tuple[str, ...]:
        """Routing keys for every seed, hashing the instance only once.

        Bit-for-bit equal to ``self.point(i).routing_key()`` for each
        ``i`` — the test suite pins the equality — but the instance
        token, mechanism token and estimator params are seed-invariant,
        so a 10^5-point fanout hashes the (possibly huge) instance
        arrays once instead of per point.
        """
        params = self.point(0).estimator_params()
        itoken = instance_token(self.instance)
        mtoken = _mechanism_token(self.mechanism, self.instance)
        if mtoken is None:
            # Mirrors EstimateRequest.routing_key's untokenisable fallback.
            return tuple(
                _digest(
                    {
                        "op": self.point_op,
                        "instance": itoken,
                        "seed": seed,
                        "params": params,
                    }
                )
                for seed in self.seeds
            )
        # Mirrors repro.cache.estimate_digest composed into
        # EstimateRequest.coalesce_key.
        return tuple(
            f"{self.point_op}:"
            + _digest(
                {
                    "schema": SCHEMA_VERSION,
                    "instance": itoken,
                    "mechanism": mtoken,
                    "seed": seed_token(seed),
                    "params": params,
                }
            )
            for seed in self.seeds
        )


class _BaseStateRequest:
    """Identity shared by requests acting on a *base* state (delta, attack).

    The base payload is the instance, mechanism token, seed and
    ``estimator_params()``; :meth:`base_token` digests it.  The **routing
    key is the base digest only**, so every request on one base state
    consistent-hashes onto the same shard, whose warm state serves them
    all.  The coalesce key adds :meth:`_work_payload` (the edit chain, or
    the scenario and search knobs): only identical work shares a
    computation.
    """

    def _base_payload(self) -> Dict[str, Any]:
        mtoken = _mechanism_token(self.mechanism, self.instance)
        if mtoken is None:
            # Untokenisable mechanisms lose cross-process coalescing but
            # must still route deterministically (D203): fall back to
            # the mechanism's declared name.
            mtoken = ["name", getattr(self.mechanism, "name", type(self.mechanism).__name__)]
        return {
            "schema": SCHEMA_VERSION,
            "op": self.op,
            "instance": instance_token(self.instance),
            "mechanism": mtoken,
            "seed": seed_token(self.seed),
            "params": self.estimator_params(),
        }

    def base_token(self) -> str:
        """Content identity of the base state (no edits, no scenario)."""
        return _digest(self._base_payload())

    def coalesce_key(self) -> str:
        """Identity of this exact computation: base state + its work."""
        payload = self._base_payload()
        payload.update(self._work_payload())
        return f"{self.op}:" + _digest(payload)

    def group_key(self) -> str:
        """One batch group per base state, so its work runs in order."""
        return self.base_token()

    def routing_key(self) -> str:
        """Shard identity — base digest only, colocating a base's work."""
        return f"{self.op}:" + self.base_token()


@dataclass(frozen=True)
class DeltaRequest(_BaseStateRequest):
    """A validated delta-session request: base state plus an edit chain.

    The wire form of one :class:`~repro.incremental.session.DeltaSession`
    snapshot: the base ``instance``/``mechanism``/``seed``/session params
    identify the session, ``edits`` is the full chain of edit batches
    applied so far, and the response is the estimate of the *patched*
    state.  Clients resend the whole chain each time (idempotent, so a
    shard restart costs one rebuild, never a wrong answer); the server
    keeps warm sessions keyed by :meth:`session_token` and patches only
    the suffix it has not seen.  Routing on the base digest colocates a
    session's edits on the shard holding its warm state.
    """

    instance: ProblemInstance
    mechanism: DelegationMechanism
    rounds: int
    seed: int
    tie_policy: TiePolicy
    engine: str
    target_se: Optional[float]
    max_rounds: Optional[int]
    edits: Tuple[Tuple[Edit, ...], ...]

    op: str = "delta"

    def estimator_params(self) -> Dict[str, Any]:
        """Session-identity estimator params (the edit chain excluded)."""
        cap = self.rounds if self.max_rounds is None else self.max_rounds
        return {
            "fn": "delta_estimate",
            "engine": self.engine,
            "rounds": self.rounds,
            "tie_policy": self.tie_policy.name,
            "target_se": self.target_se,
            "max_rounds": None if self.target_se is None else cap,
        }

    def edit_batches(self) -> Tuple[Tuple[Dict[str, Any], ...], ...]:
        """The edit chain in canonical wire form."""
        return tuple(
            tuple(edit_to_dict(edit) for edit in batch) for batch in self.edits
        )

    def chain_digest(self) -> str:
        """Content digest of the edit chain."""
        return edit_chain_digest([list(batch) for batch in self.edits])

    def _work_payload(self) -> Dict[str, Any]:
        return {"edits": self.chain_digest()}

    def session_token(self) -> str:
        """Content identity of the session's *base* state (no edits)."""
        return self.base_token()


@dataclass(frozen=True)
class AttackRequest(_BaseStateRequest):
    """A validated attack-search request: base state plus a scenario.

    The wire form of one :class:`~repro.attacks.search.AttackSearch`
    run: ``instance``/``mechanism``/``seed`` and the estimation params
    identify the *base* state being attacked, ``scenario`` is the
    declarative attack spec, and ``budget``/``min_harm``/``margin``/
    ``max_steps`` steer the search.  The response is the search's
    :class:`~repro.attacks.search.AttackResult` wire dict — including,
    when a violation is found, the full
    :class:`~repro.attacks.certificates.ViolationCertificate`.  Routing
    on the base digest keeps one electorate's interned instance and warm
    state on one shard for every scenario probing it.
    """

    instance: ProblemInstance
    mechanism: DelegationMechanism
    mechanism_data: Any
    scenario: Any
    budget: int
    rounds: int
    seed: int
    tie_policy: TiePolicy
    engine: str
    min_harm: float
    margin: float
    max_steps: Optional[int]

    op: str = "attack"

    def estimator_params(self) -> Dict[str, Any]:
        """Base-identity estimator params (scenario and budget excluded)."""
        return {
            "fn": "attack_search",
            "engine": self.engine,
            "rounds": self.rounds,
            "tie_policy": self.tie_policy.name,
        }

    def _work_payload(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "search": {
                "budget": self.budget,
                "min_harm": self.min_harm,
                "margin": self.margin,
                "max_steps": self.max_steps,
            },
        }


Request = Union[
    EstimateRequest, ExperimentRequest, SweepRequest, DeltaRequest, AttackRequest
]


# -- the field table -------------------------------------------------------


_REQUIRED = Field(_given, required=True)
_SEED = Field(_int, 0, 0, MAX_SEED)
_TIE_POLICY = Field(_tie_policy, "INCORRECT", choices=TIE_POLICIES)
_MC_ENGINE = Field(_mc_engine, "batch", wire_only=True)
_TARGET_SE = Field(_positive)

_MC_FIELDS = {
    "instance": _REQUIRED,
    "mechanism": _REQUIRED,
    "rounds": Field(_int, 400, 1, MAX_ROUNDS),
    "seed": _SEED,
    "tie_policy": _TIE_POLICY,
    "engine": _MC_ENGINE,
    "target_se": _TARGET_SE,
    "max_rounds": Field(_capped_rounds, None, 1, MAX_ROUNDS),
}

_SESSION_FIELDS = dict(
    _MC_FIELDS,
    rounds=Field(_int, 64, 1, MAX_DELTA_ROUNDS),
    engine=Field(_choice, "mc", choices=ENGINES),
    max_rounds=Field(_capped_rounds, None, 1, MAX_DELTA_ROUNDS),
)

FIELDS: Dict[str, Dict[str, Field]] = {
    "estimate": dict(_MC_FIELDS, exact_conditional=Field(_bool, True)),
    "gain": dict(_MC_FIELDS, exact_conditional=Field(_bool, True)),
    "ballot": _MC_FIELDS,
    "experiment": {
        "experiment": Field(_experiment_id, required=True),
        "scale": Field(_choice, "default", choices=SCALES),
        "seed": _SEED,
        "engine": _MC_ENGINE,
        "target_se": _TARGET_SE,
    },
    "delta": dict(_SESSION_FIELDS, edits=Field(_edits, [])),
    "attack": {
        **{
            key: field for key, field in _SESSION_FIELDS.items()
            if key not in ("target_se", "max_rounds")
        },
        "scenario": Field(_scenario, required=True),
        "budget": Field(_int, 8, 1, MAX_ATTACK_BUDGET),
        "min_harm": Field(_float, 0.05, 0.0, 1.0),
        "margin": Field(_float, 2.0, 0.0, 100.0),
        "max_steps": Field(_int, None, 1, MAX_ATTACK_STEPS),
    },
}
"""Op → field name → :class:`Field`: every top-level key an op accepts
(besides ``v`` and ``op``), with its default and bounds.  Table order is
read order: a field may depend on those read before it."""

POINT_OPS = ("estimate", "gain", "ballot")

_SWEEP_FIELDS = {
    point_op: {
        **{key: field for key, field in FIELDS[point_op].items() if key != "seed"},
        "seeds": Field(_seeds, low=0, high=MAX_SEED, required=True),
        "point_op": Field(_choice, "estimate", choices=POINT_OPS),
        "indices": Field(_indices, low=0),
    }
    for point_op in POINT_OPS
}
"""A sweep accepts its point op's fields, with ``seeds`` for ``seed``."""
FIELDS["sweep"] = _SWEEP_FIELDS["estimate"]

_REQUEST_TYPES = {
    "estimate": EstimateRequest,
    "gain": EstimateRequest,
    "ballot": EstimateRequest,
    "experiment": ExperimentRequest,
    "sweep": SweepRequest,
    "delta": DeltaRequest,
    "attack": AttackRequest,
}


def parse_body(raw: bytes, max_bytes: int = MAX_PAYLOAD_BYTES) -> Dict[str, Any]:
    """Decode and envelope-check a request body.

    Raises typed errors: ``payload_too_large`` (body over ``max_bytes``),
    ``bad_json`` (undecodable), ``unsupported_version`` (missing/other
    ``v``), ``bad_request`` (non-object body or unknown ``op``).
    """
    if len(raw) > max_bytes:
        raise ServiceError(
            "payload_too_large",
            f"request body is {len(raw)} bytes (limit {max_bytes})",
        )
    try:
        data = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ServiceError("bad_json", f"request body is not valid JSON: {exc}")
    if not isinstance(data, dict):
        raise _bad(f"request body must be a JSON object, got {type(data).__name__}")
    version = data.get("v")
    if version != PROTOCOL_VERSION:
        raise ServiceError(
            "unsupported_version",
            f"protocol version {version!r} is not supported "
            f"(this server speaks v{PROTOCOL_VERSION})",
        )
    if data.get("op") not in OPS:
        raise _bad(f"'op' must be one of {list(OPS)}, got {data.get('op')!r}")
    return data


def parse_request(
    data: Mapping[str, Any],
    instances: Optional[InternPool] = None,
    mechanisms: Optional[InternPool] = None,
) -> Request:
    """Validate an envelope-checked body into a typed request.

    Every op reads its fields through :data:`FIELDS`.  ``instances``/
    ``mechanisms`` intern deserialised objects across requests (see
    :class:`InternPool`); omitted, every call builds fresh objects —
    same results, colder caches.
    """
    op = data["op"]
    fields = FIELDS[op]
    if op == "sweep" and data.get("point_op") in POINT_OPS:
        fields = _SWEEP_FIELDS[data["point_op"]]
    _check_keys(data, ("v", "op", *fields))
    values: Dict[str, Any] = {}
    for key, field in fields.items():
        value = data.get(key, field.default)
        if value is None:
            if field.required or field.default is not None:
                raise _bad(f"{key!r} is required")
            values[key] = None
        elif field.wire_only:
            field.read(key, value, field, values)
        else:
            values[key] = field.read(key, value, field, values)
    if "instance" in values:
        raw = values["instance"]
        values["instance"] = (
            instances.get(raw) if instances is not None else _build_instance(raw)
        )
        raw = values["mechanism"]
        values["mechanism"] = (
            mechanisms.get(raw) if mechanisms is not None else build_mechanism(raw)
        )
    if op in ("delta", "attack"):
        mechanism = values["mechanism"]
        if not isinstance(mechanism, LocalDelegationMechanism) or not (
            mechanism.supports_batch_sampling
        ):
            raise _bad(
                f"{op!r} requires a local mechanism with a batch kernel, "
                f"got {getattr(mechanism, 'name', type(mechanism).__name__)!r}"
            )
    if op == "attack":
        values["mechanism_data"] = data["mechanism"]
    return _REQUEST_TYPES[op](op=op, **values)


# -- result payloads -------------------------------------------------------


def estimate_from_payload(data: Mapping[str, Any]) -> CorrectnessEstimate:
    """A :class:`CorrectnessEstimate` from its wire dict (client side).

    A malformed payload is a typed ``internal`` error.
    """
    try:
        return CorrectnessEstimate.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(
            "internal", f"malformed estimate payload from server: {exc}"
        ) from None


def gain_payload(
    gain: float, est: CorrectnessEstimate, direct: float
) -> Dict[str, Any]:
    """Wire form of an :func:`~repro.voting.montecarlo.estimate_gain` triple."""
    return {"gain": gain, "direct": direct, "estimate": est.to_dict()}


def gain_from_payload(
    data: Mapping[str, Any],
) -> Tuple[float, CorrectnessEstimate, float]:
    """Inverse of :func:`gain_payload` (client side)."""
    try:
        return (
            float(data["gain"]),
            estimate_from_payload(data["estimate"]),
            float(data["direct"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(
            "internal", f"malformed gain payload from server: {exc}"
        ) from None
