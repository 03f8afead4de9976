"""Synchronous client for the estimation service.

A thin stdlib (`http.client`) wrapper that speaks the JSON protocol of
:mod:`repro.service.protocol` and returns the same types the library
API returns — :meth:`ServiceClient.estimate` gives back a
:class:`~repro.voting.montecarlo.CorrectnessEstimate` bit-identical to
the one ``estimate_correct_probability`` would have produced locally.

Request keywords are the op's :data:`~repro.service.protocol.FIELDS`
keys.  The client sends only the fields a caller gives (``None`` means
not given), so every default lives in that table and the server fills
it in; a keyword the op does not accept is a ``TypeError`` before
anything is sent.

Connections are keep-alive and per-thread (``http.client`` connections
are not thread-safe), so one ``ServiceClient`` may be shared by many
threads — each quietly gets its own socket.  A *stale* keep-alive
socket — the server restarted between requests, or an idle timeout
closed it — surfaces as a reset/disconnect on first reuse; the client
transparently reconnects and resends once (safe: the determinism
contract makes every request idempotent).  Timeouts are never retried —
the first wait already consumed the caller's deadline — and surface as
``ServiceError("timeout", ...)``.  Typed server errors (``queue_full``,
``timeout``, ``shutting_down``, ...) surface as
:class:`~repro.service.protocol.ServiceError` with the code intact, so
callers branch on ``exc.code`` rather than parsing prose.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.incremental.edits import canonical_batch
from repro.service.protocol import (
    _SWEEP_FIELDS,
    FIELDS,
    HTTP_STATUS,
    PROTOCOL_VERSION,
    ServiceError,
    estimate_from_payload,
    gain_from_payload,
)
from repro.voting.montecarlo import CorrectnessEstimate

InstanceLike = Union[Any, Dict[str, Any]]

_STALE_SOCKET_ERRORS = (
    ConnectionResetError,
    BrokenPipeError,
    http.client.BadStatusLine,  # includes RemoteDisconnected
    http.client.CannotSendRequest,
)
"""Failures meaning *this socket* died, not the server: reconnect once."""

_POINT_RESULTS: Dict[str, Callable[[Any], Any]] = {
    "estimate": estimate_from_payload,
    "gain": gain_from_payload,
    "ballot": estimate_from_payload,
}
"""Point op → decoder of its result payload."""


def _typed_error(error: Any, fallback: str, prefix: str = "") -> ServiceError:
    """The typed error a response's ``error`` object names.

    A missing or malformed object, or a code this client does not know
    (a newer server's), becomes ``internal`` with the ``fallback`` text.
    """
    if isinstance(error, dict) and error.get("code") in HTTP_STATUS:
        return ServiceError(error["code"], prefix + str(error.get("message", "")))
    return ServiceError("internal", prefix + fallback)


def _check_fields(op: str, fields: Mapping[str, Any], *owned: str) -> None:
    """Reject, as Python would, a keyword that ``op`` does not accept.

    The accepted names are ``FIELDS[op]`` apart from its wire-only
    fields and the ``owned`` ones a handle fills in itself; a sweep
    accepts those of its ``point_op``, so a ballot sweep has no
    ``exact_conditional``.
    """
    allowed = FIELDS[op]
    if op == "sweep":
        allowed = _SWEEP_FIELDS.get(fields.get("point_op"), allowed)
    for key in fields:
        if key not in allowed or allowed[key].wire_only or key in owned:
            raise TypeError(f"{op}() got an unexpected keyword argument {key!r}")


class ServiceClient:
    """A client for one estimation server; see the module docstring.

    ``instance`` arguments accept either a
    :class:`~repro.core.instance.ProblemInstance` (serialised per call
    via :func:`repro.io.instance_to_dict`) or an already-serialised
    instance dict — pass the dict when issuing many requests over the
    same instance to keep serialisation off the hot path.  ``mechanism``
    arguments are declarative specs (see
    :func:`repro.service.protocol.mechanism_spec`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8577,
        timeout: float = 120.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self._local = threading.local()

    # -- transport ---------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._local.conn = conn
        return conn

    def _exchange(
        self,
        method: str,
        path: str,
        payload: Optional[bytes],
        headers: Dict[str, str],
    ) -> http.client.HTTPResponse:
        """Send one request, reconnecting once on a stale socket.

        Only *socket-died* failures (:data:`_STALE_SOCKET_ERRORS`) are
        retried: the server restarting between keep-alive requests is
        indistinguishable from an idle-timeout close, and resending is
        safe because served computations are deterministic in the
        request.  Anything else — timeout, refused connection, protocol
        garbage — propagates to :meth:`_request` untouched.
        """
        conn = self._connection()
        try:
            conn.request(method, path, body=payload, headers=headers)
            return conn.getresponse()
        except _STALE_SOCKET_ERRORS:
            conn.close()
            conn.request(method, path, body=payload, headers=headers)
            return conn.getresponse()

    def _request(
        self, method: str, path: str, body: Optional[Dict[str, Any]] = None
    ) -> Dict[str, Any]:
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            response = self._exchange(method, path, payload, headers)
            raw = response.read()
        except socket.timeout:
            self.close()
            raise ServiceError(
                "timeout",
                f"no response from {self.host}:{self.port} "
                f"within {self.timeout}s",
            ) from None
        except (http.client.HTTPException, OSError) as exc:
            self.close()
            raise ServiceError(
                "internal",
                f"transport failure talking to "
                f"{self.host}:{self.port}: {type(exc).__name__}: {exc}",
            ) from None
        return self._decode(response.status, raw, health=path == "/healthz")

    @staticmethod
    def _decode(status: int, raw: bytes, health: bool = False) -> Dict[str, Any]:
        """The JSON payload of a success, else its typed error raised.

        A ``health`` answer is returned whenever it is HTTP 200: a
        degraded or draining fleet says ``ok: false`` there and is still
        answering.
        """
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServiceError(
                "internal",
                f"server returned non-JSON response (HTTP {status})",
            ) from None
        if isinstance(data, dict) and (
            data.get("ok") is True or (health and status == 200)
        ):
            return data
        error = data.get("error") if isinstance(data, dict) else None
        raise _typed_error(error, f"unexpected server response (HTTP {status})")

    def close(self) -> None:
        """Close this thread's connection (others close on GC)."""
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- payload assembly --------------------------------------------------

    @staticmethod
    def serialise_instance(instance: InstanceLike) -> Dict[str, Any]:
        """The wire form of ``instance`` (pass-through for dicts)."""
        if isinstance(instance, dict):
            return instance
        from repro.io import instance_to_dict

        return instance_to_dict(instance)

    @staticmethod
    def _body(op: str, **fields: Any) -> Dict[str, Any]:
        """The request body of ``op``: the given ``fields`` in wire form.

        Keyword names are checked against the field table; ``None``
        values are dropped and nothing else is added, so the server
        applies the table's defaults.
        """
        _check_fields(op, fields)
        body: Dict[str, Any] = {"v": PROTOCOL_VERSION, "op": op}
        for key, value in fields.items():
            if value is not None:
                encode = _ENCODERS.get(key)
                body[key] = value if encode is None else encode(value)
        return body

    def _call(self, op: str, **fields: Any) -> Any:
        """One ``POST /v1/<op>`` round trip; returns the ``result``."""
        return self._request("POST", f"/v1/{op}", self._body(op, **fields))["result"]

    def _point(
        self, op: str, instance: InstanceLike, mechanism: Any, fields: Dict[str, Any]
    ) -> Any:
        """One estimate, gain or ballot round trip, decoded."""
        result = self._call(op, instance=instance, mechanism=mechanism, **fields)
        return _POINT_RESULTS[op](result)

    # -- operations --------------------------------------------------------

    def estimate(
        self, instance: InstanceLike, mechanism: Mapping[str, Any], **fields: Any
    ) -> CorrectnessEstimate:
        """Served :func:`~repro.voting.montecarlo.estimate_correct_probability`."""
        return self._point("estimate", instance, mechanism, fields)

    def gain(
        self, instance: InstanceLike, mechanism: Mapping[str, Any], **fields: Any
    ) -> Tuple[float, CorrectnessEstimate, float]:
        """Served :func:`~repro.voting.montecarlo.estimate_gain` triple."""
        return self._point("gain", instance, mechanism, fields)

    def ballot(
        self, instance: InstanceLike, mechanism: Mapping[str, Any], **fields: Any
    ) -> CorrectnessEstimate:
        """Served :func:`~repro.voting.montecarlo.estimate_ballot_probability`."""
        return self._point("ballot", instance, mechanism, fields)

    def experiment(self, experiment: str, **fields: Any) -> Dict[str, Any]:
        """Run a registered experiment table server-side.

        Returns the serialised :class:`~repro.experiments.base.
        ExperimentResult` dict (``repro.io.result_from_dict`` rebuilds
        the dataclass if needed).
        """
        return self._call("experiment", experiment=experiment, **fields)

    def iter_sweep(
        self, instance: InstanceLike, mechanism: Mapping[str, Any], **fields: Any
    ) -> Iterator[Tuple[int, Any]]:
        """Stream a sweep: yield ``(index, result)`` as points complete.

        One request, one response — but the response is chunked NDJSON,
        so results arrive (and are yielded) in *completion* order while
        later points are still computing; ``index`` says which seed each
        one belongs to.  ``result`` matches the single-point method for
        ``point_op`` (:meth:`estimate`, :meth:`gain`, :meth:`ballot`).
        A failed point, or a stream cut off before its ``done`` line,
        raises :class:`ServiceError`.  Abandoning the iterator early
        closes this thread's connection (the unread tail poisons it for
        keep-alive reuse).
        """
        body = self._body("sweep", instance=instance, mechanism=mechanism, **fields)
        return self._stream_sweep(body)

    def _stream_sweep(self, body: Dict[str, Any]) -> Iterator[Tuple[int, Any]]:
        point_op = body.get("point_op", FIELDS["sweep"]["point_op"].default)
        expected = len(body.get("indices", body.get("seeds", ())))
        payload = json.dumps(body).encode()
        headers = {"Content-Type": "application/json"}
        clean = False
        try:
            response = self._exchange("POST", "/v1/sweep", payload, headers)
            if response.status != 200:
                raw = response.read()
                clean = True
                self._decode(response.status, raw)  # raises the typed error
                raise ServiceError(
                    "internal", f"unexpected sweep response (HTTP {response.status})"
                )
            seen = 0
            while True:
                line = response.readline()
                if not line:
                    raise ServiceError(
                        "internal",
                        f"sweep stream truncated after {seen} of "
                        f"{expected} points (no 'done' terminator)",
                    )
                data = json.loads(line)
                if data.get("done"):
                    if data.get("n") != expected or seen != expected:
                        raise ServiceError(
                            "internal",
                            f"sweep stream delivered {seen} points, "
                            f"terminator says {data.get('n')}, "
                            f"expected {expected}",
                        )
                    response.read()  # drain the terminal chunk for keep-alive
                    clean = True
                    return
                if data.get("ok") is not True:
                    raise _typed_error(
                        data.get("error"), "unknown failure",
                        prefix=f"sweep point {data.get('i')}: ",
                    )
                seen += 1
                yield int(data["i"]), _POINT_RESULTS[point_op](data["result"])
        except socket.timeout:
            raise ServiceError(
                "timeout",
                f"no sweep data from {self.host}:{self.port} "
                f"within {self.timeout}s",
            ) from None
        except (http.client.HTTPException, OSError, ValueError, KeyError) as exc:
            raise ServiceError(
                "internal",
                f"sweep transport failure talking to "
                f"{self.host}:{self.port}: {type(exc).__name__}: {exc}",
            ) from None
        finally:
            if not clean:
                self.close()

    def sweep(
        self, instance: InstanceLike, mechanism: Mapping[str, Any], **fields: Any
    ) -> List[Any]:
        """A whole sweep, reassembled into seed order.

        Convenience over :meth:`iter_sweep`: blocks until every point
        has streamed back and returns ``results[i]`` for ``seeds[i]``.
        """
        body = self._body("sweep", instance=instance, mechanism=mechanism, **fields)
        results: List[Any] = [None] * len(body.get("seeds", ()))
        for index, result in self._stream_sweep(body):
            results[index] = result
        return results

    def delta(
        self, instance: InstanceLike, mechanism: Mapping[str, Any], **fields: Any
    ) -> Dict[str, Any]:
        """One raw ``/v1/delta`` round trip.

        ``instance`` is the session's *base* instance and ``edits`` the
        full chain of edit batches (lists of edit dicts or
        :mod:`repro.incremental.edits` objects) applied on top of it.
        Returns the result payload: ``{"estimate": ..., "delta": ...}``
        where ``delta`` is server-side session metadata (how much of the
        chain was patched onto a warm session vs rebuilt).  Most callers
        want :meth:`delta_session` instead.
        """
        return self._call("delta", instance=instance, mechanism=mechanism, **fields)

    def delta_session(
        self, instance: InstanceLike, mechanism: Mapping[str, Any], **fields: Any
    ) -> "RemoteDeltaSession":
        """Open a client-side handle on a served delta session."""
        return RemoteDeltaSession(self, instance, mechanism, **fields)

    def attack(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        scenario: Mapping[str, Any],
        **fields: Any,
    ) -> Dict[str, Any]:
        """One raw ``/v1/attack`` round trip.

        ``scenario`` is a declarative attack spec (see
        :func:`repro.attacks.scenarios.scenario_spec`).  Returns the
        :class:`~repro.attacks.search.AttackResult` wire dict — bitwise
        identical to running the same search locally, including the
        :class:`~repro.attacks.certificates.ViolationCertificate` when a
        violation is found.  Most callers want :class:`RemoteAttackSearch`
        (:meth:`attack_search`) for typed results.
        """
        return self._call(
            "attack", instance=instance, mechanism=mechanism, scenario=scenario,
            **fields,
        )

    def attack_search(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        scenario: Mapping[str, Any],
        **fields: Any,
    ) -> "RemoteAttackSearch":
        """A client-side handle on a served attack search."""
        return RemoteAttackSearch(self, instance, mechanism, scenario, **fields)

    # -- introspection -----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The server's liveness payload, also a degraded or draining
        fleet's ``ok: false`` one (see ``docs/serving.md``)."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics snapshot (see ``docs/serving.md``)."""
        return self._request("GET", "/metrics")["metrics"]


_ENCODERS: Dict[str, Callable[[Any], Any]] = {
    "instance": ServiceClient.serialise_instance,
    "mechanism": dict,
    "scenario": dict,
    "edits": lambda batches: [canonical_batch(batch) for batch in batches],
    "seeds": lambda seeds: [int(seed) for seed in seeds],
    "indices": lambda indices: [int(index) for index in indices],
}
"""Field → its wire form, for the fields callers may pass as objects."""


class RemoteDeltaSession:
    """Client-side handle on a served delta session.

    Mirrors :class:`repro.incremental.session.DeltaSession`: accumulate
    edit batches with :meth:`apply`, read estimates of the patched state
    with :meth:`estimate`.  The handle keeps only the base instance and
    the canonical edit chain; every estimate resends the *whole* chain,
    so the exchange is idempotent — if the serving shard restarted (or
    its warm-session pool evicted this session), the server rebuilds
    from the base and the answer is unchanged, because a session is a
    pure function of ``(base, chain)``.  The routing key derives from
    the base digest only, so all of one session's requests land on one
    shard and normally hit its warm state.
    """

    def __init__(
        self,
        client: ServiceClient,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        **fields: Any,
    ) -> None:
        _check_fields("delta", fields, "edits", "target_se", "max_rounds")
        self._client = client
        self._instance = client.serialise_instance(instance)
        self._mechanism = dict(mechanism)
        self._fields = fields
        self._batches: List[List[Dict[str, Any]]] = []
        self.last_delta: Optional[Dict[str, Any]] = None
        """Server-side metadata of the most recent estimate (patched
        batch count, session token, patch statistics)."""

    def apply(self, edits: Sequence[Any]) -> "RemoteDeltaSession":
        """Append one edit batch (validated and canonicalised locally)."""
        self._batches.append(canonical_batch(edits))
        return self

    def edit_batches(self) -> List[List[Dict[str, Any]]]:
        """The accumulated edit chain in canonical wire form."""
        return [list(batch) for batch in self._batches]

    def estimate(
        self,
        *,
        target_se: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> CorrectnessEstimate:
        """The served estimate of the current patched state."""
        result = self._client.delta(
            self._instance, self._mechanism, edits=self._batches,
            target_se=target_se, max_rounds=max_rounds, **self._fields,
        )
        try:
            estimate = estimate_from_payload(result["estimate"])
        except (KeyError, TypeError) as exc:
            raise ServiceError(
                "internal", f"malformed delta payload from server: {exc}"
            ) from None
        self.last_delta = result.get("delta")
        return estimate


class RemoteAttackSearch:
    """Client-side handle on a served attack search.

    Mirrors :class:`repro.attacks.search.AttackSearch`: configure once,
    :meth:`run` to get a typed :class:`~repro.attacks.search.AttackResult`.
    The handle keeps the serialised base instance, so repeated runs (for
    example a budget ladder over one electorate) serialise it once; the
    routing key derives from the base digest only, so they all land on
    one shard where the interned instance stays warm.
    """

    def __init__(
        self,
        client: ServiceClient,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        scenario: Mapping[str, Any],
        **fields: Any,
    ) -> None:
        _check_fields("attack", fields)
        self._client = client
        self._instance = client.serialise_instance(instance)
        self._mechanism = dict(mechanism)
        self._scenario = dict(scenario)
        self._fields = fields
        self.last_result: Optional[Dict[str, Any]] = None
        """Raw wire dict of the most recent :meth:`run`."""

    def run(self, *, budget: Optional[int] = None) -> Any:
        """Run the search server-side; returns an ``AttackResult``.

        ``budget`` overrides the configured budget for this run only
        (the budget-ladder pattern: same base, growing budgets).
        """
        fields = self._fields if budget is None else dict(self._fields, budget=budget)
        result = self._client.attack(
            self._instance, self._mechanism, self._scenario, **fields
        )
        self.last_result = result
        from repro.attacks.search import AttackResult

        try:
            return AttackResult.from_dict(result)
        except ValueError as exc:
            raise ServiceError(
                "internal", f"malformed attack payload from server: {exc}"
            ) from None
