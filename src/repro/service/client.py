"""Synchronous client for the estimation service.

A thin stdlib (`http.client`) wrapper that speaks the JSON protocol of
:mod:`repro.service.protocol` and returns the same types the library
API returns — :meth:`ServiceClient.estimate` gives back a
:class:`~repro.voting.montecarlo.CorrectnessEstimate` bit-identical to
the one ``estimate_correct_probability`` would have produced locally.

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
    PROTOCOL_VERSION,
    ServiceError,
    estimate_from_payload,
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
        return self._decode(response.status, raw)

    @staticmethod
    def _decode(status: int, raw: bytes) -> Dict[str, Any]:
        try:
            data = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise ServiceError(
                "internal",
                f"server returned non-JSON response (HTTP {status})",
            ) from None
        if not isinstance(data, dict) or data.get("ok") is not True:
            error = data.get("error") if isinstance(data, dict) else None
            if isinstance(error, dict) and "code" in error:
                try:
                    raise ServiceError(
                        error["code"], str(error.get("message", ""))
                    )
                except ValueError:  # unknown code from a newer server
                    pass
            raise ServiceError(
                "internal", f"unexpected server response (HTTP {status})"
            )
        return data

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

    def _estimate_body(
        self,
        op: str,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        rounds: int,
        seed: int,
        tie_policy: str,
        target_se: Optional[float],
        max_rounds: Optional[int],
        exact_conditional: Optional[bool],
    ) -> Dict[str, Any]:
        body: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": op,
            "instance": self.serialise_instance(instance),
            "mechanism": dict(mechanism),
            "rounds": rounds,
            "seed": seed,
            "tie_policy": tie_policy,
        }
        if exact_conditional is not None:
            body["exact_conditional"] = exact_conditional
        if target_se is not None:
            body["target_se"] = target_se
        if max_rounds is not None:
            body["max_rounds"] = max_rounds
        return body

    # -- operations --------------------------------------------------------

    def estimate(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        *,
        rounds: int = 400,
        seed: int = 0,
        tie_policy: str = "INCORRECT",
        exact_conditional: bool = True,
        target_se: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> CorrectnessEstimate:
        """Served :func:`~repro.voting.montecarlo.estimate_correct_probability`."""
        body = self._estimate_body(
            "estimate", instance, mechanism, rounds, seed, tie_policy,
            target_se, max_rounds, exact_conditional,
        )
        data = self._request("POST", "/v1/estimate", body)
        return estimate_from_payload(data["result"])

    def gain(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        *,
        rounds: int = 400,
        seed: int = 0,
        tie_policy: str = "INCORRECT",
        exact_conditional: bool = True,
        target_se: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> Tuple[float, CorrectnessEstimate, float]:
        """Served :func:`~repro.voting.montecarlo.estimate_gain` triple."""
        body = self._estimate_body(
            "gain", instance, mechanism, rounds, seed, tie_policy,
            target_se, max_rounds, exact_conditional,
        )
        result = self._request("POST", "/v1/gain", body)["result"]
        try:
            return (
                float(result["gain"]),
                estimate_from_payload(result["estimate"]),
                float(result["direct"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(
                "internal", f"malformed gain payload from server: {exc}"
            ) from None

    def ballot(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        *,
        rounds: int = 400,
        seed: int = 0,
        tie_policy: str = "INCORRECT",
        target_se: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> CorrectnessEstimate:
        """Served :func:`~repro.voting.montecarlo.estimate_ballot_probability`."""
        body = self._estimate_body(
            "ballot", instance, mechanism, rounds, seed, tie_policy,
            target_se, max_rounds, exact_conditional=None,
        )
        data = self._request("POST", "/v1/ballot", body)
        return estimate_from_payload(data["result"])

    def experiment(
        self,
        experiment: str,
        *,
        scale: str = "default",
        seed: int = 0,
        target_se: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Run a registered experiment table server-side.

        Returns the serialised :class:`~repro.experiments.base.
        ExperimentResult` dict (``repro.io.result_from_dict`` rebuilds
        the dataclass if needed).
        """
        body: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": "experiment",
            "experiment": experiment,
            "scale": scale,
            "seed": seed,
        }
        if target_se is not None:
            body["target_se"] = target_se
        return self._request("POST", "/v1/experiment", body)["result"]

    def iter_sweep(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        *,
        seeds: Sequence[int],
        point_op: str = "estimate",
        rounds: int = 400,
        tie_policy: str = "INCORRECT",
        exact_conditional: bool = True,
        target_se: Optional[float] = None,
        max_rounds: Optional[int] = None,
        indices: Optional[Sequence[int]] = None,
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
        body = self._estimate_body(
            "sweep", instance, mechanism, rounds, 0, tie_policy,
            target_se, max_rounds,
            None if point_op == "ballot" else exact_conditional,
        )
        del body["seed"]
        body["seeds"] = [int(seed) for seed in seeds]
        body["point_op"] = point_op
        if indices is not None:
            body["indices"] = [int(index) for index in indices]
        expected = len(body.get("indices", body["seeds"]))
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
                    error = data.get("error") or {}
                    raise ServiceError(
                        error.get("code", "internal"),
                        f"sweep point {data.get('i')}: "
                        f"{error.get('message', 'unknown failure')}",
                    )
                seen += 1
                yield int(data["i"]), self._point_result(point_op, data["result"])
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
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        *,
        seeds: Sequence[int],
        point_op: str = "estimate",
        rounds: int = 400,
        tie_policy: str = "INCORRECT",
        exact_conditional: bool = True,
        target_se: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> List[Any]:
        """A whole sweep, reassembled into seed order.

        Convenience over :meth:`iter_sweep`: blocks until every point
        has streamed back and returns ``results[i]`` for ``seeds[i]``.
        """
        results: List[Any] = [None] * len(seeds)
        for index, result in self.iter_sweep(
            instance, mechanism, seeds=seeds, point_op=point_op,
            rounds=rounds, tie_policy=tie_policy,
            exact_conditional=exact_conditional,
            target_se=target_se, max_rounds=max_rounds,
        ):
            results[index] = result
        return results

    @staticmethod
    def _point_result(point_op: str, result: Mapping[str, Any]) -> Any:
        if point_op == "gain":
            try:
                return (
                    float(result["gain"]),
                    estimate_from_payload(result["estimate"]),
                    float(result["direct"]),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ServiceError(
                    "internal", f"malformed gain payload from server: {exc}"
                ) from None
        return estimate_from_payload(result)

    def delta(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        *,
        edits: Sequence[Sequence[Any]] = (),
        rounds: int = 64,
        seed: int = 0,
        tie_policy: str = "INCORRECT",
        engine: str = "mc",
        target_se: Optional[float] = None,
        max_rounds: Optional[int] = None,
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
        body: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": "delta",
            "instance": self.serialise_instance(instance),
            "mechanism": dict(mechanism),
            "rounds": rounds,
            "seed": seed,
            "tie_policy": tie_policy,
            "engine": engine,
            "edits": [canonical_batch(batch) for batch in edits],
        }
        if target_se is not None:
            body["target_se"] = target_se
        if max_rounds is not None:
            body["max_rounds"] = max_rounds
        return self._request("POST", "/v1/delta", body)["result"]

    def delta_session(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        *,
        rounds: int = 64,
        seed: int = 0,
        tie_policy: str = "INCORRECT",
        engine: str = "mc",
    ) -> "RemoteDeltaSession":
        """Open a client-side handle on a served delta session."""
        return RemoteDeltaSession(
            self, instance, mechanism, rounds=rounds, seed=seed,
            tie_policy=tie_policy, engine=engine,
        )

    def attack(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        scenario: Mapping[str, Any],
        *,
        budget: int = 8,
        rounds: int = 64,
        seed: int = 0,
        tie_policy: str = "INCORRECT",
        engine: str = "mc",
        min_harm: float = 0.05,
        margin: float = 2.0,
        max_steps: Optional[int] = None,
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
        body: Dict[str, Any] = {
            "v": PROTOCOL_VERSION,
            "op": "attack",
            "instance": self.serialise_instance(instance),
            "mechanism": dict(mechanism),
            "scenario": dict(scenario),
            "budget": budget,
            "rounds": rounds,
            "seed": seed,
            "tie_policy": tie_policy,
            "engine": engine,
            "min_harm": min_harm,
            "margin": margin,
        }
        if max_steps is not None:
            body["max_steps"] = max_steps
        return self._request("POST", "/v1/attack", body)["result"]

    def attack_search(
        self,
        instance: InstanceLike,
        mechanism: Mapping[str, Any],
        scenario: Mapping[str, Any],
        **kwargs: Any,
    ) -> "RemoteAttackSearch":
        """A client-side handle on a served attack search."""
        return RemoteAttackSearch(self, instance, mechanism, scenario, **kwargs)

    # -- introspection -----------------------------------------------------

    def healthz(self) -> Dict[str, Any]:
        """The server's liveness payload."""
        return self._request("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """The server's metrics snapshot (see ``docs/serving.md``)."""
        return self._request("GET", "/metrics")["metrics"]


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
        *,
        rounds: int = 64,
        seed: int = 0,
        tie_policy: str = "INCORRECT",
        engine: str = "mc",
    ) -> None:
        self._client = client
        self._instance = client.serialise_instance(instance)
        self._mechanism = dict(mechanism)
        self._rounds = rounds
        self._seed = seed
        self._tie_policy = tie_policy
        self._engine = engine
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
            self._instance,
            self._mechanism,
            edits=self._batches,
            rounds=self._rounds,
            seed=self._seed,
            tie_policy=self._tie_policy,
            engine=self._engine,
            target_se=target_se,
            max_rounds=max_rounds,
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
        *,
        budget: int = 8,
        rounds: int = 64,
        seed: int = 0,
        tie_policy: str = "INCORRECT",
        engine: str = "mc",
        min_harm: float = 0.05,
        margin: float = 2.0,
        max_steps: Optional[int] = None,
    ) -> None:
        self._client = client
        self._instance = client.serialise_instance(instance)
        self._mechanism = dict(mechanism)
        self._scenario = dict(scenario)
        self._budget = budget
        self._rounds = rounds
        self._seed = seed
        self._tie_policy = tie_policy
        self._engine = engine
        self._min_harm = min_harm
        self._margin = margin
        self._max_steps = max_steps
        self.last_result: Optional[Dict[str, Any]] = None
        """Raw wire dict of the most recent :meth:`run`."""

    def run(self, *, budget: Optional[int] = None) -> Any:
        """Run the search server-side; returns an ``AttackResult``.

        ``budget`` overrides the configured budget for this run only
        (the budget-ladder pattern: same base, growing budgets).
        """
        result = self._client.attack(
            self._instance,
            self._mechanism,
            self._scenario,
            budget=self._budget if budget is None else budget,
            rounds=self._rounds,
            seed=self._seed,
            tie_policy=self._tie_policy,
            engine=self._engine,
            min_harm=self._min_harm,
            margin=self._margin,
            max_steps=self._max_steps,
        )
        self.last_result = result
        from repro.attacks.search import AttackResult

        try:
            return AttackResult.from_dict(result)
        except ValueError as exc:
            raise ServiceError(
                "internal", f"malformed attack payload from server: {exc}"
            ) from None
