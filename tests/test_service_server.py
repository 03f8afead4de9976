"""End-to-end tests for the estimation server and client.

The load-bearing test is the determinism contract: an estimate served
over HTTP is *bit-identical* to the same call made directly against the
library API, cache-cold and cache-warm.  The rest
exercises the failure surface the issue pins down: malformed JSON,
unknown schema version, oversized payloads, queue-full rejection and
mid-request shutdown must all come back as typed errors while the
server keeps serving.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import os
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.cache import EstimateCache
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.experiments import ExperimentConfig, get_experiment
from repro.graphs.generators import barabasi_albert_graph, complete_graph
from repro.io import instance_to_dict
from repro.service import (
    BackgroundServer,
    ServerConfig,
    ServiceClient,
    ServiceError,
    mechanism_spec,
)
from repro.service.protocol import PROTOCOL_VERSION, build_mechanism
from repro.voting.montecarlo import (
    estimate_ballot_probability,
    estimate_correct_probability,
    estimate_gain,
)

MECH_SPEC = mechanism_spec("approval_threshold", threshold=2)


def _instance(n: int = 24, seed: int = 0) -> ProblemInstance:
    comp = bounded_uniform_competencies(n, 0.35, seed=seed)
    return ProblemInstance(complete_graph(n), comp, alpha=0.05)


def _post_raw(port: int, path: str, body: bytes, headers=None):
    """A raw HTTP POST, bypassing the client's validation."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request(
            "POST", path, body=body,
            headers=headers or {"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read().decode())
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServerConfig(port=0, workers=2)) as bg:
        yield bg


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port)


class TestDeterminism:
    """Served == direct, bitwise, cold and warm."""

    def test_estimate_batch_engine(self, client):
        served = client.estimate(_instance(), MECH_SPEC, rounds=60, seed=7)
        direct = estimate_correct_probability(
            _instance(), build_mechanism(MECH_SPEC),
            rounds=60, seed=7, engine="batch", n_jobs=1,
        )
        assert served == direct

    def test_estimate_independent_of_server_history(self):
        """A warm per-group estimator serves the bits of a fresh one.

        BA(300, m=3, seed 3): after requests for rounds 1, 3 and 9 on
        the same instance and mechanism, 17 rounds were once served as
        ...822 against the direct ...825, because cached profile values
        carried the rounding of the batches they were computed in.
        """
        n = 300
        instance = ProblemInstance(
            barabasi_albert_graph(n, 3, seed=3),
            np.random.default_rng(3).uniform(0.3, 0.7, n),
            alpha=0.05,
        )
        direct = estimate_correct_probability(
            instance, build_mechanism(MECH_SPEC), rounds=17, seed=3
        )
        with BackgroundServer(ServerConfig(port=0, workers=1)) as bg:
            client = ServiceClient(port=bg.port)
            for rounds in (1, 3, 9):
                client.estimate(instance, MECH_SPEC, rounds=rounds, seed=3)
            served = client.estimate(instance, MECH_SPEC, rounds=17, seed=3)
        assert served == direct

    def test_estimate_serial_engine_rejected(self, server):
        """The removed serial engine is a typed error, naming the removal."""
        for op in ("estimate", "sweep", "experiment"):
            body = {
                "v": PROTOCOL_VERSION,
                "op": op,
                "instance": instance_to_dict(_instance()),
                "mechanism": MECH_SPEC,
                "engine": "serial",
            }
            if op == "sweep":
                body["seeds"] = [0]
            if op == "experiment":
                body = {"v": PROTOCOL_VERSION, "op": op, "experiment": "T2",
                        "scale": "smoke", "engine": "serial"}
            status, data = _post_raw(
                server.port, f"/v1/{op}", json.dumps(body).encode()
            )
            assert status == 400
            assert data["error"]["code"] == "bad_request"
            assert "serial Monte Carlo engine was removed" in (
                data["error"]["message"]
            )

    def test_experiment_matches_direct(self, client):
        served = client.experiment("T2", scale="smoke", seed=0)
        direct = get_experiment("T2")(ExperimentConfig(seed=0, scale="smoke"))
        assert served["rows"] == [list(row) for row in direct.rows]
        assert served["observations"] == direct.observations

    def test_gain(self, client):
        served = client.gain(_instance(), MECH_SPEC, rounds=40, seed=3)
        direct = estimate_gain(
            _instance(), build_mechanism(MECH_SPEC),
            rounds=40, seed=3, engine="batch", n_jobs=1,
        )
        assert served == direct

    def test_ballot(self, client):
        served = client.ballot(_instance(), MECH_SPEC, rounds=40, seed=3)
        direct = estimate_ballot_probability(
            _instance(), build_mechanism(MECH_SPEC),
            rounds=40, seed=3, engine="batch", n_jobs=1,
        )
        assert served == direct

    def test_adaptive_estimate(self, client):
        served = client.estimate(
            _instance(), MECH_SPEC, rounds=200, seed=5, target_se=0.02
        )
        direct = estimate_correct_probability(
            _instance(), build_mechanism(MECH_SPEC),
            rounds=200, seed=5, engine="batch", n_jobs=1, target_se=0.02,
        )
        assert served == direct

    def test_repeat_requests_identical(self, client):
        # The second call hits warm interned objects and a warm
        # estimator; the contract says that must not change a bit.
        first = client.estimate(_instance(), MECH_SPEC, rounds=50, seed=11)
        second = client.estimate(_instance(), MECH_SPEC, rounds=50, seed=11)
        assert first == second

    def test_concurrent_duplicates_identical(self, client):
        instance_dict = instance_to_dict(_instance())
        direct = estimate_correct_probability(
            _instance(), build_mechanism(MECH_SPEC),
            rounds=80, seed=13, engine="batch", n_jobs=1,
        )
        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            results = list(
                pool.map(
                    lambda _: client.estimate(
                        instance_dict, MECH_SPEC, rounds=80, seed=13
                    ),
                    range(16),
                )
            )
        assert all(result == direct for result in results)

    def test_served_and_direct_share_cache_entries(self, tmp_path):
        cache_dir = tmp_path / "cache"
        direct_cache = EstimateCache(cache_dir)
        direct = estimate_correct_probability(
            _instance(), build_mechanism(MECH_SPEC),
            rounds=50, seed=21, engine="batch", n_jobs=1, cache=direct_cache,
        )
        assert direct_cache.misses == 1
        config = ServerConfig(port=0, workers=1, cache_dir=str(cache_dir))
        with BackgroundServer(config) as bg:
            served = ServiceClient(port=bg.port).estimate(
                _instance(), MECH_SPEC, rounds=50, seed=21
            )
            stats = ServiceClient(port=bg.port).metrics()["estimate_cache"]
        assert served == direct
        assert stats["hits"] == 1 and stats["misses"] == 0


class TestHealthAndMetrics:
    def test_healthz(self, server):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{server.port}/healthz", timeout=10
        ) as response:
            data = json.loads(response.read().decode())
        assert data == {"v": PROTOCOL_VERSION, "ok": True, "status": "serving"}

    def test_metrics_shape(self, client):
        client.estimate(_instance(), MECH_SPEC, rounds=20, seed=1)
        metrics = client.metrics()
        for key in ("requests", "completed", "errors", "batches", "latency",
                    "queue", "pools", "coalesced_total", "estimate_cache"):
            assert key in metrics
        assert metrics["requests"]["estimate"] >= 1
        assert metrics["batches"]["count"] >= 1
        assert metrics["latency"]["p95_ms"] >= metrics["latency"]["p50_ms"] >= 0
        assert metrics["queue"]["high_water"] == 512
        assert metrics["estimate_cache"] is None  # no cache configured

    def test_coalescing_visible_in_metrics(self):
        # A wide window plus concurrent identical requests forces the
        # batcher to share one in-flight computation.
        config = ServerConfig(port=0, workers=2, max_delay=0.05)
        with BackgroundServer(config) as bg:
            client = ServiceClient(port=bg.port)
            instance_dict = instance_to_dict(_instance())
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                results = list(
                    pool.map(
                        lambda _: client.estimate(
                            instance_dict, MECH_SPEC, rounds=400, seed=2
                        ),
                        range(8),
                    )
                )
            metrics = client.metrics()
        assert len(set(results)) == 1
        assert metrics["coalesced_total"] > 0
        assert metrics["requests"]["estimate"] == 8


class TestErrorPaths:
    """Typed errors out, server still serving afterwards."""

    def test_malformed_json(self, server, client):
        status, data = _post_raw(server.port, "/v1/estimate", b'{"v": 1, ')
        assert status == 400
        assert data["ok"] is False and data["error"]["code"] == "bad_json"
        client.healthz()  # still serving

    def test_unknown_schema_version(self, server):
        body = json.dumps({"v": 99, "op": "estimate"}).encode()
        status, data = _post_raw(server.port, "/v1/estimate", body)
        assert status == 400
        assert data["error"]["code"] == "unsupported_version"

    def test_unknown_route(self, server):
        status, data = _post_raw(server.port, "/v2/estimate", b"{}")
        assert status == 404
        assert data["error"]["code"] == "not_found"

    def test_route_op_mismatch(self, server):
        body = json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "op": "gain",
                "instance": instance_to_dict(_instance()),
                "mechanism": MECH_SPEC,
            }
        ).encode()
        status, data = _post_raw(server.port, "/v1/estimate", body)
        assert status == 400
        assert data["error"]["code"] == "bad_request"

    def test_unknown_experiment_is_404(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.experiment("NOPE", scale="smoke")
        assert excinfo.value.code == "not_found"

    def test_oversized_payload(self):
        config = ServerConfig(port=0, workers=1, max_payload=2048)
        with BackgroundServer(config) as bg:
            status, data = _post_raw(
                bg.port, "/v1/estimate", b"x" * 4096
            )
            assert status == 413
            assert data["error"]["code"] == "payload_too_large"
            # Oversized bodies close the connection, but the server
            # itself keeps serving new ones.
            ServiceClient(port=bg.port).healthz()

    def test_queue_full_rejection(self):
        # max_queue=1 with a wide-open batching window: the first
        # request is admitted and sits in the window; the second must be
        # rejected with a typed 429 regardless of timing.
        config = ServerConfig(
            port=0, workers=1, max_queue=1, max_delay=30.0, coalesce=False
        )
        with BackgroundServer(config) as bg:
            client = ServiceClient(port=bg.port)
            instance_dict = instance_to_dict(_instance())
            with concurrent.futures.ThreadPoolExecutor(2) as pool:
                first = pool.submit(
                    client.estimate, instance_dict, MECH_SPEC,
                    rounds=10, seed=1,
                )
                time.sleep(0.3)  # let the first request enter the window
                with pytest.raises(ServiceError) as excinfo:
                    client.estimate(instance_dict, MECH_SPEC, rounds=10, seed=2)
                assert excinfo.value.code == "queue_full"
                assert excinfo.value.http_status == 429
                metrics = client.metrics()
                assert metrics["queue"]["rejected_total"] >= 1
                bg.server.config  # server alive
                bg.request_shutdown()  # flushes the window; first completes
                result = first.result(timeout=30)
            assert result.rounds == 10

    def test_request_timeout(self):
        config = ServerConfig(
            port=0, workers=1, request_timeout=0.05, max_delay=0.5
        )
        with BackgroundServer(config) as bg:
            client = ServiceClient(port=bg.port)
            with pytest.raises(ServiceError) as excinfo:
                client.estimate(_instance(), MECH_SPEC, rounds=10, seed=1)
            assert excinfo.value.code == "timeout"
            assert excinfo.value.http_status == 504
            client.healthz()  # still serving

    def test_mid_request_shutdown(self):
        # Park a request in a wide batching window, then shut down with
        # a zero drain budget: the parked request must fail with a typed
        # shutting_down error, not hang or reset the connection.
        config = ServerConfig(
            port=0, workers=1, max_delay=30.0, shutdown_timeout=0.0
        )
        bg = BackgroundServer(config).start()
        client = ServiceClient(port=bg.port)
        instance_dict = instance_to_dict(_instance())
        with concurrent.futures.ThreadPoolExecutor(1) as pool:
            parked = pool.submit(
                client.estimate, instance_dict, MECH_SPEC, rounds=10, seed=1
            )
            time.sleep(0.3)
            bg.stop()
            with pytest.raises(ServiceError) as excinfo:
                parked.result(timeout=30)
        # Drain flushes the window before failing leftovers, so the
        # parked request either completed first or got the typed error.
        assert excinfo.value.code in ("shutting_down", "internal")


class TestValidationOverHttp:
    def test_bad_mechanism_spec(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(
                _instance(), {"name": "mind_reader", "params": {}}, rounds=10
            )
        assert excinfo.value.code == "bad_request"
        assert "mind_reader" in excinfo.value.message

    def test_bad_rounds(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(_instance(), MECH_SPEC, rounds=0)
        assert excinfo.value.code == "bad_request"

    def test_experiment_round_trip(self, client):
        result = client.experiment("F1", scale="smoke", seed=0)
        assert result["experiment_id"] == "F1"
        assert result["rows"]


class TestSweepStreaming:
    """Single-server NDJSON sweeps: determinism, ordering, keep-alive."""

    def test_sweep_matches_direct_per_seed(self, client):
        seeds = [0, 1, 2, 3]
        served = client.sweep(_instance(), MECH_SPEC, seeds=seeds, rounds=60)
        direct = [
            estimate_correct_probability(
                _instance(), build_mechanism(MECH_SPEC),
                rounds=60, seed=seed, engine="batch", n_jobs=1,
            )
            for seed in seeds
        ]
        assert served == direct

    def test_gain_sweep(self, client):
        served = client.sweep(
            _instance(), MECH_SPEC, seeds=[3, 5], rounds=40, point_op="gain"
        )
        direct = [
            estimate_gain(
                _instance(), build_mechanism(MECH_SPEC),
                rounds=40, seed=seed, engine="batch", n_jobs=1,
            )
            for seed in (3, 5)
        ]
        assert served == direct

    def test_duplicate_seeds_coalesce(self):
        config = ServerConfig(port=0, workers=1, max_delay=0.05)
        with BackgroundServer(config) as bg:
            client = ServiceClient(port=bg.port)
            results = client.sweep(
                _instance(), MECH_SPEC, seeds=[9, 9, 9, 9], rounds=300
            )
            metrics = client.metrics()
        assert len(set(results)) == 1
        assert metrics["coalesced_total"] > 0

    def test_indices_filter_limits_computation(self, client):
        seeds = [0, 1, 2, 3, 4]
        seen = dict(
            client.iter_sweep(
                _instance(), MECH_SPEC, seeds=seeds, rounds=40,
                indices=[1, 3],
            )
        )
        assert sorted(seen) == [1, 3]

    def test_connection_reusable_after_sweep(self, client):
        # The stream's terminal chunk must be drained, or the next
        # request on the kept-alive socket reads garbage.
        client.sweep(_instance(), MECH_SPEC, seeds=[2, 4], rounds=40)
        follow_up = client.estimate(_instance(), MECH_SPEC, rounds=40, seed=2)
        direct = estimate_correct_probability(
            _instance(), build_mechanism(MECH_SPEC),
            rounds=40, seed=2, engine="batch", n_jobs=1,
        )
        assert follow_up == direct

    def test_sweep_validation_is_a_typed_error(self, server):
        body = json.dumps(
            {
                "v": PROTOCOL_VERSION,
                "op": "sweep",
                "instance": instance_to_dict(_instance()),
                "mechanism": MECH_SPEC,
                "seeds": [],
            }
        ).encode()
        status, data = _post_raw(server.port, "/v1/sweep", body)
        assert status == 400
        assert data["error"]["code"] == "bad_request"


class TestClientReconnect:
    """The client retries once on a stale keep-alive socket."""

    def test_survives_server_restart_on_same_port(self):
        first = BackgroundServer(ServerConfig(port=0, workers=1)).start()
        port = first.port
        client = ServiceClient(port=port, timeout=60)
        first_stopped = False
        try:
            before = client.estimate(_instance(), MECH_SPEC, rounds=40, seed=5)
            first.stop()
            first_stopped = True
            # Same port, fresh process-level state: the client's pooled
            # connection is now stale and must be replaced transparently.
            second = BackgroundServer(ServerConfig(port=port, workers=1)).start()
            try:
                after = client.estimate(
                    _instance(), MECH_SPEC, rounds=40, seed=5
                )
            finally:
                second.stop()
            assert after == before
        finally:
            client.close()
            if not first_stopped:
                first.stop()

    def test_dead_server_is_a_typed_error_not_a_hang(self):
        bg = BackgroundServer(ServerConfig(port=0, workers=1)).start()
        port = bg.port
        client = ServiceClient(port=port, timeout=5)
        client.healthz()
        bg.stop()
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(_instance(), MECH_SPEC, rounds=10, seed=1)
        assert excinfo.value.code in ("unavailable", "internal")
        client.close()


class TestServeCli:
    def test_serve_boots_answers_and_stops(self, tmp_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=str(tmp_path),
        )
        try:
            line = proc.stdout.readline()
            assert "listening on http://" in line
            port = int(line.split("listening on http://")[1].split()[0]
                       .rsplit(":", 1)[1])
            client = ServiceClient(port=port, timeout=60)
            estimate = client.estimate(_instance(), MECH_SPEC, rounds=30, seed=4)
            direct = estimate_correct_probability(
                _instance(), build_mechanism(MECH_SPEC),
                rounds=30, seed=4, engine="batch", n_jobs=1,
            )
            assert estimate == direct
            client.close()
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                proc.kill()
                raise
