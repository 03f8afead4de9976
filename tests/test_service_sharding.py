"""End-to-end tests for the consistent-hash sharded front-end.

The load-bearing test is the same contract the single server pins,
lifted to a fleet: a response served through the sharded front-end is
*bit-identical* to the direct library call, for every op, under
concurrent mixed traffic, at any shard count.  The front-end only ever
relays worker bytes, so the contract should hold by construction — the
tests are here to keep it that way.

Also pinned: `SweepRequest.point_routing_keys()` must equal the
per-point `routing_key()`s byte for byte (the fanout fast path hashes
the instance once; drifting from the slow path would silently split a
point's duplicates across shards).
"""

from __future__ import annotations

import concurrent.futures
import json
import urllib.request

import pytest

from repro.attacks import benign_star_instance
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import complete_graph
from repro.io import instance_to_dict
from repro.service import (
    BackgroundShardedServer,
    HashRing,
    ServerConfig,
    ServiceClient,
    ServiceError,
    mechanism_spec,
)
from repro.service.protocol import (
    HTTP_STATUS,
    PROTOCOL_VERSION,
    SweepRequest,
    build_mechanism,
    parse_request,
)
from repro.voting.montecarlo import (
    estimate_ballot_probability,
    estimate_correct_probability,
    estimate_gain,
)
from repro.voting.outcome import TiePolicy

MECH_SPEC = mechanism_spec("approval_threshold", threshold=2)


def _instance(n: int = 24, seed: int = 0) -> ProblemInstance:
    comp = bounded_uniform_competencies(n, 0.35, seed=seed)
    return ProblemInstance(complete_graph(n), comp, alpha=0.05)


def _direct(seed: int, rounds: int = 60):
    return estimate_correct_probability(
        _instance(), build_mechanism(MECH_SPEC),
        rounds=rounds, seed=seed, engine="batch", n_jobs=1,
    )


@pytest.fixture(scope="module")
def sharded():
    config = ServerConfig(port=0, workers=1)
    with BackgroundShardedServer(config, shards=2) as bg:
        yield bg


@pytest.fixture(scope="module")
def client(sharded):
    return ServiceClient(port=sharded.port)


class TestHashRing:
    def test_deterministic_across_instances(self):
        keys = [f"estimate:{i:064x}" for i in range(200)]
        a, b = HashRing(4), HashRing(4)
        assert [a.shard_for(k) for k in keys] == [b.shard_for(k) for k in keys]

    def test_all_shards_reachable(self):
        ring = HashRing(4)
        hit = {ring.shard_for(f"key-{i}") for i in range(500)}
        assert hit == {0, 1, 2, 3}

    def test_shards_in_range(self):
        ring = HashRing(3, vnodes=8)
        for i in range(100):
            assert 0 <= ring.shard_for(f"anything-{i}") < 3

    def test_consistent_hashing_limits_reshuffle(self):
        # Growing the fleet 4 -> 5 must move roughly 1/5 of the keys,
        # not rehash the world (the point of a ring over `hash % n`).
        keys = [f"key-{i}" for i in range(1000)]
        before, after = HashRing(4), HashRing(5)
        moved = sum(
            before.shard_for(k) != after.shard_for(k) for k in keys
        )
        assert moved < 500  # modular rehash would move ~800

    def test_rejects_bad_topology(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, vnodes=0)


class TestRoutingKeys:
    def _sweep(self, seeds=(1, 2, 3)):
        return SweepRequest(
            point_op="estimate",
            instance=_instance(),
            mechanism=build_mechanism(MECH_SPEC),
            rounds=50,
            seeds=tuple(seeds),
            tie_policy=TiePolicy.INCORRECT,
            exact_conditional=True,
            target_se=None,
            max_rounds=None,
        )

    def test_point_routing_keys_match_per_point_slow_path(self):
        # The fanout fast path (instance hashed once) must stay byte-equal
        # to EstimateRequest.routing_key, or duplicates stop colocating.
        sweep = self._sweep(seeds=(0, 7, 7, 42))
        fast = sweep.point_routing_keys()
        slow = tuple(
            sweep.point(i).routing_key() for i in range(len(sweep.seeds))
        )
        assert fast == slow

    def test_routing_keys_content_addressed(self):
        # Two independently built identical requests share keys; a seed
        # change produces a different key.
        a = self._sweep().point_routing_keys()
        b = self._sweep().point_routing_keys()
        assert a == b
        assert len(set(a)) == len(a)
        assert self._sweep(seeds=(9,)).point_routing_keys()[0] not in a


class TestShardedDeterminism:
    """Sharded == direct, bitwise, under concurrent mixed traffic."""

    def test_estimate_matches_direct(self, client):
        assert client.estimate(
            _instance(), MECH_SPEC, rounds=60, seed=7
        ) == _direct(7)

    def test_concurrent_mixed_traffic_matches_direct(self, client):
        instance_dict = instance_to_dict(_instance())
        direct_estimates = {seed: _direct(seed) for seed in range(6)}
        direct_gain = estimate_gain(
            _instance(), build_mechanism(MECH_SPEC),
            rounds=40, seed=3, engine="batch", n_jobs=1,
        )
        direct_ballot = estimate_ballot_probability(
            _instance(), build_mechanism(MECH_SPEC),
            rounds=40, seed=3, engine="batch", n_jobs=1,
        )

        def one_estimate(seed):
            return client.estimate(
                instance_dict, MECH_SPEC, rounds=60, seed=seed
            )

        with concurrent.futures.ThreadPoolExecutor(8) as pool:
            estimate_futures = {
                seed: [pool.submit(one_estimate, seed) for _ in range(3)]
                for seed in range(6)
            }
            gain_future = pool.submit(
                client.gain, instance_dict, MECH_SPEC, rounds=40, seed=3
            )
            ballot_future = pool.submit(
                client.ballot, instance_dict, MECH_SPEC, rounds=40, seed=3
            )
            for seed, futures in estimate_futures.items():
                for future in futures:
                    assert future.result(60) == direct_estimates[seed]
            assert gain_future.result(60) == direct_gain
            assert ballot_future.result(60) == direct_ballot

    def test_sweep_through_front_end_matches_direct(self, client):
        seeds = [0, 1, 2, 3, 4, 5, 6, 7]
        served = client.sweep(
            _instance(), MECH_SPEC, seeds=seeds, rounds=60
        )
        assert served == [_direct(seed) for seed in seeds]

    def test_iter_sweep_streams_every_index_once(self, client):
        seeds = [11, 22, 33, 44, 11]  # duplicate seed -> duplicate point
        seen = dict(
            client.iter_sweep(_instance(), MECH_SPEC, seeds=seeds, rounds=60)
        )
        assert sorted(seen) == list(range(len(seeds)))
        for i, seed in enumerate(seeds):
            assert seen[i] == _direct(seed)
        assert seen[0] == seen[4]  # same seed, same bits

    def test_repeat_requests_identical(self, client):
        first = client.estimate(_instance(), MECH_SPEC, rounds=50, seed=17)
        second = client.estimate(_instance(), MECH_SPEC, rounds=50, seed=17)
        assert first == second


class TestShardedOps:
    def test_healthz_reports_fleet(self, sharded):
        with urllib.request.urlopen(
            f"http://127.0.0.1:{sharded.port}/healthz", timeout=10
        ) as response:
            data = json.loads(response.read().decode())
        assert data["ok"] is True
        assert data["status"] == "serving"
        assert data["shards"] == {"count": 2, "alive": 2}

    def test_metrics_expose_topology_and_routing(self, client):
        # Distinct seeds spread over the ring; with 16 of them both
        # shards statistically get traffic (pinned by the ring, so this
        # is deterministic, not flaky).
        for seed in range(16):
            client.estimate(_instance(), MECH_SPEC, rounds=20, seed=seed)
        metrics = client.metrics()
        sharding = metrics["sharding"]
        assert sharding["shards"] == 2
        assert len(sharding["workers"]) == 2
        assert all(w["alive"] for w in sharding["workers"])
        assert len(sharding["per_shard"]) == 2
        routed = metrics["routed"]
        assert set(routed) == {"0", "1"}
        assert sum(routed.values()) >= 16
        # Front-end routing counts and worker arrival counts agree.
        fanned = sum(
            shard["requests"].get("estimate", 0)
            for shard in sharding["per_shard"]
        )
        assert fanned >= 16

    def test_same_key_routes_to_same_shard(self, client):
        # Duplicate requests colocate: one shard owns seed 99's key.
        before = client.metrics()["routed"]
        for _ in range(4):
            client.estimate(_instance(), MECH_SPEC, rounds=20, seed=99)
        after = client.metrics()["routed"]
        grew = [
            shard for shard in after
            if after[shard] - before.get(shard, 0) > 0
        ]
        assert len(grew) == 1

    def test_typed_errors_relay_through_front_end(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.estimate(
                _instance(), {"name": "mind_reader", "params": {}}, rounds=10
            )
        assert excinfo.value.code == "bad_request"
        assert "mind_reader" in excinfo.value.message
        client.healthz()  # still serving

    def test_unknown_route_is_local_404(self, sharded):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", sharded.port, timeout=10)
        try:
            conn.request("POST", "/v2/estimate", body=b"{}")
            response = conn.getresponse()
            data = json.loads(response.read().decode())
        finally:
            conn.close()
        assert response.status == 404
        assert data["error"]["code"] == "not_found"


class TestFleetAccounting:
    """The front-end's /metrics counts what its shards count."""

    def test_relayed_errors_keep_their_typed_code(self, client):
        with pytest.raises(ServiceError) as excinfo:
            client.experiment("ZZ")
        assert excinfo.value.code == "not_found"
        errors = client.metrics()["errors"]
        assert errors.get("not_found", 0) >= 1
        assert set(errors) <= set(HTTP_STATUS)

    def test_attack_counters_sum_over_shards(self, client):
        result = client.attack(
            benign_star_instance(9), {"name": "random_approved"},
            {"name": "misreport"}, budget=1, rounds=16, seed=2,
        )
        metrics = client.metrics()
        fleet = {"searches": {}, "violations": {}}
        for shard in metrics["sharding"]["per_shard"]:
            for kind, counts in shard["attacks"].items():
                for scenario, count in counts.items():
                    fleet[kind][scenario] = fleet[kind].get(scenario, 0) + count
        assert metrics["attacks"] == fleet
        assert fleet["searches"] == {result["scenario"]: 1}


class TestKilledWorker:
    """A dead worker degrades the fleet predictably, not silently."""

    def test_dead_shard_is_typed_and_live_shard_serves(self):
        instance = _instance()
        wire = instance_to_dict(instance)
        with BackgroundShardedServer(ServerConfig(port=0, workers=1), shards=2) as bg:
            client = ServiceClient(port=bg.port)
            worker = bg.server._workers[1].proc
            worker.kill()
            worker.wait(timeout=30)

            health = client.healthz()
            assert health["ok"] is False
            assert health["status"] == "degraded"
            assert health["shards"] == {"count": 2, "alive": 1}

            shards = {}
            for seed in range(16):
                request = parse_request({
                    "v": PROTOCOL_VERSION, "op": "estimate", "instance": wire,
                    "mechanism": MECH_SPEC, "rounds": 20, "seed": seed,
                })
                shards[seed] = bg.server.ring.shard_for(request.routing_key())
            assert set(shards.values()) == {0, 1}
            for seed, shard in shards.items():
                if shard == 0:
                    served = client.estimate(wire, MECH_SPEC, rounds=20, seed=seed)
                    assert served == _direct(seed, rounds=20)
                else:
                    with pytest.raises(ServiceError) as excinfo:
                        client.estimate(wire, MECH_SPEC, rounds=20, seed=seed)
                    assert excinfo.value.code == "shard_unavailable"
