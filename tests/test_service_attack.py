"""`/v1/attack` service tests: served searches equal direct searches, bitwise.

An attack search is a pure function of ``(base instance, mechanism,
scenario, budget, rounds, seed, engine, tie policy, min_harm, margin)``,
so the served result — including every history row and the certificate —
must be bit-identical to a local :class:`~repro.attacks.search.AttackSearch`
run, at any shard count.  The suite also pins the protocol surface:
request validation with typed errors, base-digest-only routing (one
electorate's budget ladder lands on one shard), coalesce keys that *do*
include the search knobs, and the per-scenario metrics counters.
"""

import pytest

from repro.attacks import AttackResult, AttackSearch, benign_star_instance, verify_certificate
from repro.attacks import search as search_module
from repro.incremental import DeltaSession
from repro.io import instance_to_dict
from repro.service import (
    BackgroundServer,
    ServerConfig,
    ServiceClient,
    ServiceError,
)
from repro.service.protocol import PROTOCOL_VERSION, parse_request
from repro.service.sharding import BackgroundShardedServer

MECH = {"name": "random_approved"}
SCENARIO = {"name": "misreport"}


@pytest.fixture(scope="module")
def server():
    with BackgroundServer(ServerConfig(port=0, workers=2)) as bg:
        yield bg


@pytest.fixture(scope="module")
def client(server):
    return ServiceClient(port=server.port)


def _direct(instance, **kwargs):
    return AttackSearch(instance, MECH, SCENARIO, **kwargs).run()


class TestServedEqualsDirect:
    def test_star_violation_served_bitwise(self, client):
        instance = benign_star_instance(25)
        served = client.attack(
            instance, MECH, SCENARIO, budget=4, rounds=64, seed=7,
            engine="exact",
        )
        direct = _direct(
            instance, budget=4, rounds=64, seed=7, engine="exact"
        )
        assert served == direct.to_dict()
        assert served["found"]
        assert verify_certificate(served["certificate"]).ok

    def test_mc_engine_served_bitwise(self, client):
        instance = benign_star_instance(25)
        served = client.attack(
            instance, MECH, SCENARIO, budget=3, rounds=128, seed=3,
            min_harm=0.9,
        )
        direct = _direct(
            instance, budget=3, rounds=128, seed=3, min_harm=0.9
        )
        assert served == direct.to_dict()
        assert not served["found"]

    def test_served_searches_share_the_interned_base(self, client, monkeypatch):
        """The server interns the instance, so the second search of one
        electorate takes the base session the first left."""
        monkeypatch.setattr(search_module, "_BASE", search_module._BaseSlot())
        builds = []
        build = DeltaSession._build

        def counted(self, instance):
            builds.append(instance)
            return build(self, instance)

        monkeypatch.setattr(DeltaSession, "_build", counted)
        instance = benign_star_instance(25)
        knobs = dict(rounds=32, seed=5, min_harm=0.9)
        client.attack(instance, MECH, SCENARIO, budget=2, **knobs)
        served = client.attack(instance, MECH, SCENARIO, budget=3, **knobs)
        assert len(builds) == 1
        assert served == _direct(benign_star_instance(25), budget=3, **knobs).to_dict()

    def test_remote_attack_search_handle(self, client):
        instance = benign_star_instance(25)
        remote = client.attack_search(
            instance, MECH, SCENARIO, rounds=64, seed=7, engine="exact"
        )
        result = remote.run(budget=4)
        assert isinstance(result, AttackResult)
        assert result.found
        assert remote.last_result == result.to_dict()
        direct = _direct(
            instance, budget=4, rounds=64, seed=7, engine="exact"
        )
        assert result.to_dict() == direct.to_dict()

    def test_sharded_served_equals_direct(self):
        instance = benign_star_instance(25)
        direct = _direct(
            instance, budget=4, rounds=64, seed=7, engine="exact"
        )
        with BackgroundShardedServer(
            ServerConfig(port=0, workers=2), shards=2
        ) as bg:
            served = ServiceClient(port=bg.port).attack(
                instance, MECH, SCENARIO, budget=4, rounds=64, seed=7,
                engine="exact",
            )
        assert served == direct.to_dict()
        assert served["found"]


class TestMetrics:
    def test_attack_counters(self, server, client):
        before = client.metrics()["attacks"]
        client.attack(
            benign_star_instance(15), MECH, SCENARIO, budget=2, rounds=32,
            seed=1, engine="exact", min_harm=0.9,
        )
        after = client.metrics()["attacks"]
        assert (
            after["searches"].get("misreport", 0)
            == before["searches"].get("misreport", 0) + 1
        )
        # min_harm=0.9 is unreachable, so the violations counter must
        # not move for this search.
        assert after["violations"].get("misreport", 0) == before[
            "violations"
        ].get("misreport", 0)


class TestValidation:
    def _post(self, client, body):
        return client._request("POST", "/v1/attack", body)

    def _body(self, **overrides):
        body = {
            "v": PROTOCOL_VERSION,
            "op": "attack",
            "instance": instance_to_dict(benign_star_instance(9)),
            "mechanism": MECH,
            "scenario": SCENARIO,
        }
        body.update(overrides)
        return body

    def test_non_local_mechanism_is_typed_bad_request(self, client):
        with pytest.raises(ServiceError) as err:
            self._post(client, self._body(mechanism={"name": "greedy_best"}))
        assert err.value.code == "bad_request"
        assert "batch kernel" in str(err.value)

    def test_unknown_scenario_is_typed_bad_request(self, client):
        with pytest.raises(ServiceError) as err:
            self._post(client, self._body(scenario={"name": "nope"}))
        assert err.value.code == "bad_request"

    def test_scenario_must_be_object(self, client):
        with pytest.raises(ServiceError) as err:
            self._post(client, self._body(scenario="misreport"))
        assert err.value.code == "bad_request"

    def test_unknown_key_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            self._post(client, self._body(target_se=0.01))
        assert err.value.code == "bad_request"

    def test_bad_min_harm_rejected(self, client):
        with pytest.raises(ServiceError) as err:
            self._post(client, self._body(min_harm=2.0))
        assert err.value.code == "bad_request"


class TestRoutingAndCoalescing:
    def _parse(self, **overrides):
        body = {
            "v": PROTOCOL_VERSION,
            "op": "attack",
            "instance": instance_to_dict(benign_star_instance(9)),
            "mechanism": MECH,
            "scenario": SCENARIO,
        }
        body.update(overrides)
        return parse_request(body)

    def test_routing_key_is_pure_and_base_only(self):
        a = self._parse(budget=2)
        b = self._parse(budget=9)
        # A budget ladder over one electorate routes to ONE shard: the
        # routing key derives from the base state only...
        assert a.routing_key() == b.routing_key()
        assert a.routing_key() == self._parse(budget=2).routing_key()
        # ...while the coalesce key distinguishes the searches.
        assert a.coalesce_key() != b.coalesce_key()
        assert a.coalesce_key() == self._parse(budget=2).coalesce_key()

    def test_routing_key_varies_with_base_state(self):
        a = self._parse()
        b = self._parse(instance=instance_to_dict(benign_star_instance(11)))
        c = self._parse(seed=5)
        assert a.routing_key() != b.routing_key()
        assert a.routing_key() != c.routing_key()

    def test_coalesce_key_varies_with_scenario(self):
        a = self._parse()
        b = self._parse(
            scenario={"name": "misreport", "params": {"targets": 1}}
        )
        c = self._parse(scenario={"name": "sybil_flood"})
        assert len({a.coalesce_key(), b.coalesce_key(), c.coalesce_key()}) == 3
