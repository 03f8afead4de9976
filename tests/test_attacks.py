"""The adversarial-manipulation subsystem (``repro.attacks``).

The acceptance story from the issue, as tests: the greedy search
autonomously rediscovers the paper's Figure 1 star DNH violation on a
seeded benign instance (both engines), emits a machine-checkable
:class:`~repro.attacks.certificates.ViolationCertificate`, and an
independent verifier replays it bitwise from scratch; the delta-session
inner loop is bit-identical to scratch re-estimation; tampered
certificates are rejected; and every wire object round-trips JSON.
"""

import gc
import json
import threading
import weakref

import numpy as np
import pytest

from repro._util.rng import (
    as_generator,
    as_seed_sequence,
    child_seed_sequence,
    derive_seed,
)
from repro.attacks import (
    AdaptiveLemmaProbe,
    AttackResult,
    AttackSearch,
    CollusionRing,
    CompetencyMisreport,
    SCENARIO_BUILDERS,
    SybilFlood,
    ViolationCertificate,
    benign_star_instance,
    build_scenario,
    instance_digest,
    scenario_spec,
    verify_certificate,
)
from repro.attacks import search as search_module
from repro.attacks.scenarios import (
    FIGURE1_HUB_COMPETENCY,
    _non_neighbours,
    _reference_non_neighbours,
)
from repro.cache import EstimateCache
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import (
    barabasi_albert_graph,
    connected_caveman_graph,
    erdos_renyi_graph,
    random_regular_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.incremental import (
    DeltaSession,
    Join,
    Leave,
    Rewire,
    SetCompetency,
    invert_batch,
)
from repro.mechanisms.threshold import RandomApproved
from repro.voting.exact import direct_voting_probability
from repro.voting.outcome import TiePolicy

MECH = {"name": "random_approved"}
SCENARIOS = [
    CompetencyMisreport(),
    CollusionRing(),
    SybilFlood(),
    AdaptiveLemmaProbe(),
]


def _instance(n=32, seed=0):
    comp = bounded_uniform_competencies(n, 0.35, seed=seed)
    return ProblemInstance(random_regular_graph(n, 6, seed=seed), comp, alpha=0.05)


class TestInvertBatch:
    """apply(edits); apply(invert_batch(...)) restores estimates bitwise."""

    @pytest.mark.parametrize(
        "edits",
        [
            [Rewire(voter=0, add=(9,))],
            [SetCompetency(voter=3, competency=0.8)],
            [Join(neighbors=(1, 2), competency=0.5)],
            [
                Rewire(voter=4, add=(11,)),
                SetCompetency(voter=4, competency=0.75),
                Join(neighbors=(4,), competency=0.4),
            ],
        ],
    )
    def test_roundtrip_restores_estimates(self, edits):
        instance = _instance()
        session = DeltaSession(
            instance, RandomApproved(), rounds=16, seed=0, engine="mc"
        )
        before = session.estimate()
        inverse = invert_batch(session.instance, edits)
        session.apply(edits)
        assert session.estimate().probability != before.probability or True
        session.apply(inverse)
        after = session.estimate()
        assert after.probability == before.probability
        assert after.std_error == before.std_error
        assert after.rounds == before.rounds

    def test_set_competency_inverse_restores_old_value(self):
        instance = _instance()
        old = float(instance.competencies[5])
        inverse = invert_batch(
            instance, [SetCompetency(voter=5, competency=0.9)]
        )
        assert inverse == [SetCompetency(voter=5, competency=old)]

    def test_in_batch_shadowing(self):
        """Two edits to one voter invert to the *original* value once each."""
        instance = _instance()
        old = float(instance.competencies[5])
        inverse = invert_batch(
            instance,
            [
                SetCompetency(voter=5, competency=0.9),
                SetCompetency(voter=5, competency=0.2),
            ],
        )
        # Inverses are applied in reverse order; the last one must win
        # and restore the pre-batch value.
        assert inverse[-1].competency == 0.2 or inverse[-1].competency == old
        session = DeltaSession(
            instance, RandomApproved(), rounds=8, seed=1, engine="mc"
        )
        before = session.estimate()
        batch = [
            SetCompetency(voter=5, competency=0.9),
            SetCompetency(voter=5, competency=0.2),
        ]
        inv = invert_batch(session.instance, batch)
        session.apply(batch)
        session.apply(inv)
        assert session.estimate().probability == before.probability

    def test_join_inverts_to_leave(self):
        instance = _instance()
        inverse = invert_batch(
            instance, [Join(neighbors=(0,), competency=0.5)]
        )
        assert isinstance(inverse[0], Leave)
        assert inverse[0].voter == instance.num_voters

    def test_leave_is_not_invertible(self):
        instance = _instance()
        with pytest.raises(ValueError, match="[Ll]eave"):
            invert_batch(instance, [Leave(voter=3)])


class TestScenarios:
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_proposals_are_deterministic(self, scenario):
        instance = benign_star_instance(15)
        mechanism = RandomApproved()
        a = scenario.propose(instance, mechanism, as_generator(42))
        b = scenario.propose(instance, mechanism, as_generator(42))
        assert [m.label for m in a] == [m.label for m in b]
        assert [m.edits for m in a] == [m.edits for m in b]

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_spec_roundtrip(self, scenario):
        rebuilt = build_scenario(scenario.spec())
        assert rebuilt.cache_token() == scenario.cache_token()
        assert rebuilt.spec() == scenario.spec()

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_move_invariants(self, scenario):
        instance = benign_star_instance(15)
        moves = scenario.propose(instance, RandomApproved(), as_generator(0))
        assert moves
        for move in moves:
            assert move.edits
            assert move.cost >= 1
            assert move.label

    def test_every_registered_scenario_builds(self):
        for name in SCENARIO_BUILDERS:
            assert build_scenario({"name": name}).name == name

    def test_scenario_spec_validates_eagerly(self):
        with pytest.raises(ValueError, match="unknown scenario param"):
            scenario_spec("misreport", bogus=1)
        with pytest.raises(ValueError, match="unknown scenario"):
            build_scenario({"name": "nope"})


def _with_isolated():
    """Twelve voters; 5..11 have no edge at all."""
    return Graph(12, [(0, 1), (1, 2), (3, 4), (0, 4)])


NON_NEIGHBOUR_GRAPHS = {
    "ba": lambda: barabasi_albert_graph(60, 2, seed=3),
    "er": lambda: erdos_renyi_graph(60, 0.05, seed=4),
    "regular": lambda: random_regular_graph(60, 4, seed=5),
    "caveman": lambda: connected_caveman_graph(6, 5),
    "star": lambda: star_graph(20),
    "isolated": _with_isolated,
}


def _graph_instance(graph, seed=0, hub=None):
    n = graph.num_vertices
    comp = bounded_uniform_competencies(n, 0.35, seed=seed).copy()
    comp[n // 3] = comp[n // 2]  # a competency tie: broken by index
    if hub is not None:
        comp[hub] = 0.99
    return ProblemInstance(graph, comp, alpha=0.05)


class TestNonNeighbours:
    """The vectorised non-neighbour pick equals its per-voter Python-set
    oracle, and the ring and probe proposals built on it are unchanged."""

    @pytest.mark.parametrize("name", sorted(NON_NEIGHBOUR_GRAPHS))
    def test_every_target_matches_the_oracle(self, name):
        instance = _graph_instance(NON_NEIGHBOUR_GRAPHS[name]())
        n = instance.num_voters
        for target in range(n):
            for count in (1, 4, n + 5):
                want = _reference_non_neighbours(instance, target, count)
                assert _non_neighbours(instance, target, count) == want

    def test_isolated_target_and_isolated_voters(self):
        instance = _graph_instance(_with_isolated())
        # An isolated target: every other voter is eligible.
        assert sorted(_non_neighbours(instance, 7, 100)) == [
            v for v in range(12) if v != 7
        ]
        # Isolated voters never see the target.
        assert set(range(5, 12)) <= set(_non_neighbours(instance, 0, 100))

    def test_target_adjacent_to_everyone(self):
        instance = _graph_instance(star_graph(20), hub=0)
        assert _non_neighbours(instance, 0, 5) == []
        assert CollusionRing(ring=3).propose(
            instance, RandomApproved(), as_generator(0)
        ) == []

    @pytest.mark.parametrize("name", sorted(NON_NEIGHBOUR_GRAPHS))
    @pytest.mark.parametrize("ring", [1, 4, 500])
    def test_collusion_ring_proposals(self, name, ring):
        instance = _graph_instance(NON_NEIGHBOUR_GRAPHS[name](), seed=2)
        boss = int(np.argmax(instance.competencies))
        members = _reference_non_neighbours(instance, boss, ring)
        want = [
            ([Rewire(voter=m, add=(boss,))], f"collude:v{m}->v{boss}")
            for m in members
        ]
        if len(members) > 1:
            want.append((
                [Rewire(voter=m, add=(boss,)) for m in members],
                f"collude:ring{len(members)}->v{boss}",
            ))
        got = CollusionRing(ring=ring).propose(
            instance, RandomApproved(), as_generator(0)
        )
        assert [(list(m.edits), m.label) for m in got] == want[:64]
        if ring == 500:
            assert len(members) < ring  # the pool is smaller than the ring

    @pytest.mark.parametrize("name", sorted(NON_NEIGHBOUR_GRAPHS))
    @pytest.mark.parametrize("feeders", [1, 3, 500])
    def test_lemma_probe_proposals(self, name, feeders):
        instance = _graph_instance(NON_NEIGHBOUR_GRAPHS[name](), seed=6)
        probe = AdaptiveLemmaProbe(feeders=feeders)
        mechanism = RandomApproved()
        sink, _ = probe.heaviest_sink(instance, mechanism, as_generator(9))
        want = [
            ([Rewire(voter=f, add=(sink,))], f"probe:feed v{f}->v{sink}")
            for f in _reference_non_neighbours(instance, sink, feeders)
        ]
        comp = float(instance.competencies[sink])
        boosted = min(1.0, comp + 0.125)
        if boosted != comp:
            want.append((
                [SetCompetency(voter=sink, competency=boosted)],
                f"probe:boost v{sink}->{boosted:g}",
            ))
        got = probe.propose(instance, mechanism, as_generator(9))
        assert [(list(m.edits), m.label) for m in got] == want[:64]


class TestStarRediscovery:
    """Figure 1, rediscovered autonomously from the benign star."""

    def test_mc_engine_finds_star_violation(self):
        search = AttackSearch(
            benign_star_instance(25),
            MECH,
            {"name": "misreport"},
            budget=8,
            rounds=512,
            seed=7,
            engine="mc",
        )
        result = search.run()
        assert result.found
        # The first committed move is the Figure 1 misreport itself:
        # the hub announces exactly 5/8.
        assert result.history[0]["label"] == "misreport:v0->0.625"
        assert result.best_harm > 0.05
        assert result.certificate is not None
        report = verify_certificate(result.certificate)
        assert report.ok, report.describe()

    def test_exact_engine_finds_star_violation_in_one_step(self):
        search = AttackSearch(
            benign_star_instance(25),
            MECH,
            {"name": "misreport"},
            budget=4,
            rounds=64,
            seed=7,
            engine="exact",
        )
        result = search.run()
        assert result.found
        assert result.steps == 1
        # The exact engine sees the dictatorship with zero noise: the
        # mechanism's probability IS the hub competency.
        post = result.certificate["post"]["estimate"]
        assert post["probability"] == FIGURE1_HUB_COMPETENCY
        assert post["std_error"] == 0.0
        report = verify_certificate(result.certificate)
        assert report.ok, report.describe()

    def test_certificate_replays_on_both_wire_forms(self):
        result = AttackSearch(
            benign_star_instance(25),
            MECH,
            {"name": "misreport"},
            budget=4,
            rounds=64,
            seed=7,
            engine="exact",
        ).run()
        as_dict = verify_certificate(result.certificate)
        as_object = verify_certificate(
            ViolationCertificate.from_dict(result.certificate)
        )
        assert as_dict.ok and as_object.ok

    def test_no_violation_without_misreport_headroom(self):
        """The benign star itself is benign: direct voting maximises
        harm at ~0 and the search reports not-found."""
        result = AttackSearch(
            benign_star_instance(25),
            MECH,
            {"name": "misreport"},
            budget=2,
            rounds=64,
            seed=7,
            engine="exact",
            min_harm=0.5,
        ).run()
        assert not result.found
        assert result.certificate is None


class TestDeltaVersusScratch:
    """Both inner loops are pure functions of the same inputs."""

    @pytest.mark.parametrize(
        "scenario,engine,rounds",
        [
            # misreport keeps the ids it had before the other scenarios
            # joined the matrix.
            pytest.param(
                name, engine, rounds,
                id=f"{engine}-{rounds}" if name == "misreport"
                else f"{name}-{engine}-{rounds}",
            )
            for name in SCENARIO_BUILDERS
            for engine, rounds in (("mc", 64), ("exact", 16))
        ],
    )
    def test_inner_loops_bitwise_identical(self, scenario, engine, rounds):
        instance = _instance(n=48, seed=3)
        results = {}
        for inner in ("delta", "scratch"):
            results[inner] = AttackSearch(
                instance,
                MECH,
                {"name": scenario},
                budget=3,
                rounds=rounds,
                seed=2,
                engine=engine,
                inner=inner,
                min_harm=0.9,  # never fires: exercise the full budget
            ).run()
        assert results["delta"].to_dict() == results["scratch"].to_dict()
        assert results["delta"].moves_evaluated > 0


def _committed_competencies(instance, scenario, seed, result):
    """Competencies after each committed move, replayed on a fresh session.

    Committed moves are regenerated from the search's proposal stream
    (child ``step`` of ``derive_seed(seed, 1)``) and matched by label.
    """
    mechanism = RandomApproved()
    session = DeltaSession(instance, mechanism, rounds=1, seed=seed, engine="mc")
    root = as_seed_sequence(derive_seed(seed, 1))
    states = []
    for record in result.history:
        rng = as_generator(child_seed_sequence(root, record["step"]))
        proposals = scenario.propose(session.instance, mechanism, rng)
        (move,) = [m for m in proposals if m.label == record["label"]]
        session.apply(move.edits)
        states.append(session.instance.competencies.copy())
    return states


class TestScreenThenConfirm:
    """Candidates are screened with the O(n) direct term; every published
    direct value and harm is confirmed by a from-scratch PMF."""

    @pytest.mark.parametrize(
        "tie_policy,n", [("INCORRECT", 48), ("COIN_FLIP", 47)]
    )
    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_history_direct_and_harm_are_exact(self, scenario, tie_policy, n):
        instance = _instance(n=n, seed=3)
        result = AttackSearch(
            instance, MECH, scenario.spec(), budget=3, rounds=16, seed=2,
            engine="exact", tie_policy=tie_policy, min_harm=0.9,
        ).run()
        assert result.steps > 0
        tie = TiePolicy[tie_policy]
        pre = DeltaSession(
            instance, RandomApproved(), rounds=16, seed=2, engine="exact",
            tie_policy=tie,
        ).estimate()
        assert result.baseline_harm == (
            direct_voting_probability(instance.competencies, tie)
            - pre.probability
        )
        states = _committed_competencies(instance, scenario, 2, result)
        for record, competencies in zip(result.history, states):
            assert record["direct"] == direct_voting_probability(competencies, tie)
            assert record["harm"] == record["direct"] - record["probability"]
        assert result.best_harm == result.history[-1]["harm"]

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_certificate_direct_terms_are_exact(self, scenario):
        instance = _instance(n=48, seed=3)
        result = AttackSearch(
            instance, MECH, scenario.spec(), budget=3, rounds=16, seed=2,
            engine="exact", min_harm=-1.0, margin=0.0,
        ).run()
        assert result.found
        (post,) = _committed_competencies(instance, scenario, 2, result)
        certificate = result.certificate
        assert certificate["pre"]["direct"] == direct_voting_probability(
            instance.competencies
        )
        assert certificate["post"]["direct"] == direct_voting_probability(post)
        assert verify_certificate(certificate).ok


class TestCertificateIntegrity:
    @pytest.fixture(scope="class")
    def certificate(self):
        return AttackSearch(
            benign_star_instance(25),
            MECH,
            {"name": "misreport"},
            budget=4,
            rounds=64,
            seed=7,
            engine="exact",
        ).run().certificate

    def test_tampered_float_fails_digest(self, certificate):
        tampered = json.loads(json.dumps(certificate))
        tampered["post"]["estimate"]["probability"] += 1e-9
        report = verify_certificate(tampered)
        assert not report.ok
        assert any(c["check"] == "digest" for c in report.failures())

    def test_tampered_harm_fails_replay_even_with_fresh_digest(self, certificate):
        """Recomputing the digest over a falsified harm makes the payload
        self-consistent — but the replay still catches the lie."""
        tampered = json.loads(json.dumps(certificate))
        tampered["harm"] += 0.25
        tampered["digest"] = ViolationCertificate.from_dict(tampered).digest()
        report = verify_certificate(tampered)
        assert not report.ok
        assert any(c["check"] == "harm" for c in report.failures())

    def test_tampered_edit_chain_fails_chain_digest(self, certificate):
        tampered = json.loads(json.dumps(certificate))
        tampered["edits"][0][0]["competency"] = 0.99
        tampered["digest"] = ViolationCertificate.from_dict(tampered).digest()
        report = verify_certificate(tampered)
        assert not report.ok
        failed = {c["check"] for c in report.failures()}
        assert failed & {"chain-digest", "post-estimate", "harm", "violation"}

    def test_malformed_payload_never_raises(self):
        report = verify_certificate({"schema": 1})
        assert not report.ok
        assert report.failures()[0]["check"] == "parse"

    def test_unsupported_schema_rejected(self, certificate):
        tampered = json.loads(json.dumps(certificate))
        tampered["schema"] = 99
        del tampered["digest"]
        report = verify_certificate(tampered)
        assert not report.ok
        assert report.failures()[0]["check"] == "schema"

    def test_schema_1_certificate_fails_on_schema(self, certificate):
        """A certificate recorded with the pre-ladder exact kernels is
        rejected on its schema, before any ``direct`` is replayed."""
        old = json.loads(json.dumps(certificate))
        old["schema"] = 1
        old["digest"] = ViolationCertificate.from_dict(old).digest()
        report = verify_certificate(old)
        assert not report.ok
        assert report.failures()[0]["check"] == "schema"
        assert [c["check"] for c in report.checks] == ["schema"]

    def test_describe_mentions_the_claim(self, certificate):
        cert = ViolationCertificate.from_dict(certificate)
        text = cert.describe()
        assert "misreport" in text and "harm" in text
        assert verify_certificate(certificate).describe().endswith(
            "certificate verifies"
        )


class TestWireRoundTrips:
    def test_attack_result_roundtrip(self):
        result = AttackSearch(
            benign_star_instance(25),
            MECH,
            {"name": "misreport"},
            budget=4,
            rounds=64,
            seed=7,
            engine="exact",
        ).run()
        wire = json.loads(json.dumps(result.to_dict()))
        assert AttackResult.from_dict(wire).to_dict() == result.to_dict()

    def test_attack_result_rejects_malformed(self):
        with pytest.raises(ValueError, match="malformed attack result"):
            AttackResult.from_dict({"found": True})

    def test_certificate_roundtrip_preserves_digest(self):
        result = AttackSearch(
            benign_star_instance(25),
            MECH,
            {"name": "misreport"},
            budget=4,
            rounds=64,
            seed=7,
            engine="exact",
        ).run()
        wire = json.loads(json.dumps(result.certificate))
        cert = ViolationCertificate.from_dict(wire)
        assert cert.to_dict() == result.certificate

    def test_instance_digest_is_content_addressed(self):
        a = benign_star_instance(25)
        b = benign_star_instance(25)
        c = benign_star_instance(25, hub_p=0.51)
        assert instance_digest(a) == instance_digest(b)
        assert instance_digest(a) != instance_digest(c)


class TestSearchValidation:
    def test_mechanism_must_be_declarative(self):
        with pytest.raises(ValueError, match="declarative spec"):
            AttackSearch(
                benign_star_instance(9), RandomApproved(), {"name": "misreport"}
            )

    def test_non_local_mechanism_rejected(self):
        with pytest.raises(ValueError):
            AttackSearch(
                benign_star_instance(9),
                {"name": "greedy_best"},
                {"name": "misreport"},
            )

    def test_bad_knobs_rejected(self):
        instance = benign_star_instance(9)
        with pytest.raises(ValueError, match="engine"):
            AttackSearch(instance, MECH, {"name": "misreport"}, engine="warp")
        with pytest.raises(ValueError, match="inner"):
            AttackSearch(instance, MECH, {"name": "misreport"}, inner="turbo")
        with pytest.raises(ValueError, match="budget"):
            AttackSearch(instance, MECH, {"name": "misreport"}, budget=0)
        with pytest.raises(ValueError, match="tie policy"):
            AttackSearch(
                instance, MECH, {"name": "misreport"}, tie_policy="MAYBE"
            )


class TestBaseReuse:
    """A search reuses the base session the previous search left, with
    results bitwise those of a search that builds its own."""

    @pytest.fixture(autouse=True)
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(search_module, "_BASE", search_module._BaseSlot())

    @staticmethod
    def _search(instance, scenario="collusion_ring", **kwargs):
        params = dict(budget=2, rounds=32, seed=4, min_harm=0.9)
        params.update(kwargs)
        return AttackSearch(instance, MECH, {"name": scenario}, **params)

    @staticmethod
    def _count_builds(monkeypatch):
        calls = []
        build = DeltaSession._build

        def counted(self, instance):
            calls.append(instance)
            return build(self, instance)

        monkeypatch.setattr(DeltaSession, "_build", counted)
        return calls

    @pytest.mark.parametrize("engine", ["mc", "exact"])
    def test_second_search_builds_nothing(self, monkeypatch, engine):
        instance = _instance(n=48, seed=3)
        builds = self._count_builds(monkeypatch)
        self._search(instance, "misreport", engine=engine).run()
        assert len(builds) == 1
        reused = self._search(instance, engine=engine).run()
        assert len(builds) == 1
        twin = _instance(n=48, seed=3)  # equal, but another object
        fresh = self._search(twin, engine=engine).run()
        assert len(builds) == 2
        assert reused.steps > 0
        assert reused.to_dict() == fresh.to_dict()

    def test_key_change_rebuilds(self, monkeypatch):
        instance = _instance(n=48, seed=3)
        builds = self._count_builds(monkeypatch)
        self._search(instance).run()
        self._search(instance, seed=5).run()
        self._search(instance, seed=5, tie_policy="COIN_FLIP").run()
        self._search(instance, seed=5, tie_policy="COIN_FLIP", rounds=16).run()
        assert len(builds) == 4

    def test_search_on_another_instance_frees_the_held_session(self):
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._search(_instance(n=48, seed=3)).run()
            held = weakref.ref(search_module._BASE._held[1])
            self._search(_instance(n=48, seed=4)).run()
            assert held() is None
            assert search_module._BASE._held is not None
        finally:
            if enabled:
                gc.enable()

    def test_search_that_raises_leaves_the_slot_empty(self, monkeypatch):
        instance = _instance(n=48, seed=3)
        self._search(instance).run()
        assert search_module._BASE._held is not None

        def fail(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(AttackSearch, "_screen_direct", fail)
        with pytest.raises(RuntimeError, match="injected"):
            self._search(instance).run()
        assert search_module._BASE._held is None

    def test_threads_on_one_base_give_the_serial_results(self):
        instance = _instance(n=48, seed=3)
        jobs = [
            (scenario, seed)
            for seed in (1, 2, 3)
            for scenario in ("misreport", "collusion_ring")
        ]
        serial = [
            self._search(instance, scenario, seed=seed).run().to_dict()
            for scenario, seed in jobs
        ]
        got = {}

        def worker(offset):
            for index in range(offset, len(jobs), 2):
                scenario, seed = jobs[index]
                got[index] = self._search(instance, scenario, seed=seed).run().to_dict()

        threads = [threading.Thread(target=worker, args=(k,)) for k in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert [got[i] for i in range(len(jobs))] == serial

    def test_repeated_cached_search_hits(self, tmp_path):
        """Candidate estimates key by the committed chain plus the move,
        so a repeated search finds every estimate it needs cached."""
        instance = _instance(n=48, seed=3)
        plain = self._search(instance, "misreport", budget=3).run()
        cache = EstimateCache(tmp_path)
        first = self._search(instance, "misreport", budget=3, cache=cache).run()
        misses = cache.misses
        second = self._search(instance, "misreport", budget=3, cache=cache).run()
        assert plain.to_dict() == first.to_dict() == second.to_dict()
        assert second.steps > 1
        assert cache.misses == misses
        assert cache.hits == second.moves_evaluated + 1
