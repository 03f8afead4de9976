"""The adversarial-manipulation subsystem (``repro.attacks``).

The acceptance story from the issue, as tests: the greedy search
autonomously rediscovers the paper's Figure 1 star DNH violation on a
seeded benign instance (both engines), emits a machine-checkable
:class:`~repro.attacks.certificates.ViolationCertificate`, and an
independent verifier replays it bitwise from scratch; the delta-session
inner loop is bit-identical to scratch re-estimation; tampered
certificates are rejected; and every wire object round-trips JSON.
"""

import json

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
from repro.attacks.scenarios import FIGURE1_HUB_COMPETENCY
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import random_regular_graph
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
