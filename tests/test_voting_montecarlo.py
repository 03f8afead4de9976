"""Tests for Monte Carlo estimators."""

import numpy as np
import pytest

from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.graphs.generators import barabasi_albert_graph, complete_graph
from repro.mechanisms.direct import DirectVoting
from repro.mechanisms.fraction import FractionApproved
from repro.mechanisms.greedy import GreedyBest
from repro.mechanisms.sampled import SampledNeighbourhood
from repro.mechanisms.threshold import ApprovalThreshold, RandomApproved
from repro.voting.exact import direct_voting_probability
from repro.voting.montecarlo import (
    BatchEstimator,
    estimate_ballot_probability,
    estimate_correct_probability,
    estimate_gain,
    sample_outcome,
)


@pytest.fixture
def instance():
    return ProblemInstance(
        complete_graph(9), np.linspace(0.3, 0.8, 9), alpha=0.05
    )


class TestEstimateCorrectProbability:
    def test_direct_matches_exact(self, instance):
        est = estimate_correct_probability(
            instance, DirectVoting(), rounds=5, seed=0
        )
        # Rao-Blackwellised estimator is exact for deterministic forests.
        assert est.probability == pytest.approx(
            direct_voting_probability(instance.competencies)
        )
        assert est.std_error == pytest.approx(0.0)

    def test_reproducible(self, instance):
        a = estimate_correct_probability(instance, RandomApproved(), rounds=20, seed=1)
        b = estimate_correct_probability(instance, RandomApproved(), rounds=20, seed=1)
        assert a.probability == b.probability

    def test_ci_contains_estimate(self, instance):
        est = estimate_correct_probability(instance, RandomApproved(), rounds=50, seed=2)
        assert est.ci_low <= est.probability <= est.ci_high

    def test_rejects_zero_rounds(self, instance):
        with pytest.raises(ValueError):
            estimate_correct_probability(instance, DirectVoting(), rounds=0)

    def test_naive_estimator_agrees(self, instance):
        exact = estimate_correct_probability(
            instance, DirectVoting(), rounds=10, seed=0
        ).probability
        naive = estimate_correct_probability(
            instance, DirectVoting(), rounds=3000, seed=0, exact_conditional=False
        )
        assert naive.probability == pytest.approx(exact, abs=0.05)
        assert naive.ci_low <= exact <= naive.ci_high

    def test_float_conversion(self, instance):
        est = estimate_correct_probability(instance, DirectVoting(), rounds=3, seed=0)
        assert float(est) == est.probability


class TestSampleOutcome:
    def test_binary_values(self, instance):
        rng = np.random.default_rng(0)
        for _ in range(20):
            out = sample_outcome(instance, DirectVoting(), rng)
            assert out in (0.0, 1.0)

    def test_certain_instance(self):
        inst = ProblemInstance(complete_graph(3), [0.98, 0.99, 1.0], alpha=0.001)
        rng = np.random.default_rng(0)
        outs = [sample_outcome(inst, DirectVoting(), rng) for _ in range(30)]
        assert np.mean(outs) > 0.9


class TestEstimateGain:
    def test_star_negative_gain(self, figure1_instance):
        gain, est, direct = estimate_gain(
            figure1_instance, GreedyBest(), rounds=5, seed=0
        )
        assert gain < 0
        assert est.probability == pytest.approx(0.625)
        assert direct > 0.625

    def test_delegation_positive_gain(self, instance):
        gain, _, _ = estimate_gain(instance, RandomApproved(), rounds=100, seed=0)
        assert gain > 0


class TestBallotEstimator:
    def test_agrees_for_non_abstaining(self, instance):
        a = estimate_correct_probability(instance, RandomApproved(), rounds=40, seed=3)
        b = estimate_ballot_probability(instance, RandomApproved(), rounds=40, seed=3)
        assert b.probability == pytest.approx(a.probability, abs=0.05)

    def test_rejects_zero_rounds(self, instance):
        with pytest.raises(ValueError):
            estimate_ballot_probability(instance, DirectVoting(), rounds=0)


# (probability, std_error) of 40 naive batch rounds per seed.  With
# j = 1 the threshold rule and RandomApproved consume the same uniforms
# the same way, so the two mechanisms share one expected pair.
_NAIVE_PINS = {
    0: (0.4, 0.07745966692414834),
    1: (0.325, 0.07405656621799313),
    2: (0.35, 0.07541551564499178),
}


class TestNaiveBatchPinned:
    """Bitwise pin of the ``exact_conditional=False`` batch vote stream.

    The perfbench ``ba_million`` workload only checks that its naive
    estimates lie in [0, 1]; this pins the vote stream exactly.
    """

    @pytest.fixture(scope="class")
    def ba_instance(self):
        n = 2000
        comp = np.random.default_rng(8).uniform(0.2, 0.55, n)
        return ProblemInstance(
            barabasi_albert_graph(n, 3, seed=7), comp, alpha=0.05
        )

    @pytest.mark.parametrize(
        "mechanism", [ApprovalThreshold(1), RandomApproved()],
        ids=["threshold1", "random_approved"],
    )
    @pytest.mark.parametrize("chunk_rounds", [1, 3, None])
    @pytest.mark.parametrize("seed", sorted(_NAIVE_PINS))
    def test_estimates_bitwise(self, ba_instance, mechanism, chunk_rounds, seed):
        est = BatchEstimator(chunk_rounds=chunk_rounds).estimate(
            ba_instance, mechanism, rounds=40, seed=seed,
            exact_conditional=False,
        )
        assert (est.probability, est.std_error) == _NAIVE_PINS[seed]


class TestVaryingSinkSet:
    """Chunking with a sink set that changes from round to round.

    ``SampledNeighbourhood`` polls random neighbours, so a voter delegates
    in some rounds and votes in others: each chunk's compact profile has
    its own column set, and the naive vote loop takes its masked branch.
    """

    CHUNKS = (1, 3, None)

    @pytest.fixture(scope="class")
    def instance(self):
        n = 300
        return ProblemInstance(
            barabasi_albert_graph(n, 3, seed=4),
            bounded_uniform_competencies(n, 0.35, seed=5),
            alpha=0.05,
        )

    def test_sink_set_varies_by_round(self, instance):
        _, weights = SampledNeighbourhood(1, d=3).sample_forests_batch(instance, 6, 2)
        assert not (weights > 0).all()

    def test_profiles_are_chunk_invariant(self, instance):
        """Each round's (sink, weight) pairs do not depend on the chunk."""
        mechanism = SampledNeighbourhood(1, d=3)
        whole = mechanism.sample_forests_batch(instance, 9, 6)
        for r in range(9):
            sinks, weights = mechanism.sample_forests_batch(instance, 1, 6, r)
            row = whole[1][r]
            assert np.array_equal(sinks, whole[0][row > 0])
            assert np.array_equal(weights[0], row[row > 0])

    def test_naive_estimates_bitwise(self, instance):
        mechanism = SampledNeighbourhood(1, d=3)
        estimates = [
            BatchEstimator(chunk_rounds=chunk).estimate(
                instance, mechanism, rounds=17, seed=6, exact_conditional=False
            )
            for chunk in self.CHUNKS
        ]
        assert estimates[0] == estimates[1] == estimates[2]

    def test_exact_estimates_bitwise(self, instance):
        """A round's exact value does not depend on the rounds batched
        with it (chunks of 3 differed from 1 and None in the last bit
        while the tails kernel factored out the chunk's constant
        columns)."""
        mechanism = SampledNeighbourhood(1, d=3)
        estimates = [
            BatchEstimator(chunk_rounds=chunk).estimate(
                instance, mechanism, rounds=17, seed=6
            )
            for chunk in self.CHUNKS
        ]
        assert estimates[0] == estimates[1] == estimates[2]


class TestRaoBlackwellisedBitwise:
    """Exact estimates are a function of (instance, mechanism, seed).

    Every round's value comes from that round's profile alone, so
    neither a warm estimator's cache, nor chunking, nor worker slices,
    nor adaptive batch boundaries move a bit.  BA n = 300 with U(0.3,
    0.7) competencies; each case differed in the last bit on at least
    one of these axes while the tails kernel batched rows together.
    """

    MECHANISMS = (ApprovalThreshold(2), RandomApproved(), FractionApproved(0.5))

    @staticmethod
    def _instance(graph_seed):
        n = 300
        return ProblemInstance(
            barabasi_albert_graph(n, 3, seed=graph_seed),
            np.random.default_rng(graph_seed).uniform(0.3, 0.7, n),
            alpha=0.05,
        )

    @pytest.mark.parametrize("graph_seed", [0, 3, 5, 8])
    def test_history_and_chunking(self, graph_seed):
        instance = self._instance(graph_seed)
        for mechanism in self.MECHANISMS:
            want = BatchEstimator().estimate(instance, mechanism, rounds=17, seed=3)
            warm = BatchEstimator()
            for rounds in (1, 3, 9):
                warm.estimate(instance, mechanism, rounds=rounds, seed=3)
            assert warm.estimate(instance, mechanism, rounds=17, seed=3) == want
            for chunk in (1, 2, 3, 5):
                got = BatchEstimator(chunk_rounds=chunk).estimate(
                    instance, mechanism, rounds=17, seed=3
                )
                assert got == want

    def test_shared_estimator_across_instances(self):
        # Same sinks and weight rows, other competencies: the profile
        # cache must not hand one instance's value to the other.
        low, high = (
            ProblemInstance(complete_graph(30), np.full(30, p), alpha=0.05)
            for p in (0.4, 0.6)
        )
        shared = BatchEstimator()
        for instance in (high, low):
            got = shared.estimate(instance, DirectVoting(), rounds=4, seed=0)
            want = BatchEstimator().estimate(instance, DirectVoting(), rounds=4, seed=0)
            assert got == want

    def test_n_jobs(self):
        instance = self._instance(3)
        for mechanism in self.MECHANISMS:
            serial = BatchEstimator().estimate(instance, mechanism, rounds=17, seed=3)
            pooled = BatchEstimator(n_jobs=3).estimate(
                instance, mechanism, rounds=17, seed=3
            )
            assert pooled == serial

    def test_adaptive_batch_boundaries(self):
        # An unreachable target runs the 64, 128, 150 batches: the same
        # rounds as one fixed run, cut at different places.
        instance = self._instance(3)
        for mechanism in self.MECHANISMS:
            fixed = BatchEstimator().estimate(instance, mechanism, rounds=150, seed=3)
            adaptive = BatchEstimator().estimate(
                instance, mechanism, rounds=150, seed=3, target_se=1e-30
            )
            assert adaptive.rounds == 150 and not adaptive.converged
            assert (adaptive.probability, adaptive.std_error) == (
                fixed.probability, fixed.std_error,
            )


class TestGeneratorSeeds:
    """A live ``Generator`` seed is consumed; its state fixes the estimate."""

    @pytest.fixture(scope="class")
    def random_instance(self):
        comp = bounded_uniform_competencies(24, 0.35, seed=0)
        return ProblemInstance(complete_graph(24), comp, alpha=0.05)

    def test_shared_generator_advances_between_calls(self, random_instance):
        gen = np.random.default_rng(5)
        before = gen.bit_generator.state
        a = estimate_correct_probability(
            random_instance, ApprovalThreshold(2), rounds=20, seed=gen
        )
        after = gen.bit_generator.state
        assert after != before
        b = estimate_correct_probability(
            random_instance, ApprovalThreshold(2), rounds=20, seed=gen
        )
        assert gen.bit_generator.state != after
        assert a != b

    def test_equal_states_give_equal_estimates(self, random_instance):
        gen = np.random.default_rng(5)
        gen.random(3)
        twin = np.random.default_rng(99)
        twin.bit_generator.state = gen.bit_generator.state
        for estimator in (estimate_correct_probability, estimate_ballot_probability):
            a = estimator(random_instance, ApprovalThreshold(2), rounds=20, seed=gen)
            b = estimator(random_instance, ApprovalThreshold(2), rounds=20, seed=twin)
            assert a == b
            assert gen.bit_generator.state == twin.bit_generator.state
