"""Property-based tests for exact voting computations."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.voting.exact import (
    DirectVotingTerm,
    direct_voting_probability,
    poisson_binomial_pmf,
    tail_from_pmf,
    weighted_bernoulli_pmf,
)
from repro.voting.outcome import TiePolicy

probabilities = st.floats(0.0, 1.0, allow_nan=False)
prob_vectors = st.lists(probabilities, min_size=1, max_size=30)


class TestPoissonBinomialProperties:
    @given(prob_vectors)
    def test_pmf_is_distribution(self, probs):
        pmf = poisson_binomial_pmf(probs)
        assert np.all(pmf >= -1e-12)
        assert pmf.sum() == pytest.approx(1.0)

    @given(prob_vectors)
    def test_mean_matches(self, probs):
        pmf = poisson_binomial_pmf(probs)
        mean = float(np.arange(len(pmf)) @ pmf)
        assert mean == pytest.approx(sum(probs), abs=1e-9)

    @given(prob_vectors)
    def test_complement_symmetry(self, probs):
        # P[X = k] with probs p equals P[X = n-k] with probs 1-p.
        pmf = poisson_binomial_pmf(probs)
        flipped = poisson_binomial_pmf([1 - p for p in probs])
        assert np.allclose(pmf, flipped[::-1], atol=1e-9)

    @given(prob_vectors, probabilities)
    def test_appending_voter_preserves_distribution(self, probs, extra):
        base = poisson_binomial_pmf(probs)
        extended = poisson_binomial_pmf(probs + [extra])
        manual = np.zeros(len(base) + 1)
        manual[: len(base)] += base * (1 - extra)
        manual[1:] += base * extra
        assert np.allclose(extended, manual, atol=1e-9)


class TestWeightedPmfProperties:
    weighted_cases = st.lists(
        st.tuples(st.integers(0, 6), probabilities), min_size=1, max_size=12
    )

    @given(weighted_cases)
    def test_distribution(self, pairs):
        weights = [w for w, _ in pairs]
        probs = [p for _, p in pairs]
        pmf = weighted_bernoulli_pmf(weights, probs)
        assert len(pmf) == sum(weights) + 1
        assert pmf.sum() == pytest.approx(1.0)
        assert np.all(pmf >= -1e-12)

    @given(weighted_cases)
    def test_mean(self, pairs):
        weights = [w for w, _ in pairs]
        probs = [p for _, p in pairs]
        pmf = weighted_bernoulli_pmf(weights, probs)
        mean = float(np.arange(len(pmf)) @ pmf)
        assert mean == pytest.approx(
            sum(w * p for w, p in pairs), abs=1e-9
        )

    @given(weighted_cases)
    def test_order_invariance(self, pairs):
        weights = [w for w, _ in pairs]
        probs = [p for _, p in pairs]
        forward = weighted_bernoulli_pmf(weights, probs)
        backward = weighted_bernoulli_pmf(weights[::-1], probs[::-1])
        assert np.allclose(forward, backward, atol=1e-9)


class TestTailProperties:
    @given(prob_vectors)
    def test_coin_flip_at_least_strict(self, probs):
        pmf = poisson_binomial_pmf(probs)
        n = len(probs)
        strict = tail_from_pmf(pmf, n)
        coin = tail_from_pmf(pmf, n, TiePolicy.COIN_FLIP)
        assert coin >= strict - 1e-12

    @given(prob_vectors)
    def test_probability_in_unit_interval(self, probs):
        p = direct_voting_probability(probs)
        assert 0.0 <= p <= 1.0

    @given(st.lists(st.floats(0.5, 1.0), min_size=1, max_size=25))
    def test_symmetric_improvement(self, probs):
        # with all p >= 1/2, adding a perfectly correct voter cannot hurt
        base = direct_voting_probability(probs, TiePolicy.COIN_FLIP)
        more = direct_voting_probability(probs + [1.0, 1.0], TiePolicy.COIN_FLIP)
        assert more >= base - 1e-9

    @settings(max_examples=30)
    @given(st.integers(1, 9), st.floats(0.01, 0.99))
    def test_iid_monotone_in_p(self, n, p):
        lo = direct_voting_probability([p * 0.9] * n)
        hi = direct_voting_probability([min(1.0, p * 1.1)] * n)
        assert hi >= lo - 1e-12


class TestDirectVotingTermProperties:
    """The O(n) screen agrees with a from-scratch ``direct_voting_probability``."""

    edge_probabilities = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), probabilities)
    tie_policies = st.sampled_from([TiePolicy.INCORRECT, TiePolicy.COIN_FLIP])

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(edge_probabilities, min_size=1, max_size=150),
        st.none() | st.tuples(st.integers(0, 10**6), edge_probabilities),
        st.lists(edge_probabilities, max_size=3),
        tie_policies,
    )
    @example([0.3], (0, 0.5), [], TiePolicy.INCORRECT)  # n = 1
    @example([0.5, 1.0], (1, 0.0), [0.5], TiePolicy.COIN_FLIP)  # n = 2
    def test_matches_rebuild(self, probs, edit, joins, tie_policy):
        term = DirectVotingTerm(probs, tie_policy)
        assert term.probability == direct_voting_probability(probs, tie_policy)
        attacked = list(probs)
        competency = None
        if edit is not None:
            competency = (edit[0] % len(probs), edit[1])
            attacked[competency[0]] = competency[1]
        want = direct_voting_probability(attacked + joins, tie_policy)
        assert abs(term.probability_delta(competency, joins) - want) <= 1e-12

    @pytest.mark.parametrize("n", [4096, 4097])
    @pytest.mark.parametrize("tie_policy", list(TiePolicy))
    @pytest.mark.parametrize("p,q", [(0.0, 1.0), (0.5, 0.25), (1.0, 0.0), (0.3, 0.7)])
    def test_matches_rebuild_at_scale(self, n, tie_policy, p, q):
        probs = np.random.default_rng(n).uniform(0.35, 0.65, n)
        probs[7] = p
        term = DirectVotingTerm(probs, tie_policy)
        attacked = probs.copy()
        attacked[7] = q
        want = direct_voting_probability(attacked, tie_policy)
        assert abs(term.probability_delta((7, q)) - want) <= 1e-12
