"""Tests for exact probability computation (Poisson binomial DPs)."""

import itertools
import math

import numpy as np
import pytest

from repro.delegation.graph import SELF, DelegationGraph
from repro.voting.exact import (
    _reference_smooth_fft_len,
    _smooth_fft_len,
    direct_voting_probability,
    forest_correct_probability,
    normal_approx_probability,
    poisson_binomial_pmf,
    tail_from_pmf,
    weighted_bernoulli_pmf,
)
from repro.voting.outcome import TiePolicy


def brute_force_pmf(weights, probs):
    """Enumerate all outcomes; reference for small cases."""
    total = sum(weights)
    pmf = np.zeros(total + 1)
    for outcome in itertools.product([0, 1], repeat=len(probs)):
        prob = 1.0
        value = 0
        for x, w, p in zip(outcome, weights, probs):
            prob *= p if x else (1 - p)
            value += w * x
        pmf[value] += prob
    return pmf


class TestSmoothFftLen:
    """The table-and-bisect FFT length against trial division."""

    def test_every_length_up_to_2_16(self):
        top = 1 << 16
        # Trial division of every k <= top (vectorised), then the next
        # smooth k >= n for each n by a reverse running minimum.
        span = np.arange(1, top + 100)
        m = span.copy()
        for p in (2, 3, 5):
            while True:
                hit = m % p == 0
                if not hit.any():
                    break
                m[hit] //= p
        nxt = np.where(m == 1, span, np.iinfo(np.int64).max)
        nxt = np.minimum.accumulate(nxt[::-1])[::-1]
        got = [_smooth_fft_len(n) for n in range(top + 1)]
        assert got[0] == 1
        assert got[1:] == nxt[:top].tolist()
        for n in range(0, top + 1, 997):
            assert _reference_smooth_fft_len(n) == got[n]

    def test_sampled_lengths_up_to_2_26(self):
        rng = np.random.default_rng(0)
        lengths = np.exp2(rng.uniform(16, 26, 16)).astype(np.int64)
        for n in (1 << 26, 3 ** 16 + 1, *lengths.tolist()):
            assert _smooth_fft_len(n) == _reference_smooth_fft_len(n)


class TestPoissonBinomialPmf:
    def test_matches_binomial(self):
        p = [0.3] * 6
        pmf = poisson_binomial_pmf(p)
        for k in range(7):
            expected = math.comb(6, k) * 0.3**k * 0.7 ** (6 - k)
            assert pmf[k] == pytest.approx(expected)

    def test_matches_bruteforce_heterogeneous(self):
        p = [0.1, 0.5, 0.9, 0.3]
        pmf = poisson_binomial_pmf(p)
        ref = brute_force_pmf([1] * 4, p)
        assert np.allclose(pmf, ref)

    def test_sums_to_one(self):
        rng = np.random.default_rng(0)
        p = rng.random(50)
        assert poisson_binomial_pmf(p).sum() == pytest.approx(1.0)

    def test_empty(self):
        pmf = poisson_binomial_pmf([])
        assert pmf.tolist() == [1.0]

    def test_deterministic_voters(self):
        pmf = poisson_binomial_pmf([1.0, 0.0, 1.0])
        assert pmf[2] == pytest.approx(1.0)


class TestWeightedBernoulliPmf:
    def test_matches_bruteforce(self):
        weights = [3, 1, 2]
        probs = [0.6, 0.5, 0.2]
        pmf = weighted_bernoulli_pmf(weights, probs)
        ref = brute_force_pmf(weights, probs)
        assert np.allclose(pmf, ref)

    def test_reduces_to_poisson_binomial(self):
        probs = [0.3, 0.7, 0.5]
        assert np.allclose(
            weighted_bernoulli_pmf([1, 1, 1], probs),
            poisson_binomial_pmf(probs),
        )

    def test_zero_weights_ignored(self):
        pmf = weighted_bernoulli_pmf([0, 2], [0.9, 0.5])
        ref = weighted_bernoulli_pmf([2], [0.5])
        assert np.allclose(pmf, ref)

    def test_single_heavy_sink(self):
        pmf = weighted_bernoulli_pmf([5], [0.7])
        assert pmf[0] == pytest.approx(0.3)
        assert pmf[5] == pytest.approx(0.7)
        assert pmf[1:5].sum() == pytest.approx(0.0)

    def test_sums_to_one(self):
        rng = np.random.default_rng(1)
        weights = rng.integers(1, 10, size=20).tolist()
        probs = rng.random(20).tolist()
        assert weighted_bernoulli_pmf(weights, probs).sum() == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            weighted_bernoulli_pmf([1, 2], [0.5])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            weighted_bernoulli_pmf([-1], [0.5])


class TestDegenerateElectorates:
    """Voters with ``p ∈ {0, 1}`` are an exact shift, not ladder input.

    ``N`` is far above the FFT crossover (``_FFT_MIN``), so a degenerate
    voter left in the ladder would surface as roundoff; every value here
    is exact.
    """

    N = 20_000

    @staticmethod
    def _pmfs(probs, weights):
        """Both kernels on one electorate: unit weights and ``weights``."""
        yield poisson_binomial_pmf(probs), len(probs)
        yield weighted_bernoulli_pmf(np.ones(len(probs), dtype=np.int64), probs), len(probs)
        yield weighted_bernoulli_pmf(weights, probs), int(np.sum(weights))

    def _weights(self):
        # 1, 2, 3, 1, 2, 3, ... restarted at the half: equal half weights.
        return np.arange(self.N) % (self.N // 2) % 3 + 1

    def test_all_zero(self):
        for pmf, total in self._pmfs(np.zeros(self.N), self._weights()):
            assert pmf[0] == 1.0 and not pmf[1:].any()
            for policy in TiePolicy:
                assert tail_from_pmf(pmf, total, policy) == 0.0

    def test_all_one(self):
        for pmf, total in self._pmfs(np.ones(self.N), self._weights()):
            assert pmf[-1] == 1.0 and not pmf[:-1].any()
            for policy in TiePolicy:
                assert tail_from_pmf(pmf, total, policy) == 1.0

    def test_half_zero_half_one_tie(self):
        probs = np.zeros(self.N)
        probs[: self.N // 2] = 1.0
        for pmf, total in self._pmfs(probs, self._weights()):
            assert pmf[total // 2] == 1.0 and pmf.sum() == 1.0
            assert tail_from_pmf(pmf, total, TiePolicy.INCORRECT) == 0.0
            assert tail_from_pmf(pmf, total, TiePolicy.COIN_FLIP) == 0.5
        assert direct_voting_probability(probs) == 0.0
        assert direct_voting_probability(probs, TiePolicy.COIN_FLIP) == 0.5


class TestTailFromPmf:
    def test_strict_majority_odd(self):
        pmf = poisson_binomial_pmf([0.5] * 3)
        # P[X >= 2] for Binomial(3, 1/2) = 1/2
        assert tail_from_pmf(pmf, 3) == pytest.approx(0.5)

    def test_tie_handling_even(self):
        pmf = poisson_binomial_pmf([0.5] * 2)
        # strict: P[X = 2] = 1/4; coin flip adds half of P[X = 1] = 1/2
        assert tail_from_pmf(pmf, 2) == pytest.approx(0.25)
        assert tail_from_pmf(pmf, 2, TiePolicy.COIN_FLIP) == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            tail_from_pmf(np.array([1.0]), 3)


class TestDirectVotingProbability:
    def test_unanimous_competent(self):
        assert direct_voting_probability([1.0, 1.0, 1.0]) == 1.0

    def test_single_voter(self):
        assert direct_voting_probability([0.7]) == pytest.approx(0.7)

    def test_symmetric_coin_flip_voters_odd(self):
        assert direct_voting_probability([0.5] * 5) == pytest.approx(0.5)

    def test_condorcet_improvement(self):
        # Condorcet jury: p > 1/2 means larger groups do better.
        small = direct_voting_probability([0.6] * 3)
        large = direct_voting_probability([0.6] * 51)
        assert large > small > 0.6

    def test_condorcet_decay_below_half(self):
        small = direct_voting_probability([0.4] * 3)
        large = direct_voting_probability([0.4] * 51)
        assert large < small < 0.4 + 1e-9


class TestForestCorrectProbability:
    def test_direct_forest_matches_direct(self):
        p = [0.3, 0.6, 0.8]
        forest = DelegationGraph.direct(3)
        assert forest_correct_probability(forest, p) == pytest.approx(
            direct_voting_probability(p)
        )

    def test_dictatorship_equals_dictator_competency(self):
        forest = DelegationGraph([SELF, 0, 0, 0, 0])
        p = [0.625, 0.5, 0.5, 0.5, 0.5]
        assert forest_correct_probability(forest, p) == pytest.approx(0.625)

    def test_two_sinks_majority(self):
        # weights 3 and 2: sink 0 alone decides
        forest = DelegationGraph([SELF, 0, 0, SELF, 3])
        p = [0.9, 0.1, 0.1, 0.2, 0.1]
        assert forest_correct_probability(forest, p) == pytest.approx(0.9)

    def test_tie_weights_strict(self):
        # two sinks of weight 2: correct needs both
        forest = DelegationGraph([SELF, 0, SELF, 2])
        p = [0.5, 0.5, 0.5, 0.5]
        assert forest_correct_probability(forest, p) == pytest.approx(0.25)
        assert forest_correct_probability(
            forest, p, TiePolicy.COIN_FLIP
        ) == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            forest_correct_probability(DelegationGraph.direct(2), [0.5])


class TestNormalApproximation:
    def test_matches_exact_for_large_n(self):
        n = 2001
        p = [0.55] * n
        exact = direct_voting_probability(p)
        approx = normal_approx_probability([1] * n, p)
        assert approx == pytest.approx(exact, abs=0.01)

    def test_degenerate_variance(self):
        assert normal_approx_probability([3], [1.0]) == 1.0
        assert normal_approx_probability([3], [0.0]) == 0.0

    def test_degenerate_tie(self):
        # mean exactly at threshold with zero variance
        assert normal_approx_probability([2, 2], [1.0, 0.0]) == 0.0
        assert normal_approx_probability(
            [2, 2], [1.0, 0.0], TiePolicy.COIN_FLIP
        ) == 0.5
