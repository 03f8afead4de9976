"""Batched forest sampling: kernels, compiled instances, batch resolution.

The determinism contract under test: given the same per-voter uniforms,
``sample_delegations_batch`` must produce forests *bit-identical* to the
per-voter reference path (``_reference_sample_delegations_batch``), and
the batched evaluation pipeline (``resolve_forests_batch`` +
``weighted_tails_batch`` via ``_batch_values``) must agree with the
per-forest oracle (``DelegationGraph`` + ``forest_correct_probability``)
to 1e-12.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util.mathx import LRUCache
from repro._util.rng import as_seed_sequence, child_seed_sequence
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.delegation.graph import (
    SELF,
    DelegationCycleError,
    DelegationGraph,
    resolve_forests_batch,
)
from repro.graphs import generators as G
from repro.graphs.graph import Graph
from repro.mechanisms.direct import DirectVoting
from repro.mechanisms.fraction import FractionApproved
from repro.mechanisms.greedy import CappedRandomApproved, GreedyBest
from repro.mechanisms.sampled import SampledNeighbourhood, _hypergeom_cdf
from repro.mechanisms.threshold import ApprovalThreshold, RandomApproved
from repro.voting.exact import (
    forest_correct_probability,
    weighted_bernoulli_pmf,
    weighted_tails_batch,
)
from repro.voting.montecarlo import (
    BatchEstimator,
    _batch_values,
    _fixed_block,
    _reference_batch_rounds,
)
from repro.voting.outcome import TiePolicy


def _er_graph(n: int, p: float, seed: int) -> Graph:
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return Graph(n, np.column_stack((iu[keep], ju[keep])))


def _cases():
    rng = np.random.default_rng(0)
    er = _er_graph(40, 0.15, 1)
    isolated = Graph(10, [(0, 1), (2, 3), (2, 4)])
    star = Graph(8, [(0, i) for i in range(1, 8)])
    star_p = np.full(8, 0.3)
    star_p[0] = 0.9
    return [
        ("er", ProblemInstance(er, rng.random(40), alpha=0.05)),
        ("isolated", ProblemInstance(isolated, rng.random(10), alpha=0.05)),
        # alpha close to 1 empties every approval set
        ("empty-approval", ProblemInstance(er, rng.random(40), alpha=0.999)),
        (
            "complete",
            ProblemInstance(
                G.complete_graph(12), np.linspace(0.1, 0.9, 12), alpha=0.01
            ),
        ),
        ("star", ProblemInstance(star, star_p, alpha=0.1)),
    ]


def _kernel_mechanisms():
    return [
        ApprovalThreshold(1),
        ApprovalThreshold(lambda d: max(1.0, d ** (1 / 3))),
        RandomApproved(),
        FractionApproved(0.5),
        FractionApproved(0.25),
        DirectVoting(),
        SampledNeighbourhood(1),
        SampledNeighbourhood(2, d=3),
        SampledNeighbourhood(lambda s: s / 2, d=5),
    ]


class TestBatchSamplingKernels:
    @pytest.mark.parametrize("case_name,instance", _cases())
    def test_kernels_match_reference_bit_for_bit(self, case_name, instance):
        for mech in _kernel_mechanisms():
            assert mech.supports_batch_sampling
            for seed in (0, 7):
                batch = mech.sample_delegations_batch(instance, 25, seed=seed)
                ref = mech._reference_sample_delegations_batch(
                    instance, 25, seed=seed
                )
                assert np.array_equal(batch, ref), (case_name, mech.name, seed)

    @pytest.mark.parametrize("case_name,instance", _cases())
    def test_greedy_batch_is_tiled_deterministic_forest(
        self, case_name, instance
    ):
        gb = GreedyBest()
        batch = gb.sample_delegations_batch(instance, 5, seed=3)
        single = gb.sample_delegations(instance).delegates
        for row in batch:
            assert np.array_equal(row, single)

    def test_partition_invariance(self):
        _, instance = _cases()[0]
        for mech in _kernel_mechanisms():
            whole = mech.sample_delegations_batch(instance, 20, seed=42)
            head = mech.sample_delegations_batch(
                instance, 8, seed=42, first_round=0
            )
            tail = mech.sample_delegations_batch(
                instance, 12, seed=42, first_round=8
            )
            assert np.array_equal(whole, np.vstack([head, tail])), mech.name

    def test_fallback_mechanism_matches_per_round_child_seeds(self):
        _, instance = _cases()[0]
        mech = CappedRandomApproved(4)
        assert not mech.supports_batch_sampling
        batch = mech.sample_delegations_batch(instance, 6, seed=9)
        root = as_seed_sequence(9)
        for i in range(6):
            rng = np.random.default_rng(child_seed_sequence(root, i))
            expected = mech.sample_delegations(instance, rng).delegates
            assert np.array_equal(batch[i], expected), i

    def test_batch_shape_and_dtype(self):
        _, instance = _cases()[0]
        out = ApprovalThreshold(2).sample_delegations_batch(
            instance, 7, seed=0
        )
        assert out.shape == (7, instance.num_voters)
        # Delegate matrices use the instance's CSR index dtype: int32
        # below 2^31 voters, halving the per-round footprint.
        assert out.dtype == instance.compiled().index_dtype
        assert out.dtype == np.int32
        assert ((out == SELF) | (out >= 0)).all()


class TestSampledNeighbourhoodKernel:
    def test_hypergeom_cdf_is_exact(self):
        from math import comb

        for good, bad, size in [(3, 5, 4), (6, 0, 3), (2, 9, 7), (5, 5, 10)]:
            cdf = _hypergeom_cdf(good, bad, size)
            kmax = min(size, good)
            assert len(cdf) == kmax + 1
            denom = comb(good + bad, size)
            acc = 0.0
            for k in range(kmax + 1):
                acc += comb(good, k) * comb(bad, size - k) / denom
                assert cdf[k] == pytest.approx(acc, abs=1e-12)
            assert cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_delegation_rate_matches_distribution(self):
        # Statistical: the batched kernel's per-voter delegation
        # frequency must track the closed-form delegation probability.
        instance = ProblemInstance(
            G.complete_graph(30),
            bounded_uniform_competencies(30, 0.35, seed=3),
            alpha=0.05,
        )
        mech = SampledNeighbourhood(2, d=6)
        rounds = 600
        batch = mech.sample_delegations_batch(instance, rounds, seed=1)
        rate = (batch != SELF).mean(axis=0)
        for voter in range(0, 30, 7):
            dist = mech.distribution(instance.local_view(voter))
            expected = 1.0 - dist.get(None, 0.0)
            sigma = np.sqrt(max(expected * (1 - expected), 1e-12) / rounds)
            assert abs(rate[voter] - expected) < 5 * sigma + 1e-9


class TestCompiledInstance:
    def test_arrays_match_structure(self):
        _, instance = _cases()[0]
        compiled = instance.compiled()
        assert compiled.num_voters == instance.num_voters
        assert np.array_equal(compiled.degrees, instance.graph.degrees())
        for v in range(instance.num_voters):
            view = instance.local_view(v)
            assert compiled.approved_counts[v] == view.approval_count

    def test_memoised_per_instance(self):
        _, instance = _cases()[0]
        assert instance.compiled() is instance.compiled()

    def test_resolve_approved_offsets_orders_by_competency(self):
        _, instance = _cases()[0]
        compiled = instance.compiled()
        for v in range(instance.num_voters):
            approved = instance.local_view(v).approved
            if not approved:
                continue
            offsets = np.arange(len(approved))
            got = compiled.resolve_approved_offsets(
                np.full(len(approved), v), offsets
            )
            assert list(got) == list(approved)

    def test_greedy_targets_pick_best_approved(self):
        _, instance = _cases()[0]
        compiled = instance.compiled()
        comp = instance.competencies
        for v in range(instance.num_voters):
            approved = instance.local_view(v).approved
            if not approved:
                assert compiled.greedy_targets[v] == SELF
            else:
                best = max(approved, key=lambda u: (comp[u], -u))
                assert compiled.greedy_targets[v] == best

    def test_approved_csr_consistent(self):
        _, instance = _cases()[0]
        compiled = instance.compiled()
        indptr, indices = compiled.approved_csr()
        assert indptr[-1] == compiled.approved_counts.sum()
        for v in range(instance.num_voters):
            seg = indices[indptr[v] : indptr[v + 1]]
            assert sorted(seg) == sorted(instance.local_view(v).approved)


class TestResolveForestsBatch:
    def test_matches_per_round_resolution(self):
        rng = np.random.default_rng(5)
        n = 60
        delegates = np.full((12, n), SELF, dtype=np.int64)
        for r in range(12):
            for i in range(1, n):
                if rng.random() < 0.6:
                    delegates[r, i] = int(rng.integers(0, i))
        sink_of, weights = resolve_forests_batch(delegates)
        for r in range(12):
            forest = DelegationGraph(delegates[r])
            assert np.array_equal(sink_of[r], forest._sink_of)
            assert np.array_equal(
                weights[r], [forest.weight(v) for v in range(n)]
            )

    def test_even_cycle_detected(self):
        # 2-cycles make pointer doubling converge onto moving cells —
        # the resolved-iff-lands-on-sink check must still catch them.
        delegates = np.array([[1, 0, SELF, 2]], dtype=np.int64)
        with pytest.raises(DelegationCycleError):
            resolve_forests_batch(delegates)

    def test_odd_cycle_detected(self):
        delegates = np.array([[1, 2, 0, SELF]], dtype=np.int64)
        with pytest.raises(DelegationCycleError):
            resolve_forests_batch(delegates)

    def test_cycle_in_later_round_only(self):
        delegates = np.array(
            [[SELF, 0, 1], [2, SELF, 0]], dtype=np.int64
        )
        with pytest.raises(DelegationCycleError):
            resolve_forests_batch(delegates)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            resolve_forests_batch(np.array([[5, SELF]], dtype=np.int64))

    def test_self_delegation_normalised(self):
        sink_of, weights = resolve_forests_batch(
            np.array([[0, 0, SELF]], dtype=np.int64)
        )
        assert np.array_equal(sink_of, [[0, 0, 2]])
        assert np.array_equal(weights, [[2, 0, 1]])

    def test_empty(self):
        sink_of, weights = resolve_forests_batch(
            np.empty((0, 4), dtype=np.int64)
        )
        assert sink_of.shape == (0, 4)
        assert weights.shape == (0, 4)


def _tails_oracle(W, P, total):
    Pb = np.broadcast_to(P, W.shape)
    half = total // 2
    strict = np.empty(W.shape[0])
    atom = np.empty(W.shape[0])
    for r in range(W.shape[0]):
        mask = W[r] > 0
        pmf = weighted_bernoulli_pmf(W[r][mask], Pb[r][mask])
        strict[r] = pmf[half + 1 :].sum() if len(pmf) > half + 1 else 0.0
        atom[r] = (
            pmf[half] if total % 2 == 0 and len(pmf) > half else 0.0
        )
    return np.minimum(strict, 1.0), atom


def _balanced_profiles(rng, rounds, S, n_const, total, wmax=5):
    """Rows of positive weights all summing to ``total`` with a block of
    ``n_const`` columns held constant across rounds."""
    W = np.zeros((rounds, S), dtype=np.int64)
    const = rng.integers(1, wmax, n_const)
    W[:, :n_const] = const
    rem = total - int(const.sum())
    assert rem > 0
    for r in range(rounds):
        left = rem
        col = n_const
        while left > 0:
            w = int(rng.integers(1, min(wmax, left) + 1))
            W[r, col] = w
            left -= w
            col += 1
        assert col <= S
    return W


class TestWeightedTailsBatch:
    @pytest.mark.parametrize("total", [160, 161])
    def test_const_column_factoring_matches_oracle(self, total):
        rng = np.random.default_rng(42)
        W = _balanced_profiles(rng, 30, 260, 40, total)
        P = rng.uniform(0.2, 0.8, 260)
        win, atom = weighted_tails_batch(W, P, total)
        want_win, want_atom = _tails_oracle(W, P, total)
        assert np.abs(win - want_win).max() < 1e-12
        assert np.abs(atom - want_atom).max() < 1e-12

    def test_per_round_probs_matrix(self):
        rng = np.random.default_rng(7)
        total = 120
        W = _balanced_profiles(rng, 20, 200, 30, total)
        P = np.tile(rng.uniform(0.2, 0.8, 200), (20, 1))
        P[3, 150:] = rng.uniform(0.2, 0.8, 50)
        win, atom = weighted_tails_batch(W, P, total)
        want_win, want_atom = _tails_oracle(W, P, total)
        assert np.abs(win - want_win).max() < 1e-12
        assert np.abs(atom - want_atom).max() < 1e-12

    @pytest.mark.parametrize("odd", [False, True])
    def test_wide_bucket_chunk_splitting(self, odd):
        # Buckets wider than one ladder piece (513+ sinks of one weight)
        # exercise the chunk-splitting path.
        rng = np.random.default_rng(3)
        rounds, S = 6, 1500
        W = np.ones((rounds, S), dtype=np.int64)
        W[:, 1300:1400] = rng.integers(1, 6, (rounds, 100))
        W[:, 1400:] = 0
        target = int(W.sum(axis=1).max()) + (1 if odd else 0)
        for r in range(rounds):
            need = target - int(W[r].sum())
            W[r, 1400 : 1400 + need] = 1
        total = int(W[0].sum())
        assert (W.sum(axis=1) == total).all()
        P = rng.uniform(0.3, 0.7, S)
        win, atom = weighted_tails_batch(W, P, total)
        want_win, want_atom = _tails_oracle(W, P, total)
        assert np.abs(win - want_win).max() < 1e-12
        assert np.abs(atom - want_atom).max() < 1e-12

    def test_all_rounds_identical_profile(self):
        rng = np.random.default_rng(11)
        row = rng.integers(1, 4, 90)
        W = np.tile(row, (8, 1))
        total = int(row.sum())
        P = rng.uniform(0.2, 0.8, 90)
        win, atom = weighted_tails_batch(W, P, total)
        want_win, want_atom = _tails_oracle(W, P, total)
        assert np.abs(win - want_win).max() < 1e-12
        assert np.abs(atom - want_atom).max() < 1e-12
        assert (win == win[0]).all()

    @pytest.mark.parametrize("total", [160, 161])
    def test_base_block_matches_oracle(self, total):
        # The constant columns leave the matrix and join every round as
        # the ``base`` PMF: the tails of the whole profile.
        rng = np.random.default_rng(5)
        W = _balanced_profiles(rng, 30, 260, 40, total, wmax=2)
        P = rng.uniform(0.2, 0.8, 260)
        base = weighted_bernoulli_pmf(W[0, :40], P[:40])
        win, atom = weighted_tails_batch(W[:, 40:], P[40:], total, base)
        want_win, want_atom = _tails_oracle(W, P, total)
        assert np.abs(win - want_win).max() < 1e-12
        assert np.abs(atom - want_atom).max() < 1e-12

    def test_base_block_alone(self):
        # Every sink in the block: empty rows are the point mass.
        rng = np.random.default_rng(9)
        P = rng.uniform(0.2, 0.8, 100)
        base = weighted_bernoulli_pmf(np.ones(100, dtype=np.int64), P)
        win, atom = weighted_tails_batch(
            np.zeros((3, 0), dtype=np.int64), np.empty(0), 100, base
        )
        want_win, want_atom = _tails_oracle(np.ones((1, 100), dtype=np.int64), P, 100)
        assert (win == win[0]).all() and (atom == atom[0]).all()
        assert abs(win[0] - want_win[0]) < 1e-12
        assert abs(atom[0] - want_atom[0]) < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rounds=st.integers(1, 6),
        sinks=st.integers(1, 300),
        wmax=st.sampled_from([2, 3, 8, 40]),
        base_size=st.sampled_from([None, 0, 1, 90]),
    )
    def test_every_row_equals_itself_alone(self, seed, rounds, sinks, wmax, base_size):
        """Rows share sorts and ladder calls but no arithmetic.

        Bucket sizes vary by row, so a size class often has a single
        member in one call and peers in another.
        """
        rng = np.random.default_rng(seed)
        W = rng.integers(0, wmax, (rounds, sinks))
        W[:, 0] += 1
        ones = rng.random(rounds) < 0.5
        W[ones, : sinks // 2] = 1  # a wide weight-1 bucket in some rows
        P = rng.uniform(0.05, 0.95, sinks)
        total = int(W.sum(axis=1).max())
        base = None
        if base_size is not None:
            base = weighted_bernoulli_pmf(
                np.ones(base_size, dtype=np.int64), rng.uniform(0.1, 0.9, base_size)
            )
            total += base_size
        win, atom = weighted_tails_batch(W, P, total, base)
        for r in range(rounds):
            alone = weighted_tails_batch(W[r : r + 1], P, total, base)
            assert (alone[0][0], alone[1][0]) == (win[r], atom[r])
            # Zero columns are ignored bit for bit as well.
            keep = W[r] > 0
            packed = weighted_tails_batch(W[r : r + 1, keep], P[keep], total, base)
            assert (packed[0][0], packed[1][0]) == (win[r], atom[r])

    def test_round_without_positive_weight_rejected(self):
        W = np.array([[1, 2], [0, 0]], dtype=np.int64)
        with pytest.raises(ValueError):
            weighted_tails_batch(W, np.array([0.5, 0.5]), 3)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            weighted_tails_batch(np.ones(4), np.full(4, 0.5), 4)
        with pytest.raises(ValueError):
            weighted_tails_batch(
                np.ones((2, 4), dtype=np.int64), np.full(4, 0.5), 0
            )


class TestBatchValues:
    @pytest.mark.parametrize(
        "n,make_graph",
        [
            (30, lambda: G.complete_graph(30)),  # below DP cutoff
            (121, lambda: G.complete_graph(121)),  # odd total
            (200, lambda: G.barabasi_albert_graph(200, 3, seed=2)),
        ],
    )
    def test_matches_forest_oracle(self, n, make_graph):
        instance = ProblemInstance(
            make_graph(),
            bounded_uniform_competencies(n, 0.35, seed=0),
            alpha=0.05,
        )
        for mech in [
            ApprovalThreshold(3),
            FractionApproved(0.4),
            SampledNeighbourhood(1, d=4),
        ]:
            delegates = mech.sample_delegations_batch(instance, 30, seed=11)
            _, weights = resolve_forests_batch(delegates)
            sinks = np.flatnonzero(weights.any(axis=0))
            for tie_policy in (TiePolicy.INCORRECT, TiePolicy.COIN_FLIP):
                values = _batch_values(
                    instance, sinks, weights[:, sinks], tie_policy,
                    LRUCache(256),
                )
                for r in range(30):
                    forest = DelegationGraph(delegates[r])
                    want = forest_correct_probability(
                        forest, instance.competencies, tie_policy
                    )
                    assert abs(values[r] - want) <= 1e-12, (
                        n,
                        mech.name,
                        tie_policy,
                        r,
                    )

    def test_fixed_block_matches_forest_oracle(self):
        # The fixed sinks leave the profile and join as one base PMF.
        n = 300
        instance = ProblemInstance(
            G.barabasi_albert_graph(n, 2, seed=5),
            bounded_uniform_competencies(n, 0.35, seed=0),
            alpha=0.05,
        )
        mech = ApprovalThreshold(lambda d: max(1.0, d ** (1 / 3)))
        block = _fixed_block(instance, mech)
        assert block[0].size > 0
        sinks, weights = mech.sample_forests_batch(instance, 20, seed=4)
        values = _batch_values(
            instance, sinks, weights, TiePolicy.COIN_FLIP, LRUCache(256), block
        )
        plain = _batch_values(
            instance, sinks, weights, TiePolicy.COIN_FLIP, LRUCache(256)
        )
        assert np.abs(values - plain).max() <= 1e-12

    def test_cache_key_carries_the_fixed_block(self):
        # One cache, one profile, two blocks: no entry crosses over.
        instance = ProblemInstance(
            G.barabasi_albert_graph(120, 2, seed=1),
            bounded_uniform_competencies(120, 0.35, seed=2),
            alpha=0.05,
        )
        mech = ApprovalThreshold(2)
        sinks, weights = mech.sample_forests_batch(instance, 4, seed=0)
        block = _fixed_block(instance, mech)
        assert block[0].size > 0
        cache = LRUCache(64)
        _batch_values(instance, sinks, weights, TiePolicy.INCORRECT, cache)
        misses = cache.misses
        _batch_values(instance, sinks, weights, TiePolicy.INCORRECT, cache, block)
        assert cache.misses == misses + len({w.tobytes() for w in weights})

    def test_cache_shared_across_tie_policies(self):
        # The cache stores (strict, atom) pairs, so a COIN_FLIP pass
        # after an INCORRECT pass costs zero extra kernel evaluations.
        instance = ProblemInstance(
            G.complete_graph(80),
            bounded_uniform_competencies(80, 0.35, seed=1),
            alpha=0.05,
        )
        mech = ApprovalThreshold(4)
        sinks, weights = mech.sample_forests_batch(instance, 16, seed=2)
        cache = LRUCache(256)
        _batch_values(instance, sinks, weights, TiePolicy.INCORRECT, cache)
        misses = cache.misses
        _batch_values(instance, sinks, weights, TiePolicy.COIN_FLIP, cache)
        assert cache.misses == misses


class TestEngineEquivalence:
    def test_new_engine_statistically_agrees_with_reference(self):
        instance = ProblemInstance(
            G.complete_graph(120),
            bounded_uniform_competencies(120, 0.35, seed=0),
            alpha=0.05,
        )
        mech = ApprovalThreshold(5)
        ref = _reference_batch_rounds(
            instance, mech, as_seed_sequence(3), 0, 300,
            TiePolicy.INCORRECT, True, 512,
        )
        ref_se = ref.std(ddof=1) / np.sqrt(len(ref))
        new = BatchEstimator().estimate(instance, mech, rounds=300, seed=3)
        gap = abs(ref.mean() - new.probability)
        assert gap < 6 * (ref_se + new.std_error) + 1e-9

    def test_n_jobs_invariance_with_kernels(self):
        instance = ProblemInstance(
            G.complete_graph(90),
            bounded_uniform_competencies(90, 0.35, seed=0),
            alpha=0.05,
        )
        mech = FractionApproved(0.5)
        probs = {
            jobs: BatchEstimator(n_jobs=jobs)
            .estimate(instance, mech, rounds=24, seed=3)
            .probability
            for jobs in (1, 2, 3)
        }
        assert probs[1] == probs[2] == probs[3]
