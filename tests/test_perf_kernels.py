"""Equivalence suite pinning the fast kernels to their reference oracles.

The performance rewrites (merge-tree Poisson binomial, bucketed weighted
Bernoulli DP, pointer-doubling forest resolution, batched Monte Carlo)
each keep the original quadratic implementation as ``_reference_*``.
These tests drive both over randomized inputs and require agreement to
1e-12 absolute error (kernels) or exact equality (index computations and
seeded estimates).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro._util.mathx import LRUCache
from repro._util.rng import as_seed_sequence, child_seed_sequence
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.delegation.graph import (
    SELF,
    DelegationCycleError,
    DelegationGraph,
)
from repro.graphs.generators import barabasi_albert_graph, complete_graph
from repro.mechanisms.threshold import ApprovalThreshold
from repro.voting.exact import (
    _reference_poisson_binomial_pmf,
    _reference_weighted_bernoulli_pmf,
    normal_approx_probability,
    poisson_binomial_pmf,
    weighted_bernoulli_pmf,
)
from repro.voting.montecarlo import BatchEstimator, estimate_correct_probability
from repro.voting.outcome import TiePolicy

TOL = 1e-12


# -- Poisson binomial ---------------------------------------------------------


@pytest.mark.parametrize(
    "n", [0, 1, 2, 3, 5, 16, 17, 63, 64, 65, 127, 200, 500]
)
def test_poisson_binomial_matches_reference(n):
    rng = np.random.default_rng(n)
    p = rng.uniform(0.0, 1.0, size=n)
    fast = poisson_binomial_pmf(p)
    ref = _reference_poisson_binomial_pmf(p)
    assert fast.shape == (n + 1,)
    assert np.max(np.abs(fast - ref)) <= TOL
    assert fast.sum() == pytest.approx(1.0, abs=TOL)


def test_poisson_binomial_empty_input():
    assert np.array_equal(poisson_binomial_pmf([]), np.ones(1))


def test_poisson_binomial_degenerate_probabilities():
    # All-certain and all-impossible voters exercise exact 0/1 handling.
    assert poisson_binomial_pmf([1.0] * 100)[-1] == pytest.approx(1.0, abs=TOL)
    assert poisson_binomial_pmf([0.0] * 100)[0] == pytest.approx(1.0, abs=TOL)
    mixed = poisson_binomial_pmf([0.0, 1.0] * 50)
    assert mixed[50] == pytest.approx(1.0, abs=TOL)


@pytest.mark.slow
def test_poisson_binomial_large_randomized_sweep():
    rng = np.random.default_rng(0)
    for n in (1000, 2048):
        p = rng.uniform(0.0, 1.0, size=n)
        err = np.max(
            np.abs(poisson_binomial_pmf(p) - _reference_poisson_binomial_pmf(p))
        )
        assert err <= TOL


# -- Weighted Bernoulli -------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 7, 50, 300])
@pytest.mark.parametrize("wmax", [1, 2, 5, 40])
def test_weighted_bernoulli_matches_reference(n, wmax):
    rng = np.random.default_rng(1000 * n + wmax)
    w = rng.integers(0, wmax + 1, size=n)
    p = rng.uniform(0.0, 1.0, size=n)
    fast = weighted_bernoulli_pmf(w, p)
    ref = _reference_weighted_bernoulli_pmf(w, p)
    assert fast.shape == ref.shape == (int(w.sum()) + 1,)
    assert np.max(np.abs(fast - ref)) <= TOL


def test_weighted_bernoulli_empty_input():
    assert np.array_equal(weighted_bernoulli_pmf([], []), np.ones(1))


def test_weighted_bernoulli_all_zero_weights():
    pmf = weighted_bernoulli_pmf([0, 0, 0], [0.2, 0.5, 0.9])
    assert np.array_equal(pmf, np.ones(1))


def test_weighted_bernoulli_single_voter():
    pmf = weighted_bernoulli_pmf([5], [0.3])
    expected = np.zeros(6)
    expected[0], expected[5] = 0.7, 0.3
    assert np.max(np.abs(pmf - expected)) <= TOL


def test_weighted_bernoulli_single_heavy_bucket():
    # One bucket larger than the DP cutoff exercises the lone-bucket path.
    rng = np.random.default_rng(9)
    p = rng.uniform(0.0, 1.0, size=200)
    w = np.full(200, 3)
    fast = weighted_bernoulli_pmf(w, p)
    ref = _reference_weighted_bernoulli_pmf(w, p)
    assert np.max(np.abs(fast - ref)) <= TOL


# -- Pointer-doubling resolution ----------------------------------------------


def _assert_resolution_matches(delegates):
    arr = np.asarray(delegates, dtype=np.int64)
    graph = DelegationGraph(delegates)
    expected = DelegationGraph._reference_resolve_sinks(arr)
    assert np.array_equal(np.array([graph.sink_of(i) for i in range(len(arr))]), expected)


def test_resolution_chain():
    n = 257
    _assert_resolution_matches(list(range(1, n)) + [SELF])


def test_resolution_star():
    n = 100
    _assert_resolution_matches([SELF] + [0] * (n - 1))


def test_resolution_random_forests():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        # Delegating only to a lower index guarantees acyclicity.
        delegates = np.array(
            [SELF if i == 0 or rng.random() < 0.3 else int(rng.integers(0, i))
             for i in range(n)],
            dtype=np.int64,
        )
        _assert_resolution_matches(delegates)


def test_depths_match_python_walk():
    rng = np.random.default_rng(8)
    n = 200
    delegates = np.array(
        [SELF if i == 0 or rng.random() < 0.25 else int(rng.integers(0, i))
         for i in range(n)],
        dtype=np.int64,
    )
    graph = DelegationGraph(delegates)
    for v in range(n):
        hops, u = 0, v
        while delegates[u] != SELF:
            u = int(delegates[u])
            hops += 1
        assert graph.depth(v) == hops
    assert graph.max_depth() == max(graph.depth(v) for v in range(n))


@pytest.mark.parametrize(
    "delegates,cycle",
    [
        ([1, 0], [0, 1, 0]),
        ([1, 2, 0], [0, 1, 2, 0]),
        ([SELF, 2, 3, 1], [1, 2, 3, 1]),
        ([1, 2, 1, SELF], [1, 2, 1]),
    ],
)
def test_cycle_detection(delegates, cycle):
    with pytest.raises(DelegationCycleError) as err:
        DelegationGraph(delegates)
    assert set(err.value.cycle) == set(cycle)
    assert err.value.cycle[0] == err.value.cycle[-1]


def test_cycle_detection_matches_reference():
    # Both resolvers must agree on *whether* a configuration is cyclic.
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        delegates = np.array(
            [SELF if rng.random() < 0.2 else int(rng.integers(0, n))
             for i in range(n)],
            dtype=np.int64,
        )
        delegates[delegates == np.arange(n)] = SELF
        try:
            DelegationGraph._reference_resolve_sinks(delegates)
            cyclic_ref = False
        except DelegationCycleError:
            cyclic_ref = True
        try:
            DelegationGraph(delegates)
            cyclic_fast = False
        except DelegationCycleError:
            cyclic_fast = True
        assert cyclic_fast == cyclic_ref


# -- Seed-sequence helpers ----------------------------------------------------


def test_child_seed_sequence_matches_spawn():
    root = as_seed_sequence(42)
    spawned = np.random.SeedSequence(42).spawn(5)
    for i, child in enumerate(spawned):
        mine = child_seed_sequence(root, i)
        assert np.array_equal(
            mine.generate_state(4), child.generate_state(4)
        )


def test_child_seed_sequence_rejects_negative_index():
    with pytest.raises(ValueError):
        child_seed_sequence(as_seed_sequence(0), -1)


# -- LRU cache ----------------------------------------------------------------


def test_lru_cache_eviction_and_counters():
    cache = LRUCache(maxsize=2)
    assert cache.get("a") is None
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1  # refreshes "a"
    cache.put("c", 3)  # evicts "b", the least recently used
    assert cache.get("b") is None
    assert cache.get("a") == 1 and cache.get("c") == 3
    assert cache.hits == 3 and cache.misses == 2
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


def test_lru_cache_rejects_bad_maxsize():
    with pytest.raises(ValueError):
        LRUCache(0)


# -- Batch estimator ----------------------------------------------------------


@pytest.fixture(scope="module")
def pool_instance():
    n = 120
    return ProblemInstance(
        complete_graph(n),
        bounded_uniform_competencies(n, 0.35, seed=0),
        alpha=0.05,
    )


def test_batch_estimate_invariant_to_n_jobs(pool_instance):
    mech = ApprovalThreshold(5)  # constant threshold: picklable
    estimates = [
        BatchEstimator(n_jobs=j).estimate(pool_instance, mech, rounds=24, seed=3)
        for j in (1, 2, 3)
    ]
    assert estimates[0].probability == estimates[1].probability
    assert estimates[0].probability == estimates[2].probability
    assert estimates[0].std_error == estimates[1].std_error


def test_rao_blackwellised_estimate_is_bitwise_across_n_jobs():
    # Forests, naive vote draws and each round's exact tail are all
    # functions of the round alone, so both estimators are bitwise
    # invariant to n_jobs.  This configuration differed in the last bit
    # between n_jobs=1 and n_jobs=3 while weighted_tails_batch factored
    # out the columns constant over the rows batched together.
    n = 300
    instance = ProblemInstance(
        barabasi_albert_graph(n, 3, seed=3),
        np.random.default_rng(3).uniform(0.3, 0.7, n),
        alpha=0.05,
    )
    mech = ApprovalThreshold(2)

    def estimate(n_jobs, exact_conditional):
        return BatchEstimator(n_jobs=n_jobs).estimate(
            instance, mech, rounds=17, seed=3,
            exact_conditional=exact_conditional,
        ).probability

    assert estimate(1, False) == estimate(3, False)
    assert estimate(1, True) == estimate(3, True)


def test_batch_estimate_unpicklable_mechanism_falls_back(pool_instance):
    mech = ApprovalThreshold(lambda d: 5.0)  # lambda: unpicklable
    with pytest.warns(RuntimeWarning, match="falling back"):
        parallel = BatchEstimator(n_jobs=2).estimate(
            pool_instance, mech, rounds=16, seed=3
        )
    serial = BatchEstimator(n_jobs=1).estimate(
        pool_instance, mech, rounds=16, seed=3
    )
    assert parallel.probability == serial.probability


def test_batch_profile_cache_deduplicates(pool_instance):
    mech = ApprovalThreshold(5)
    estimator = BatchEstimator(n_jobs=1)
    estimator.estimate(pool_instance, mech, rounds=20, seed=0)
    first_misses = estimator.cache.misses
    assert first_misses <= 20
    estimator.estimate(pool_instance, mech, rounds=20, seed=0)
    # Identical rounds the second time: every profile is already cached.
    assert estimator.cache.misses == first_misses


def test_batch_naive_mode_matches_exact_statistically(pool_instance):
    mech = ApprovalThreshold(5)
    exact = BatchEstimator().estimate(pool_instance, mech, rounds=64, seed=1)
    naive = BatchEstimator().estimate(
        pool_instance, mech, rounds=512, seed=1, exact_conditional=False
    )
    assert naive.ci_low - 0.05 <= exact.probability <= naive.ci_high + 0.05


def test_estimate_engine_dispatch(pool_instance):
    mech = ApprovalThreshold(5)
    batched = estimate_correct_probability(
        pool_instance, mech, rounds=24, seed=3, engine="batch"
    )
    direct = BatchEstimator().estimate(pool_instance, mech, rounds=24, seed=3)
    assert batched.probability == direct.probability
    with pytest.raises(ValueError, match="engine"):
        estimate_correct_probability(
            pool_instance, mech, rounds=4, seed=0, engine="threads"
        )


def test_estimate_serial_engine_rejected(pool_instance):
    # The serial engine is gone: asking for it names the removal, and
    # the default is the batch engine.
    mech = ApprovalThreshold(5)
    with pytest.raises(ValueError, match="serial Monte Carlo engine was removed"):
        estimate_correct_probability(
            pool_instance, mech, rounds=4, seed=0, engine="serial"
        )
    a = estimate_correct_probability(pool_instance, mech, rounds=24, seed=3)
    b = BatchEstimator().estimate(pool_instance, mech, rounds=24, seed=3)
    assert a == b


def test_batch_estimator_rejects_bad_args(pool_instance):
    with pytest.raises(ValueError, match="n_jobs"):
        BatchEstimator(n_jobs=0)
    with pytest.raises(ValueError, match="rounds"):
        BatchEstimator().estimate(
            pool_instance, ApprovalThreshold(5), rounds=0, seed=0
        )


# -- Normal approximation tie handling ----------------------------------------


def test_normal_approx_tie_policies_differ_only_on_even_totals():
    w = np.ones(10, dtype=np.int64)
    p = np.full(10, 0.5)
    strict = normal_approx_probability(w, p, TiePolicy.INCORRECT)
    coin = normal_approx_probability(w, p, TiePolicy.COIN_FLIP)
    # Even total: coin-flip half-counts the tie atom, so it is larger.
    assert coin > strict
    assert coin == pytest.approx(0.5, abs=1e-12)
    w_odd = np.ones(11, dtype=np.int64)
    p_odd = np.full(11, 0.5)
    assert normal_approx_probability(
        w_odd, p_odd, TiePolicy.INCORRECT
    ) == pytest.approx(
        normal_approx_probability(w_odd, p_odd, TiePolicy.COIN_FLIP), abs=1e-15
    )


def test_normal_approx_close_to_exact_tail():
    rng = np.random.default_rng(5)
    n = 4001
    p = rng.uniform(0.4, 0.6, size=n)
    w = np.ones(n, dtype=np.int64)
    exact_pmf = poisson_binomial_pmf(p)
    exact = float(exact_pmf[n // 2 + 1 :].sum())
    approx = normal_approx_probability(w, p, TiePolicy.INCORRECT)
    assert approx == pytest.approx(exact, abs=2e-3)


# -- Threshold degree caching -------------------------------------------------


def test_threshold_evaluated_once_per_distinct_degree(pool_instance):
    calls = []

    def counting_threshold(deg):
        calls.append(deg)
        return 5.0

    mech = ApprovalThreshold(counting_threshold)
    mech.sample_delegations(pool_instance, np.random.default_rng(0))
    # The complete graph is regular: one distinct degree, one call.
    assert len(calls) == 1


def test_constant_threshold_repr_and_name():
    mech = ApprovalThreshold(7)
    assert mech.name == "approval-threshold(j=7)"
    assert mech.threshold_at(123) == 7.0
