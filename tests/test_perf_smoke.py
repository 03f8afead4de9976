"""Smoke-scale performance regressions for the fast kernels.

Each check compares the optimised path against the retained reference
implementation at a size where the asymptotic gap is already decisive,
using the median or best of several repeats and a threshold far below the
measured speedups (so CI noise cannot flake them).  The full
demonstration with the ISSUE acceptance thresholds lives in
``benchmarks/bench_micro_components.py``.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.instance import ProblemInstance
from repro.delegation.graph import SELF, DelegationGraph
from repro.graphs.generators import complete_graph
from repro.mechanisms.weighted_majority import WeightedMajorityDelegation
from repro.sampling.recycle import RecycleSamplingGraph
from repro.voting.exact import (
    _reference_poisson_binomial_pmf,
    _reference_weighted_bernoulli_pmf,
    direct_voting_probability,
    poisson_binomial_pmf,
    weighted_bernoulli_pmf,
)


def _timings(fn, repeats):
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return samples


def _median_seconds(fn, repeats=5):
    return float(np.median(_timings(fn, repeats)))


def _best_seconds(fn, repeats=3):
    return min(_timings(fn, repeats))


def test_poisson_binomial_faster_than_reference():
    p = np.random.default_rng(0).uniform(0.0, 1.0, size=2048)
    fast = _median_seconds(lambda: poisson_binomial_pmf(p))
    ref = _median_seconds(lambda: _reference_poisson_binomial_pmf(p))
    # Measured ~6.5x; require a conservative 2x so CI noise cannot flake.
    assert ref / fast >= 2.0, f"PB speedup only {ref / fast:.2f}x"


def test_direct_voting_scales_subquadratically():
    # 8x the voters: ~8x times a log-squared factor for the FFT merge
    # ladder (measured ~10x), up to 64x for a quadratic finish (measured
    # 45-57x before the ladder).
    rng = np.random.default_rng(2)
    small = rng.uniform(0.0, 1.0, size=10_000)
    large = rng.uniform(0.0, 1.0, size=80_000)
    t_small = _median_seconds(lambda: direct_voting_probability(small))
    t_large = _median_seconds(lambda: direct_voting_probability(large))
    ratio = t_large / t_small
    assert ratio < 24.0, f"n=8e4 / n=1e4 time ratio {ratio:.1f} (quadratic ~64)"


def test_weighted_bernoulli_faster_than_reference():
    rng = np.random.default_rng(1)
    n = 1500
    w = np.ones(n, dtype=np.int64)
    heavy = rng.choice(n, size=40, replace=False)
    w[heavy] = rng.integers(2, 30, size=40)
    p = rng.uniform(0.0, 1.0, size=n)
    fast = _median_seconds(lambda: weighted_bernoulli_pmf(w, p))
    ref = _median_seconds(lambda: _reference_weighted_bernoulli_pmf(w, p))
    assert ref / fast >= 1.3, f"WB speedup only {ref / fast:.2f}x"


def test_chain_resolution_faster_than_reference():
    n = 4096
    delegates = np.array(list(range(1, n)) + [SELF], dtype=np.int64)
    fast = _median_seconds(lambda: DelegationGraph(delegates))
    ref = _median_seconds(
        lambda: DelegationGraph._reference_resolve_sinks(delegates)
    )
    assert ref / fast >= 2.0, f"resolution speedup only {ref / fast:.2f}x"


def test_recycle_sample_faster_than_reference():
    # A c = 4 layered graph of 2000 nodes, ten samples per timing.
    graph = RecycleSamplingGraph.layered(
        [[0.55] * 200] + [[0.55] * 600] * 3, fresh_prob=0.3
    )
    fast = _best_seconds(lambda: [graph.sample(s) for s in range(10)])
    ref = _best_seconds(lambda: [graph._reference_sample(s) for s in range(10)])
    # Measured 28-36x; require 5x so CI noise cannot flake.
    assert ref / fast >= 5.0, f"recycle sample speedup only {ref / fast:.2f}x"


def test_dag_estimate_faster_than_reference():
    n = 256
    p = np.random.default_rng(0).uniform(0.35, 0.65, n)
    instance = ProblemInstance(complete_graph(n), p, alpha=0.05)
    dag = WeightedMajorityDelegation(3, threshold=n ** (1 / 3)).sample_dag(instance, 0)
    fast = _best_seconds(lambda: dag.estimate_correct_probability(p, rounds=100, seed=1))
    ref = _best_seconds(
        lambda: dag._reference_estimate_correct_probability(p, rounds=100, seed=1)
    )
    # Measured 45-59x; require 8x so CI noise cannot flake.
    assert ref / fast >= 8.0, f"DAG estimate speedup only {ref / fast:.2f}x"
