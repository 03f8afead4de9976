"""Suite-level benchmarks for PR 3: adaptive precision + persistent cache.

Two wall-clock comparisons over the smoke experiment grid (the SPG/DNH
instance families of the theorem experiments, complete graphs, Algorithm
1), each asserted with margin and recorded in ``BENCH_experiments.json``:

* **adaptive vs fixed** — reaching ``target_se = 0.01`` adaptively must
  take at least 2x less wall clock than fixed ``rounds = 400`` (the
  Rao–Blackwellised estimator typically converges within the first
  geometric batch, so the observed ratio is larger);
* **cache cold vs warm** — re-running the sweep against a warm
  :class:`repro.cache.EstimateCache` must be at least 5x faster than the
  cold run that populated it, with bit-identical estimates.

A third, unasserted record tracks the end-to-end ``run all`` smoke suite
cold-vs-warm (table rendering, instance construction and exact direct
probabilities are not cached, so its ratio is structurally smaller; the
CI cache-warm gate covers it with a looser threshold).
"""

from __future__ import annotations

import shutil
import time

import numpy as np
from numpy.random import SeedSequence

from repro.cache import EstimateCache
from repro.core.instance import ProblemInstance
from repro.experiments import ExperimentConfig, get_experiment, list_experiments
from repro.experiments.theorems import (
    ALPHA,
    dnh_competencies,
    dnh_expert_count,
    spg_competencies,
)
from repro.graphs.generators import complete_graph
from repro.mechanisms.threshold import ApprovalThreshold
from repro.voting.montecarlo import estimate_correct_probability

FIXED_ROUNDS = 400
TARGET_SE = 0.01
SIZES = (64, 128, 256)


def _cube_root_threshold(d: int) -> float:
    return (d + 1) ** (1.0 / 3.0)


def smoke_grid():
    """The benchmark sweep: SPG + DNH instances per size, Algorithm 1."""
    mech = ApprovalThreshold(_cube_root_threshold)
    points = []
    for n in SIZES:
        gen = np.random.default_rng(n)
        graph = complete_graph(n)
        points.append(
            (ProblemInstance(graph, spg_competencies(n, gen), alpha=ALPHA), mech, n)
        )
        points.append(
            (
                ProblemInstance(
                    graph, dnh_competencies(n, dnh_expert_count(n)), alpha=ALPHA
                ),
                mech,
                n + 1,
            )
        )
    return points


def _sweep(points, **kwargs):
    t0 = time.perf_counter()
    estimates = [
        estimate_correct_probability(
            inst, mech, rounds=FIXED_ROUNDS, seed=SeedSequence(s), **kwargs,
        )
        for inst, mech, s in points
    ]
    return time.perf_counter() - t0, estimates


def test_adaptive_reaches_target_se_2x_faster(experiment_record):
    """Adaptive ``target_se`` beats fixed ``rounds=400`` by >= 2x wall clock."""
    points = smoke_grid()
    _sweep(points)  # warm caches (compiled instances, imports) for both arms
    fixed_seconds, fixed = _sweep(points)
    adaptive_seconds, adaptive = _sweep(points, target_se=TARGET_SE)

    assert all(est.converged for est in adaptive)
    assert all(est.std_error <= TARGET_SE for est in adaptive)
    assert all(est.rounds <= FIXED_ROUNDS for est in adaptive)
    # Same child-seed stream: the adaptive estimate over its first
    # ``rounds`` rounds is a prefix of the fixed run's.
    for fix, ada in zip(fixed, adaptive):
        assert ada.rounds < fix.rounds

    experiment_record(
        "adaptive_target_se_vs_fixed_rounds",
        adaptive_seconds,
        fixed_seconds,
        scale="smoke",
        grid_points=len(points),
        fixed_rounds=FIXED_ROUNDS,
        target_se=TARGET_SE,
        adaptive_rounds=[est.rounds for est in adaptive],
    )
    assert adaptive_seconds * 2 <= fixed_seconds, (
        f"adaptive {adaptive_seconds:.4f}s vs fixed {fixed_seconds:.4f}s"
    )


def test_cache_warm_sweep_5x_faster(experiment_record, tmp_path):
    """A warm re-run of the sweep is >= 5x faster and bit-identical."""
    points = smoke_grid()
    cache = EstimateCache(str(tmp_path / "repro-cache"))
    _sweep(points)  # warm compiled instances so cold times the estimator
    cold_seconds, cold = _sweep(points, cache=cache)
    warm_seconds, warm = _sweep(points, cache=cache)

    assert len(cache) == len(points)
    for a, b in zip(cold, warm):
        assert a == b

    experiment_record(
        "cache_warm_vs_cold_sweep",
        warm_seconds,
        cold_seconds,
        scale="smoke",
        grid_points=len(points),
        fixed_rounds=FIXED_ROUNDS,
    )
    assert warm_seconds * 5 <= cold_seconds, (
        f"warm {warm_seconds:.4f}s vs cold {cold_seconds:.4f}s"
    )


def test_end_to_end_suite_cold_vs_warm(experiment_record, tmp_path):
    """Record (not gate) the full ``run all`` smoke suite cold vs warm.

    End-to-end runs include uncacheable work — instance construction,
    exact direct-voting probabilities, table rendering — so the ratio is
    structurally smaller than the sweep's; the warm run must still win.
    """
    cache_dir = str(tmp_path / "repro-cache")
    ids = [eid for eid, _ in list_experiments()]

    def run_all():
        cfg = ExperimentConfig(scale="smoke", cache_dir=cache_dir)
        return [get_experiment(eid)(cfg) for eid in ids]

    t0 = time.perf_counter()
    cold = run_all()
    cold_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    warm = run_all()
    warm_seconds = time.perf_counter() - t0
    shutil.rmtree(cache_dir, ignore_errors=True)

    for a, b in zip(cold, warm):
        assert a.rows == b.rows

    experiment_record(
        "end_to_end_smoke_suite_warm_vs_cold",
        warm_seconds,
        cold_seconds,
        scale="smoke",
        experiments=len(ids),
    )
    assert warm_seconds < cold_seconds
