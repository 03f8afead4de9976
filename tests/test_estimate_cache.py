"""Persistent estimate cache (:mod:`repro.cache`) tests.

Covers the digest schema (every component must flip the key), corrupt
and stale entries (recompute, replace), generator fast-forwarding (warm
sweeps leave downstream streams bit-identical), and mid-grid resume.
"""

from __future__ import annotations

import numpy as np
import pytest
from numpy.random import SeedSequence

import repro.cache as cache_mod
from repro.cache import EstimateCache, estimate_digest, seed_token
from repro.core.competencies import bounded_uniform_competencies
from repro.core.instance import ProblemInstance
from repro.delegation.graph import DelegationGraph
from repro.experiments import ExperimentConfig, get_experiment
from repro.graphs.generators import complete_graph
from repro.mechanisms.base import DelegationMechanism
from repro.mechanisms.threshold import ApprovalThreshold
from repro.voting.montecarlo import estimate_correct_probability


def _instance(n: int = 24, seed: int = 0) -> ProblemInstance:
    comp = bounded_uniform_competencies(n, 0.35, seed=seed)
    return ProblemInstance(complete_graph(n), comp, alpha=0.05)


MECH = ApprovalThreshold(2)
PARAMS = {
    "fn": "estimate_correct_probability",
    "rounds": 40,
    "tie_policy": "INCORRECT",
    "exact_conditional": True,
    "target_se": None,
    "max_rounds": None,
}


def _estimate(cache, seed=1, **kwargs):
    return estimate_correct_probability(
        _instance(), MECH, rounds=40, seed=SeedSequence(seed),
        engine="batch", cache=cache, **kwargs,
    )


class TestDigest:
    def test_stable_for_equal_inputs(self):
        a = estimate_digest(_instance(), MECH, SeedSequence(1), PARAMS)
        b = estimate_digest(_instance(), MECH, SeedSequence(1), PARAMS)
        assert a is not None and a == b

    def test_each_component_flips_the_key(self):
        base = estimate_digest(_instance(), MECH, SeedSequence(1), PARAMS)
        variants = [
            estimate_digest(  # competency array
                _instance(seed=1), MECH, SeedSequence(1), PARAMS
            ),
            estimate_digest(  # mechanism parameters
                _instance(), ApprovalThreshold(3), SeedSequence(1), PARAMS
            ),
            estimate_digest(  # seed
                _instance(), MECH, SeedSequence(2), PARAMS
            ),
            estimate_digest(  # tie policy
                _instance(), MECH, SeedSequence(1),
                dict(PARAMS, tie_policy="COIN_FLIP"),
            ),
            estimate_digest(  # estimator params
                _instance(), MECH, SeedSequence(1), dict(PARAMS, rounds=80)
            ),
        ]
        assert base not in variants
        assert len(set(variants)) == len(variants)

    def test_schema_version_flips_the_key(self, monkeypatch):
        base = estimate_digest(_instance(), MECH, SeedSequence(1), PARAMS)
        monkeypatch.setattr(cache_mod, "SCHEMA_VERSION", 999)
        bumped = estimate_digest(_instance(), MECH, SeedSequence(1), PARAMS)
        assert base != bumped

    def test_equivalent_threshold_callables_share_a_key(self):
        a = estimate_digest(
            _instance(), ApprovalThreshold(lambda d: 2.0), SeedSequence(1),
            PARAMS,
        )
        b = estimate_digest(
            _instance(), ApprovalThreshold(2.0), SeedSequence(1), PARAMS
        )
        assert a == b

    def test_fresh_entropy_seed_is_uncacheable(self):
        assert seed_token(None) is None
        assert estimate_digest(_instance(), MECH, None, PARAMS) is None

    def test_untokenisable_mechanism_is_uncacheable(self):
        class Opaque(DelegationMechanism):
            def __init__(self):
                self._fn = lambda n: n  # unpicklable, no token override

            @property
            def name(self):
                return "opaque"

            def sample_delegations(self, instance, rng=None):
                return DelegationGraph([-1] * instance.num_voters)

        assert estimate_digest(_instance(), Opaque(), SeedSequence(1), PARAMS) is None


class TestEstimateCache:
    def test_hit_returns_equal_estimate(self, tmp_path):
        cache = EstimateCache(tmp_path / "store")
        cold = _estimate(cache)
        warm = _estimate(cache)
        assert cold == warm
        assert len(cache) == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_uncacheable_inputs_fall_through(self, tmp_path):
        cache = EstimateCache(tmp_path / "store")
        est = estimate_correct_probability(
            _instance(), MECH, rounds=40, seed=None, engine="batch",
            cache=cache,
        )
        assert est.rounds == 40
        assert len(cache) == 0

    def test_corrupt_entry_recomputed_and_replaced(self, tmp_path):
        cache = EstimateCache(tmp_path / "store")
        cold = _estimate(cache)
        digest = estimate_digest(
            _instance(), MECH, SeedSequence(1), PARAMS
        )
        path = cache.path_for(digest)
        assert path.is_file()
        path.write_text("not json {")
        warm = _estimate(cache)
        assert warm == cold
        # The corrupt file was discarded and rewritten valid.
        assert cache.get(digest) is not None

    def test_wrong_schema_entry_is_a_miss(self, tmp_path):
        cache = EstimateCache(tmp_path / "store")
        _estimate(cache)
        digest = estimate_digest(
            _instance(), MECH, SeedSequence(1), PARAMS
        )
        entry = cache.get(digest)
        entry["schema"] = -1
        cache.path_for(digest).write_text(
            cache_mod._canonical_json(entry)
        )
        assert cache.get(digest) is None
        assert not cache.path_for(digest).exists()

    def test_schema_1_entry_is_a_miss(self, tmp_path, monkeypatch):
        """An entry written before the exact kernels changed bits is never
        served: schema 1 digests to another key and fails validation."""
        cache = EstimateCache(tmp_path / "store")
        with monkeypatch.context() as patch:
            patch.setattr(cache_mod, "SCHEMA_VERSION", 1)
            old = _estimate(cache)
            old_digest = estimate_digest(
                _instance(), MECH, SeedSequence(1), PARAMS
            )
            assert cache.get(old_digest) is not None
        assert cache_mod.SCHEMA_VERSION != 1
        digest = estimate_digest(_instance(), MECH, SeedSequence(1), PARAMS)
        assert digest != old_digest
        assert cache.get(digest) is None
        # The schema-1 file does not validate under its own name either.
        assert cache.get(old_digest) is None
        assert _estimate(cache) == old

    def test_clear(self, tmp_path):
        cache = EstimateCache(tmp_path / "store")
        _estimate(cache)
        assert len(cache) == 1
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0 and cache.misses == 0

    def test_generator_fast_forwarded_on_hit(self, tmp_path):
        """Warm runs leave a live generator bit-identical to cold runs."""
        cache = EstimateCache(tmp_path / "store")

        def run():
            gen = np.random.default_rng(123)
            est = estimate_correct_probability(
                _instance(), MECH, rounds=40, seed=gen, cache=cache,
            )
            return est, gen.random(4)

        cold_est, cold_tail = run()
        warm_est, warm_tail = run()
        assert cache.hits == 1
        assert warm_est == cold_est
        np.testing.assert_array_equal(cold_tail, warm_tail)


class TestSweepResume:
    def test_killed_sweep_resumes_from_cache(self, tmp_path):
        store = tmp_path / "store"
        grid = [(n_seed, s_seed) for n_seed in range(3) for s_seed in range(2)]

        def sweep(cache, die_after=None):
            results = []
            for i, (n_seed, s_seed) in enumerate(grid):
                if die_after is not None and i >= die_after:
                    raise KeyboardInterrupt  # simulated mid-grid kill
                results.append(
                    estimate_correct_probability(
                        _instance(seed=n_seed), MECH, rounds=40,
                        seed=SeedSequence(s_seed), engine="batch",
                        cache=cache,
                    )
                )
            return results

        with pytest.raises(KeyboardInterrupt):
            sweep(EstimateCache(store), die_after=4)
        assert len(EstimateCache(store)) == 4

        resumed_cache = EstimateCache(store)
        resumed = sweep(resumed_cache)
        assert resumed_cache.hits == 4  # first four points came from disk
        assert resumed_cache.misses == 2
        assert resumed == sweep(EstimateCache(tmp_path / "fresh"))

    def test_experiment_rerun_with_cache_is_identical(self, tmp_path):
        cfg = ExperimentConfig(
            seed=3, scale="smoke", cache_dir=str(tmp_path / "store"),
        )
        uncached = get_experiment("T2")(
            ExperimentConfig(seed=3, scale="smoke")
        )
        cold = get_experiment("T2")(cfg)
        warm = get_experiment("T2")(cfg)
        assert cold.rows == warm.rows == uncached.rows
        assert len(EstimateCache(cfg.cache_dir)) > 0


class TestBoundedCacheAndStats:
    """``max_entries`` pruning and the ``stats()`` report."""

    def _fill(self, cache, count):
        for index in range(count):
            entry = {field: float(index) for field in
                     ("probability", "std_error", "ci_low", "ci_high")}
            entry.update(rounds=40, converged=True)
            cache.put(f"{index:064d}", entry)

    def test_invalid_max_entries_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            EstimateCache(tmp_path, max_entries=0)

    def test_prunes_oldest_first(self, tmp_path):
        cache = EstimateCache(tmp_path / "store", max_entries=3)
        now = 1_700_000_000
        for index in range(5):
            self._fill_one(cache, index)
            # Deterministic ordering regardless of filesystem timestamp
            # granularity: stamp each entry one second apart.
            path = cache.path_for(f"{index:064d}")
            import os as _os

            _os.utime(path, ns=((now + index) * 10**9, (now + index) * 10**9))
        cache._prune()
        assert len(cache) == 3
        survivors = sorted(p.name for p in cache._entries())
        assert survivors == [f"{i:064d}.json" for i in (2, 3, 4)]

    def _fill_one(self, cache, index):
        entry = {field: float(index) for field in
                 ("probability", "std_error", "ci_low", "ci_high")}
        entry.update(rounds=40, converged=True)
        cache.put(f"{index:064d}", entry)

    def test_unbounded_by_default(self, tmp_path):
        cache = EstimateCache(tmp_path / "store")
        self._fill(cache, 5)
        assert len(cache) == 5
        assert cache.stats()["max_entries"] is None

    def test_put_keeps_store_at_bound(self, tmp_path):
        cache = EstimateCache(tmp_path / "store", max_entries=2)
        self._fill(cache, 6)
        assert len(cache) <= 2

    def test_stats_counts_entries_bytes_hits_misses(self, tmp_path):
        store = tmp_path / "store"
        cache = EstimateCache(store, max_entries=10)
        self._fill(cache, 3)
        cache.get("f" * 64)  # miss (not a digest we wrote)
        cache.get(f"{1:064d}")  # hit
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] == sum(
            p.stat().st_size for p in store.glob("*.json")
        )
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["max_entries"] == 10

    def test_stats_on_missing_directory(self, tmp_path):
        stats = EstimateCache(tmp_path / "never-created").stats()
        assert stats == {
            "entries": 0, "bytes": 0, "hits": 0, "misses": 0,
            "max_entries": None, "by_op": {},
        }

    def test_inflight_tmp_files_excluded(self, tmp_path):
        store = tmp_path / "store"
        cache = EstimateCache(store, max_entries=10)
        self._fill(cache, 2)
        (store / ".tmp-torn.json").write_text("{")
        assert len(cache) == 2
        assert cache.stats()["entries"] == 2

    def test_pruned_entry_becomes_a_miss_not_an_error(self, tmp_path):
        store = tmp_path / "store"
        cache = EstimateCache(store, max_entries=1)
        estimate = _estimate(cache, seed=1)
        _estimate(cache, seed=2)  # evicts seed=1's entry
        again = _estimate(cache, seed=1)  # recomputed, not corrupted
        assert again == estimate
