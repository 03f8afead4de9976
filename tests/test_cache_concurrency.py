"""Multi-process hammering of the shared estimate cache.

The sharded service points every worker process at one cache
directory, so `EstimateCache.put` must survive N concurrent writers:
racing writers of the *same* digest land exactly one entry (the rest
quietly drop their identical copies via the `os.link` claim), writers
of *disjoint* digests never lose a write, and no interleaving ever
leaves a torn or half-written file where `get` can see it.
"""

from __future__ import annotations

import json
import multiprocessing

from repro.cache import SCHEMA_VERSION, EstimateCache

_DIGEST = "d" * 64


def _estimate(seed: int) -> dict:
    # Deterministic content per digest, as in real use: every writer of
    # one digest writes identical bytes.  ``seed`` only labels the
    # payload here; the arithmetic derives field values, not a stream.
    return {
        "probability": 0.5 + seed / 1000.0,  # reprolint: disable=R103
        "rounds": 100 + seed,  # reprolint: disable=R103
        "std_error": 0.01,
        "ci_low": 0.4,
        "ci_high": 0.6,
        "converged": True,
    }


def _hammer_same_digest(args) -> int:
    root, writes = args
    cache = EstimateCache(root)
    for _ in range(writes):
        cache.put(_DIGEST, _estimate(0))
    return writes


def _hammer_own_digests(args) -> int:
    root, worker, writes = args
    cache = EstimateCache(root)
    for i in range(writes):
        seed = worker * writes + i
        cache.put(f"{seed:064x}", _estimate(seed))
    return writes


def _pool(n: int):
    # fork keeps startup cheap; the cache has no inherited state to trip on.
    return multiprocessing.get_context("fork").Pool(n)


class TestConcurrentWriters:
    N_PROCS = 8
    WRITES = 25

    def test_same_digest_lands_exactly_one_entry(self, tmp_path):
        root = tmp_path / "cache"
        with _pool(self.N_PROCS) as pool:
            done = pool.map(
                _hammer_same_digest,
                [(str(root), self.WRITES)] * self.N_PROCS,
            )
        assert done == [self.WRITES] * self.N_PROCS
        reader = EstimateCache(root)
        stats = reader.stats()
        assert stats["entries"] == 1
        entry = reader.get(_DIGEST)
        assert entry is not None
        assert entry["estimate"] == _estimate(0)
        # No leaked temp files from the losing writers.
        assert not list(root.glob(".tmp-*"))

    def test_disjoint_digests_lose_no_writes(self, tmp_path):
        root = tmp_path / "cache"
        with _pool(self.N_PROCS) as pool:
            pool.map(
                _hammer_own_digests,
                [(str(root), worker, self.WRITES)
                 for worker in range(self.N_PROCS)],
            )
        reader = EstimateCache(root)
        assert reader.stats()["entries"] == self.N_PROCS * self.WRITES
        for seed in range(self.N_PROCS * self.WRITES):
            entry = reader.get(f"{seed:064x}")
            assert entry is not None, f"lost write for seed {seed}"
            assert entry["estimate"] == _estimate(seed)
        assert reader.hits == self.N_PROCS * self.WRITES
        assert reader.misses == 0

    def test_no_corrupt_entries_under_contention(self, tmp_path):
        # Mixed load: everyone writes the shared digest *and* their own.
        root = tmp_path / "cache"
        with _pool(self.N_PROCS) as pool:
            shared = pool.map_async(
                _hammer_same_digest,
                [(str(root), self.WRITES)] * (self.N_PROCS // 2),
            )
            own = pool.map_async(
                _hammer_own_digests,
                [(str(root), worker, self.WRITES)
                 for worker in range(self.N_PROCS // 2)],
            )
            shared.get(timeout=120)
            own.get(timeout=120)
        # Every visible file parses, validates, and matches its digest.
        files = sorted(root.glob("*.json"))
        assert len(files) == 1 + (self.N_PROCS // 2) * self.WRITES
        for path in files:
            data = json.loads(path.read_text())
            assert data["schema"] == SCHEMA_VERSION
            assert path.name == f"{data['digest']}.json"
            assert set(data["estimate"]) >= {
                "probability", "rounds", "std_error",
                "ci_low", "ci_high", "converged",
            }

    def test_stats_consistent_after_the_dust_settles(self, tmp_path):
        root = tmp_path / "cache"
        with _pool(4) as pool:
            pool.map(
                _hammer_own_digests,
                [(str(root), worker, 10) for worker in range(4)],
            )
        stats = EstimateCache(root).stats()
        assert stats["entries"] == 40
        assert stats["bytes"] > 0
        assert stats["hits"] == 0 and stats["misses"] == 0


class TestSingleProcessSemantics:
    """The claim path must not change single-writer behaviour."""

    def test_put_then_get_round_trips(self, tmp_path):
        cache = EstimateCache(tmp_path / "cache")
        cache.put(_DIGEST, _estimate(3))
        entry = cache.get(_DIGEST)
        assert entry["estimate"] == _estimate(3)
        assert cache.hits == 1

    def test_repeated_put_is_idempotent(self, tmp_path):
        cache = EstimateCache(tmp_path / "cache")
        for _ in range(5):
            cache.put(_DIGEST, _estimate(3))
        assert cache.stats()["entries"] == 1
        assert not list((tmp_path / "cache").glob(".tmp-*"))

    def test_prune_still_bounds_entries(self, tmp_path):
        cache = EstimateCache(tmp_path / "cache", max_entries=5)
        for seed in range(12):
            cache.put(f"{seed:064x}", _estimate(seed))
        assert cache.stats()["entries"] == 5
