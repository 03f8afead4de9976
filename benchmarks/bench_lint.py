"""Lint-engine throughput benchmark: cold vs cache-warm.

The workload the incremental lint cache exists for: the self-hosted CI
gate re-lints ``src/`` on every push, but between pushes almost nothing
changes.  Two configurations over the identical file set:

* ``cold`` — empty cache: every file parsed, every rule (including the
  flow fixpoint) run from scratch;
* ``warm`` — second run against the cache the cold run populated:
  all files served from cache, zero parsing.

Both must produce **byte-identical findings** — asserted before any
timing is recorded — so the speedup is a pure implementation win.
The committed floor is ``warm ≥ 3x cold``; in practice the warm path
is an order of magnitude faster because it only hashes file contents
and reads one small JSON entry per file.
"""

import os
import shutil
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")

#: scale → timing repetitions
_REPEATS = {
    "smoke": 1,
    "default": 3,
    "full": 5,
}

WARM_FLOOR = 3.0


def _summary(findings):
    return [(f.path, f.rule, f.line, f.col, f.message) for f in findings]


def _timed_run(cache_dir):
    from repro.lint import run_lint

    start = time.perf_counter()
    run = run_lint([SRC], cache_dir=cache_dir)
    return time.perf_counter() - start, run


def test_lint_cold_vs_warm(tmp_path, lint_record):
    repeats = _REPEATS.get(SCALE, _REPEATS["smoke"])
    cache = tmp_path / "lint-cache"

    cold_s, warm_s = [], []
    reference = None
    for _ in range(repeats):
        shutil.rmtree(cache, ignore_errors=True)
        sec, cold = _timed_run(cache)
        cold_s.append(sec)
        sec, warm = _timed_run(cache)
        warm_s.append(sec)

        # Identical output is a precondition of recording any timing.
        if reference is None:
            reference = _summary(cold.findings)
        assert _summary(cold.findings) == reference
        assert _summary(warm.findings) == reference
        assert warm.analyzed == ()  # all served from cache

    files = cold.files_checked
    cold_best = min(cold_s)
    warm_best = min(warm_s)

    assert cold_best / warm_best >= WARM_FLOOR, (
        f"warm lint only {cold_best / warm_best:.1f}x faster than cold "
        f"(floor {WARM_FLOOR}x)"
    )

    lint_record(
        "cold", files, cold_best, cold_best, findings=len(reference)
    )
    lint_record(
        "warm",
        files,
        warm_best,
        cold_best,
        findings=len(reference),
        cache_hits=warm.cache_hits,
    )
