"""Shared machinery for the benchmark suite.

Every experiment benchmark times the experiment runner at smoke scale
(so `pytest benchmarks/ --benchmark-only` completes in minutes) and
prints the reproduced table — the same rows/series the corresponding
paper artefact reports — to the terminal.  Set REPRO_BENCH_SCALE=default
or =full in the environment to regenerate the EXPERIMENTS.md numbers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro._util.memory import peak_rss_mib
from repro.experiments import ExperimentConfig, get_experiment

BENCH_SCALE = os.environ.get("REPRO_BENCH_SCALE", "smoke")
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "0"))

#: Machine-readable micro-benchmark records accumulated over the session
#: and flushed to ``BENCH_micro.json`` next to this file.  Each entry is
#: ``{op, n, seconds, reference_seconds, speedup}`` — ``seconds`` is the
#: best-of-k (minimum) wall time of the fast kernel, ``reference_seconds``
#: that of the retained reference implementation it is pinned against.
_MICRO_RECORDS: list = []


@pytest.fixture
def micro_record():
    """Record one kernel-vs-reference timing pair for BENCH_micro.json."""

    def record(op: str, n: int, seconds: float, reference_seconds: float):
        _MICRO_RECORDS.append(
            {
                "op": op,
                "n": n,
                "seconds": seconds,
                "reference_seconds": reference_seconds,
                "speedup": reference_seconds / seconds,
                "peak_rss_mib": peak_rss_mib(),
            }
        )

    return record


#: End-to-end experiment-suite records (adaptive-vs-fixed wall clock,
#: cache cold-vs-warm wall clock) flushed to ``BENCH_experiments.json``
#: next to this file.  Each entry is ``{suite, seconds, baseline_seconds,
#: speedup, detail}`` — ``seconds`` is the optimised configuration,
#: ``baseline_seconds`` the configuration it is asserted against.
_EXPERIMENT_RECORDS: list = []


@pytest.fixture
def experiment_record():
    """Record one suite-level timing pair for BENCH_experiments.json."""

    def record(
        suite: str, seconds: float, baseline_seconds: float, **detail
    ):
        _EXPERIMENT_RECORDS.append(
            {
                "suite": suite,
                "seconds": seconds,
                "baseline_seconds": baseline_seconds,
                "speedup": baseline_seconds / seconds,
                "peak_rss_mib": peak_rss_mib(),
                "detail": detail,
            }
        )

    return record


#: Estimation-service throughput records (coalesced server vs the
#: sequential un-coalesced baseline under identical concurrent load)
#: flushed to ``BENCH_service.json`` next to this file.  Each entry is
#: ``{scenario, seconds, baseline_seconds, speedup, detail}``.
_SERVICE_RECORDS: list = []


@pytest.fixture
def service_record():
    """Record one service-throughput pair for BENCH_service.json."""

    def record(
        scenario: str, seconds: float, baseline_seconds: float, **detail
    ):
        _SERVICE_RECORDS.append(
            {
                "scenario": scenario,
                "seconds": seconds,
                "baseline_seconds": baseline_seconds,
                "speedup": baseline_seconds / seconds,
                "peak_rss_mib": peak_rss_mib(),
                "detail": detail,
            }
        )

    return record


#: Sparse-backend scale records (million-voter CSR builds and streamed
#: estimations with phase-scoped RSS high-water marks) flushed to
#: ``BENCH_sparse.json`` next to this file.  Each entry is ``{case, n,
#: seconds, peak_rss_mib, rss_reset, detail}`` — ``peak_rss_mib`` is the
#: high-water mark *of that case* when ``rss_reset`` is true, else a
#: process-lifetime upper bound.
_SPARSE_RECORDS: list = []


@pytest.fixture
def sparse_record():
    """Record one sparse-scale measurement for BENCH_sparse.json."""

    def record(case: str, n: int, seconds: float, rss_reset: bool, **detail):
        _SPARSE_RECORDS.append(
            {
                "case": case,
                "n": n,
                "seconds": seconds,
                "peak_rss_mib": peak_rss_mib(),
                "rss_reset": rss_reset,
                "detail": detail,
            }
        )

    return record


#: Incremental-engine churn records (patched DeltaSession vs scratch
#: re-estimation over the same edit schedule) flushed to
#: ``BENCH_incremental.json`` next to this file.  Each entry is
#: ``{case, n, seconds, baseline_seconds, speedup, detail}`` —
#: ``seconds`` is the patch-and-estimate loop, ``baseline_seconds`` the
#: rebuild-and-estimate loop it is asserted against (bit-identical
#: results are a precondition of recording, not part of the timing).
_INCREMENTAL_RECORDS: list = []


@pytest.fixture
def incremental_record():
    """Record one churn-workload timing pair for BENCH_incremental.json."""

    def record(
        case: str, n: int, seconds: float, baseline_seconds: float, **detail
    ):
        _INCREMENTAL_RECORDS.append(
            {
                "case": case,
                "n": n,
                "seconds": seconds,
                "baseline_seconds": baseline_seconds,
                "speedup": baseline_seconds / seconds,
                "peak_rss_mib": peak_rss_mib(),
                "detail": detail,
            }
        )

    return record


#: Attack-search throughput records (delta-session candidate scoring vs
#: scratch re-estimation over the identical greedy search) flushed to
#: ``BENCH_attacks.json`` next to this file.  Each entry is
#: ``{scenario, n, seconds, baseline_seconds, speedup, moves_per_s,
#: detail}`` — ``seconds`` is the delta-inner search, ``baseline_seconds``
#: the scratch-inner search it is asserted against (bit-identical
#: results are a precondition of recording, not part of the timing);
#: ``moves_per_s`` is the delta inner's candidate-scoring throughput,
#: the headline throughput of the record.
_ATTACK_RECORDS: list = []


@pytest.fixture
def attack_record():
    """Record one attack-search timing pair for BENCH_attacks.json."""

    def record(
        scenario: str,
        n: int,
        seconds: float,
        baseline_seconds: float,
        *,
        moves_evaluated: int,
        **detail,
    ):
        _ATTACK_RECORDS.append(
            {
                "scenario": scenario,
                "n": n,
                "seconds": seconds,
                "baseline_seconds": baseline_seconds,
                "speedup": baseline_seconds / seconds,
                "moves_per_s": moves_evaluated / seconds,
                "peak_rss_mib": peak_rss_mib(),
                "detail": {"moves_evaluated": moves_evaluated, **detail},
            }
        )

    return record


#: Lint-engine throughput records (cold vs cache-warm self-lint of
#: ``src/``) flushed to ``BENCH_lint.json`` next to this file.  Each
#: entry is ``{case, files, seconds, baseline_seconds, speedup,
#: files_per_s, detail}`` — ``seconds`` is the measured configuration,
#: ``baseline_seconds`` the cold run it is asserted against;
#: ``files_per_s`` is the lint throughput headline.
_LINT_RECORDS: list = []


@pytest.fixture
def lint_record():
    """Record one lint-throughput measurement for BENCH_lint.json."""

    def record(
        case: str, files: int, seconds: float, baseline_seconds: float, **detail
    ):
        _LINT_RECORDS.append(
            {
                "case": case,
                "files": files,
                "seconds": seconds,
                "baseline_seconds": baseline_seconds,
                "speedup": baseline_seconds / seconds,
                "files_per_s": files / seconds,
                "peak_rss_mib": peak_rss_mib(),
                "detail": detail,
            }
        )

    return record


def pytest_sessionfinish(session, exitstatus):
    if _MICRO_RECORDS:
        out = Path(__file__).parent / "BENCH_micro.json"
        out.write_text(json.dumps(_MICRO_RECORDS, indent=2) + "\n")
    if _EXPERIMENT_RECORDS:
        out = Path(__file__).parent / "BENCH_experiments.json"
        out.write_text(json.dumps(_EXPERIMENT_RECORDS, indent=2) + "\n")
    if _SERVICE_RECORDS:
        out = Path(__file__).parent / "BENCH_service.json"
        out.write_text(json.dumps(_SERVICE_RECORDS, indent=2) + "\n")
    if _SPARSE_RECORDS:
        out = Path(__file__).parent / "BENCH_sparse.json"
        out.write_text(json.dumps(_SPARSE_RECORDS, indent=2) + "\n")
    if _INCREMENTAL_RECORDS:
        out = Path(__file__).parent / "BENCH_incremental.json"
        out.write_text(json.dumps(_INCREMENTAL_RECORDS, indent=2) + "\n")
    if _ATTACK_RECORDS:
        out = Path(__file__).parent / "BENCH_attacks.json"
        out.write_text(json.dumps(_ATTACK_RECORDS, indent=2) + "\n")
    if _LINT_RECORDS:
        out = Path(__file__).parent / "BENCH_lint.json"
        out.write_text(json.dumps(_LINT_RECORDS, indent=2) + "\n")


@pytest.fixture
def run_experiment(benchmark, capsys):
    """Run one registered experiment under pytest-benchmark and print it."""

    def run(experiment_id: str, rounds: int = 1):
        cfg = ExperimentConfig(seed=BENCH_SEED, scale=BENCH_SCALE)
        runner = get_experiment(experiment_id)
        result = benchmark.pedantic(
            runner, args=(cfg,), rounds=rounds, iterations=1, warmup_rounds=0
        )
        with capsys.disabled():
            print("\n" + result.to_table())
        return result

    return run
