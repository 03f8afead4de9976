"""The benchmark's one entry point; run it from the root of a checkout.

One workload, one run (the last line of output is the JSON result)::

    python3 perfbench/run.py --workload ba_million --seed 1 --seconds 12 --trace 0

Every workload, each in a fresh interpreter, printed as a table::

    python3 perfbench/run.py --all --seed 1 --seconds 12 [--trace 1]

Medians and quartiles of the records this checkout has written::

    python3 perfbench/run.py --summarise

``--trace 1`` runs the workload untraced, then again with every layer's
public functions wrapped (see ``layers.py``), and reports per-layer
metrics, the tracing overhead and how much of the traced pass's time
the layers' self times account for.  Metric names and units come from
``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import statistics
import subprocess
import sys
import threading
import time

WORKLOADS = ("ba_million", "paper_suite", "served_mix", "red_team")
ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
RECORDS = os.path.join(WORK, "records.jsonl")


def _checkout_ok() -> bool:
    return os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")) and (
        os.path.isfile(os.path.join(ROOT, "experiment_results_default.txt"))
    )


def _units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def _metrics(values: dict, kind: str) -> dict:
    """``values`` as JSON metrics; they must be exactly BENCHMARK.json's ``kind``."""
    units = _units(kind)
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json {kind}: "
            f"missing {sorted(set(units) - set(values))}, "
            f"unlisted {sorted(set(values) - set(units))}"
        )
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def _print_table(workload: str, rows) -> None:
    print(f"[{workload}]")
    for name, value, unit, count in rows:
        print(f"  {name:<28} {value:>14.6g} {unit:<14} n={count}")


def _pass(module, seed: int, seconds: float, ops=None, tracer=None):
    """Set up once and measure; returns (state, measurement, wall seconds)."""
    start = time.perf_counter()
    state = module.setup(seed, tracer=tracer)
    result = module.measure(state, seed, seconds, ops=ops, tracer=tracer)
    return state, result, time.perf_counter() - start


def _peak_rss(module, state) -> float:
    from harness import vm_hwm_mib

    own = getattr(module, "peak_rss_mib", None)
    return own(state) if own else vm_hwm_mib()


def run_untraced(module, workload: str, seed: int, seconds: float):
    from harness import Reference

    setups = []
    for repeat in range(module.SETUP_REPEATS):
        start = time.perf_counter()
        state = module.setup(seed)
        setups.append(time.perf_counter() - start)
        if repeat < module.SETUP_REPEATS - 1:
            module.teardown(state)
            del state
            gc.collect()  # the instance sits in reference cycles; free it before the next
    try:
        result = module.measure(state, seed, seconds)
        rss = _peak_rss(module, state)
        module.gates(state, seed, result)
    finally:
        module.teardown(state)
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss,
        "rate_per_s": result.rate(normalised=True),
        "p50_ms": result.p50_ms(normalised=True),
    }
    rows = [
        ("setup_s", metrics["setup_s"], "s", len(setups)),
        ("peak_rss_mib", rss, "MiB", 1),
        ("error_rate", len(result.failures) / result.attempted, "ratio", result.attempted),
    ]
    rows += [(name, v, unit, n) for name, (v, unit, n) in result.named.items()]
    if any(k != 1.0 for k in result.op_scale):  # rescaled by the speed reference
        rows += [
            ("machine speed", statistics.median(result.op_scale), "x nominal", result.ops),
            ("rate_per_s", metrics["rate_per_s"], f"1/s @{Reference.NOMINAL_S}s ref", result.ops),
            ("p50_ms", metrics["p50_ms"], f"ms @{Reference.NOMINAL_S}s ref", result.ops),
        ]
    _print_table(workload, rows)
    raw = {"rate_per_s": result.rate(normalised=False), "p50_ms": result.p50_ms(normalised=False)}
    return result, _metrics(metrics, "end_to_end"), raw


def run_traced(module, workload: str, seed: int, seconds: float):
    import layers
    from harness import Tracer, self_times

    layers.preload()  # lazy imports would otherwise land in the untraced pass only
    state, plain, plain_wall = _pass(module, seed, seconds)
    module.teardown(state)
    del state
    gc.collect()
    tracer = Tracer()
    main = threading.get_ident()
    uninstall = layers.install(tracer, check_weights=True)
    try:
        state, result, traced_wall = _pass(module, seed, seconds, ops=plain.ops, tracer=tracer)
    finally:
        uninstall()
    try:
        module.gates(state, seed, result)
    finally:
        module.teardown(state)
    extra = module.service_metrics(state) if hasattr(module, "service_metrics") else {}
    metrics = dict.fromkeys(_units("per_layer"), 0.0)
    metrics.update(layers.layer_metrics(tracer))
    metrics.update(extra)
    # Layer self time on the main thread's timeline.  Only served_mix has
    # other threads, its senders, and they hold no layer spans: the
    # requests' work is done in the fleet's processes.
    own = self_times([s for s in tracer.spans if s.thread == main])
    accounted = sum(t for name, t in own.items() if layers.is_layer(name))
    # The reference computation is the benchmark's, not the workload's.
    plain_wall -= plain.reference_s
    traced_wall -= result.reference_s
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    # Against the traced pass's own wall time: the machine's speed drifts
    # by more than a tenth between the two passes, which would swamp a
    # comparison with the untraced one.
    metrics["trace.coverage"] = accounted / traced_wall
    bad = int(tracer.counters.get("gate.weight_sum", 0))
    result.attempted += plain.attempted + int(tracer.counters.get("gate.weight_rows", 0))
    result.failures += plain.failures
    if bad:
        result.failures.append(f"{bad} resolved rounds whose weights do not sum to n")
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"trace-{workload}-{seed}.json"), "w") as handle:
        json.dump({
            "spans": [[s.sid, s.name, s.start, s.end, s.parent, s.thread] for s in tracer.spans],
            "counters": tracer.counters,
        }, handle)
    out = _metrics(metrics, "per_layer")
    rows = [(name, m["value"], m["unit"], len(tracer.spans)) for name, m in out.items()]
    rows.insert(0, ("untraced_wall_s", plain_wall, "s", plain.ops))
    _print_table(f"{workload} traced", rows)
    return result, out, {}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    module = importlib.import_module(workload)
    runner = run_traced if trace else run_untraced
    result, metrics, raw = runner(module, workload, seed, seconds)
    for failure in result.failures[:20]:
        print(f"FAILED: {failure}")
    from harness import provenance

    record = {
        "workload": workload,
        "trace": int(trace),
        "provenance": provenance(ROOT, seed),
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
        # The measured values behind the rescaled ones (see README.md).
        "raw": raw,
        "named": {k: list(v) for k, v in result.named.items()},
    }
    os.makedirs(WORK, exist_ok=True)
    with open(RECORDS, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
    }))
    return 0 if not result.failures else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        print("\n".join(proc.stdout.rstrip("\n").split("\n")[:-1]))
        code = code or proc.returncode
    return code


def summarise() -> int:
    from harness import percentile, provenance

    if not os.path.exists(RECORDS):
        print(f"no records at {RECORDS}", file=sys.stderr)
        return 2
    with open(RECORDS) as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    here = provenance(ROOT, 0)
    foreign = [
        r for r in records
        if (r["provenance"]["commit"], r["provenance"]["source_digest"])
        != (here["commit"], here["source_digest"])
    ]
    if foreign:
        print(
            f"refusing to summarise: {len(foreign)} of {len(records)} records were "
            "not measured on this checkout's code; move them aside first",
            file=sys.stderr,
        )
        return 2
    groups = {}
    for r in records:
        for name, m in r["metrics"].items():
            groups.setdefault((r["workload"], r["trace"], name, m["unit"]), []).append(m["value"])
        for name, value in r.get("raw", {}).items():
            unit = r["metrics"][name]["unit"]
            groups.setdefault((r["workload"], r["trace"], f"{name} (raw)", unit), []).append(value)
    for (workload, trace, name, unit), values in sorted(groups.items()):
        q1, med, q3 = (percentile(values, q) for q in (25, 50, 75))
        print(f"{workload:<12} trace={trace} {name:<28} median {med:.6g} "
              f"[{q1:.6g}, {q3:.6g}] {unit} n={len(values)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="every workload, fresh interpreters")
    parser.add_argument("--summarise", action="store_true", help="summarise this checkout's records")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _checkout_ok():
        print(f"error: {ROOT} is not a checkout of the repository (no src/repro)",
              file=sys.stderr)
        return 2
    # One process, at most one BLAS thread; set before numpy is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(1, os.path.join(ROOT, "src"))
    if args.summarise:
        return summarise()
    if args.all:
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("one of --workload, --all or --summarise is required")
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
