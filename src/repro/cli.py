"""Command-line interface: list and run the registered experiments.

Usage::

    python -m repro list
    python -m repro run T2 --scale default --seed 0
    python -m repro run all --scale smoke
    python -m repro info
    python -m repro lint src --format=json
    python -m repro serve --port 8577 --jobs 4 --cache
    python -m repro serve --shards 4 --cache

The CLI is a thin veneer over :mod:`repro.experiments` (and, for
``serve``, over :mod:`repro.service`); it exists so the benchmark tables
can be regenerated — and estimates served — without writing Python.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro import __version__
from repro.experiments import ExperimentConfig, get_experiment, list_experiments
from repro.incremental.session import ENGINES


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'When is Liquid Democracy Possible?' "
            "(PODC 2025): run the paper's experiments."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments")

    info = sub.add_parser("info", help="print library and experiment summary")
    info.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="estimate cache directory to report on (default: .repro-cache)",
    )

    run = sub.add_parser("run", help="run one experiment (or 'all')")
    run.add_argument(
        "experiment",
        help="experiment id (e.g. F1, T2, X3) or 'all'",
    )
    run.add_argument(
        "--scale",
        choices=("smoke", "default", "full"),
        default="default",
        help="parameter grid size (default: default)",
    )
    run.add_argument("--seed", type=int, default=0, help="top-level seed")
    run.add_argument(
        "--precision", type=int, default=4, help="table float precision"
    )
    run.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="grid points evaluated concurrently (default: 1; results are "
        "identical for any value)",
    )
    run.add_argument(
        "--target-se",
        type=float,
        default=None,
        metavar="SE",
        help="adaptive precision: grow each estimate's round count in "
        "geometric batches until its standard error reaches SE (the "
        "configured rounds become the cap); default: fixed rounds",
    )
    run.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="persist estimates in an on-disk cache so re-runs skip "
        "already-computed grid points (default: --no-cache)",
    )
    run.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="estimate cache directory (default: .repro-cache)",
    )

    report = sub.add_parser(
        "report", help="run experiments and write a markdown report"
    )
    report.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (default: all)",
    )
    report.add_argument("--out", required=True, help="output markdown path")
    report.add_argument(
        "--scale",
        choices=("smoke", "default", "full"),
        default="default",
    )
    report.add_argument("--seed", type=int, default=0)
    report.add_argument(
        "--title", default="Liquid democracy reproduction report"
    )
    report.add_argument("--jobs", type=int, default=1)
    report.add_argument("--target-se", type=float, default=None, metavar="SE")
    report.add_argument(
        "--cache", action=argparse.BooleanOptionalAction, default=False
    )
    report.add_argument("--cache-dir", default=".repro-cache")

    lint = sub.add_parser(
        "lint",
        help="run reprolint, the repo's determinism & contract checker "
        "(see docs/static-analysis.md)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text; sarif is SARIF 2.1.0 for "
        "GitHub code scanning)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to run exclusively (e.g. R101,K401); "
        "an unknown id is a hard error",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        metavar="IDS",
        help="comma-separated rule ids to drop (applied after --select); "
        "an unknown id is a hard error",
    )
    lint.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="incremental lint cache: warm runs re-analyse only changed "
        "files and their call-graph dependents (default: --cache)",
    )
    lint.add_argument(
        "--cache-dir",
        default=".reprolint-cache",
        help="lint cache directory (default: .reprolint-cache)",
    )
    lint.add_argument(
        "--exclude",
        action="append",
        default=None,
        metavar="PATH",
        help="file or directory subtree to skip (repeatable; how CI "
        "lints tests/ without tests/lint_fixtures/)",
    )

    attack = sub.add_parser(
        "attack",
        help="red-team an electorate: search for do-no-harm violations "
        "and emit machine-checkable certificates (see docs/attacks.md)",
    )
    attack.add_argument(
        "--scenario",
        choices=("misreport", "collusion_ring", "sybil_flood", "lemma_probe"),
        default="misreport",
        help="attack scenario to search with (default: misreport)",
    )
    attack.add_argument(
        "--n",
        type=int,
        default=25,
        help="voters in the seeded benign star electorate (default: 25)",
    )
    attack.add_argument(
        "--budget", type=int, default=4, help="attack budget (default: 4)"
    )
    attack.add_argument(
        "--rounds",
        type=int,
        default=512,
        help="estimation rounds per candidate move (default: 512)",
    )
    attack.add_argument("--seed", type=int, default=0, help="top-level seed")
    attack.add_argument(
        "--engine",
        choices=ENGINES,
        default="mc",
        help="delta-session estimation engine (default: mc)",
    )
    attack.add_argument(
        "--min-harm",
        type=float,
        default=0.05,
        metavar="H",
        help="violation threshold: committed harm must exceed H "
        "(default: 0.05)",
    )
    attack.add_argument(
        "--margin",
        type=float,
        default=2.0,
        metavar="SIGMA",
        help="statistical cushion in standard errors (default: 2.0)",
    )
    attack.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the violation certificate JSON here when one is found",
    )
    attack.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help="verify an existing certificate file instead of searching "
        "(exit 0 iff it replays bitwise)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the JSON-over-HTTP estimation server (see docs/serving.md)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8577,
        help="bind port; 0 picks a free one (default: 8577)",
    )
    serve.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="process-pool workers inside one estimate "
        "(default: 1; results are identical for any value)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=4,
        help="request-serving worker threads (default: 4)",
    )
    serve.add_argument(
        "--max-batch",
        type=int,
        default=32,
        help="micro-batch window flushes at this many requests (default: 32)",
    )
    serve.add_argument(
        "--max-delay",
        type=float,
        default=0.002,
        metavar="SECONDS",
        help="micro-batch window flushes after this delay (default: 0.002)",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=512,
        help="backpressure high-water mark: outstanding requests past this "
        "are rejected with HTTP 429 (default: 512)",
    )
    serve.add_argument(
        "--coalesce",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="share one computation among identical in-flight requests "
        "(default: --coalesce)",
    )
    serve.add_argument(
        "--request-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="per-request deadline before a typed 504 (default: 60)",
    )
    serve.add_argument(
        "--target-se",
        type=float,
        default=None,
        metavar="SE",
        help="server-wide adaptive-precision default applied to requests "
        "that do not set their own target_se",
    )
    serve.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="persist served estimates in the on-disk cache "
        "(default: --no-cache)",
    )
    serve.add_argument(
        "--cache-dir",
        default=".repro-cache",
        help="estimate cache directory (default: .repro-cache)",
    )
    serve.add_argument(
        "--cache-max-entries",
        type=int,
        default=None,
        metavar="N",
        help="bound the on-disk cache; oldest entries are pruned past N "
        "(default: unbounded)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=0,
        metavar="N",
        help="run a consistent-hash front-end over N worker processes "
        "(0, the default, serves from this process; workers share the "
        "cache directory and every other serve flag)",
    )
    serve.add_argument(
        "--vnodes",
        type=int,
        default=64,
        metavar="V",
        help="virtual nodes per shard on the hash ring (default: 64)",
    )
    return parser


def _cmd_list(out) -> int:
    for eid, title in list_experiments():
        print(f"{eid:>5}  {title}", file=out)
    return 0


def _cmd_info(out, cache_dir: str = ".repro-cache") -> int:
    from repro.cache import EstimateCache, aggregate_op_stats

    experiments = list_experiments()
    print(f"repro {__version__}", file=out)
    print(
        "Reproduction of 'When is Liquid Democracy Possible? "
        "On the Manipulation of Variance' (PODC 2025)",
        file=out,
    )
    print(f"{len(experiments)} registered experiments:", file=out)
    for eid, title in experiments:
        print(f"  {eid:>5}  {title}", file=out)
    stats = EstimateCache(cache_dir).stats()
    print(
        f"estimate cache at {cache_dir}: "
        f"{stats['entries']} entries, {stats['bytes']} bytes",
        file=out,
    )
    # Per-operation hit/miss counters, aggregated across every process
    # that has published sidecar stats into this cache directory.
    by_op = aggregate_op_stats(cache_dir)
    if by_op:
        print("  lookups by operation:", file=out)
        for op, counts in sorted(by_op.items()):
            total = counts["hits"] + counts["misses"]
            rate = counts["hits"] / total if total else 0.0
            print(
                f"    {op:>9}  {counts['hits']} hits, "
                f"{counts['misses']} misses ({rate:.0%} hit rate)",
                file=out,
            )
    return 0


def _config_from(args) -> ExperimentConfig:
    """Build the shared :class:`ExperimentConfig` from parsed CLI args."""
    return ExperimentConfig(
        seed=args.seed,
        scale=args.scale,
        n_jobs=args.jobs,
        target_se=args.target_se,
        cache_dir=args.cache_dir if args.cache else None,
    )


def _cmd_run(
    experiment: str,
    config: ExperimentConfig,
    precision: int,
    out,
) -> int:
    if experiment.lower() == "all":
        ids = [eid for eid, _ in list_experiments()]
    else:
        ids = [experiment]
    failed: List[str] = []
    for eid in ids:
        try:
            runner = get_experiment(eid)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        start = time.time()
        try:
            result = runner(config)
        except Exception as exc:
            # A failing experiment must name itself and fail the process
            # (exit 1), not dump a bare traceback; remaining experiments
            # in an 'all' run still execute.
            print(
                f"error: experiment {eid} failed: "
                f"{type(exc).__name__}: {exc}",
                file=sys.stderr,
            )
            failed.append(eid)
            continue
        print(result.to_table(precision=precision), file=out)
        print(f"(wall time {time.time() - start:.1f}s)", file=out)
        print(file=out)
    if failed:
        print(f"error: failed experiment(s): {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


def _cmd_report(
    experiments: List[str],
    out_path: str,
    config: ExperimentConfig,
    title: str,
    out,
) -> int:
    from repro.experiments.report import markdown_report

    ids = experiments or [eid for eid, _ in list_experiments()]
    results = []
    for eid in ids:
        try:
            runner = get_experiment(eid)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results.append(runner(config))
    with open(out_path, "w") as handle:
        handle.write(markdown_report(results, title=title))
    print(f"wrote {len(results)} experiment sections to {out_path}", file=out)
    return 0


def _split_rule_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip() for part in raw.split(",") if part.strip()]


def _cmd_lint(args, out) -> int:
    from pathlib import Path

    from repro.lint import (
        UnknownRuleError,
        render_json,
        render_text,
        rule_catalogue,
        run_lint,
    )
    from repro.lint.sarif import render_sarif

    paths = args.paths or ["src"]
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"error: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        run = run_lint(
            paths,
            select=_split_rule_ids(args.select),
            ignore=_split_rule_ids(args.ignore),
            cache_dir=args.cache_dir if args.cache else None,
            exclude=args.exclude or (),
        )
    except UnknownRuleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings = run.findings
    if args.format == "sarif":
        print(
            render_sarif(findings, rule_catalogue(), __version__), file=out
        )
    else:
        render = render_json if args.format == "json" else render_text
        print(render(findings, run.files_checked), file=out)
    return 1 if findings else 0


def _cmd_attack(args, out) -> int:
    import json

    from repro.attacks import (
        AttackSearch,
        benign_star_instance,
        scenario_spec,
        verify_certificate,
    )

    if args.check is not None:
        try:
            with open(args.check) as handle:
                certificate = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read certificate: {exc}", file=sys.stderr)
            return 2
        report = verify_certificate(certificate)
        print(report.describe(), file=out)
        return 0 if report.ok else 1

    try:
        instance = benign_star_instance(num_voters=args.n)
        search = AttackSearch(
            instance,
            {"name": "random_approved"},
            scenario_spec(args.scenario),
            budget=args.budget,
            rounds=args.rounds,
            seed=args.seed,
            engine=args.engine,
            min_harm=args.min_harm,
            margin=args.margin,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.time()
    result = search.run()
    elapsed = time.time() - start
    for record in result.history:
        print(
            f"step {record['step']}: {record['label']} (cost {record['cost']}) "
            f"-> mechanism p={record['probability']:.4f} "
            f"direct={record['direct']:.4f} harm={record['harm']:.4f}",
            file=out,
        )
    print(
        f"{result.moves_evaluated} candidate moves in {elapsed:.1f}s, "
        f"budget spent {result.budget_spent}/{result.budget}",
        file=out,
    )
    if not result.found:
        print(
            f"no violation: best harm {result.best_harm:.4f} did not clear "
            f"min_harm {args.min_harm:g} at {args.margin:g} sigma",
            file=out,
        )
        return 1
    report = verify_certificate(result.certificate)
    from repro.attacks import ViolationCertificate

    print(ViolationCertificate.from_dict(result.certificate).describe(), file=out)
    print(
        "certificate verifies (replayed bitwise from scratch)"
        if report.ok
        else "WARNING: certificate failed verification",
        file=out,
    )
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump(result.certificate, handle, indent=2, sort_keys=True)
        print(f"wrote certificate to {args.out}", file=out)
    return 0 if report.ok else 1


def _cmd_serve(args, out) -> int:
    import asyncio

    from repro.service.server import ServerConfig, run_server

    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            n_jobs=args.jobs,
            workers=args.workers,
            max_batch=args.max_batch,
            max_delay=args.max_delay,
            max_queue=args.max_queue,
            coalesce=args.coalesce,
            request_timeout=args.request_timeout,
            cache_dir=args.cache_dir if args.cache else None,
            cache_max_entries=args.cache_max_entries,
            default_target_se=args.target_se,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.shards < 0:
        print(f"error: --shards must be >= 0, got {args.shards}", file=sys.stderr)
        return 2

    def announce(server) -> None:
        topology = (
            f"shards={args.shards}" if args.shards else f"workers={config.workers}"
        )
        print(
            f"repro service listening on http://{server.host}:{server.port} "
            f"({topology}, n_jobs={config.n_jobs}, "
            f"cache={'on' if config.cache_dir else 'off'})",
            file=out,
            flush=True,
        )

    try:
        if args.shards:
            from repro.service.sharding import run_sharded_server

            asyncio.run(
                run_sharded_server(
                    config,
                    shards=args.shards,
                    vnodes=args.vnodes,
                    ready=announce,
                )
            )
        else:
            asyncio.run(run_server(config, ready=announce))
    except KeyboardInterrupt:
        print("shutting down", file=out)
    except (OSError, RuntimeError, ValueError) as exc:
        # Port already bound, bad interface, workers failing to boot, ...
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns a process exit code."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "info":
        return _cmd_info(out, args.cache_dir)
    if args.command == "lint":
        return _cmd_lint(args, out)
    if args.command == "attack":
        return _cmd_attack(args, out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command in ("run", "report"):
        try:
            config = _config_from(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.command == "run":
            return _cmd_run(args.experiment, config, args.precision, out)
        return _cmd_report(args.experiments, args.out, config, args.title, out)
    raise AssertionError(f"unhandled command {args.command!r}")
