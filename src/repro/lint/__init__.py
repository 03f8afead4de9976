"""reprolint — the repo's AST-based determinism & contract checker.

Stdlib-``ast`` static analysis encoding the contracts the rest of the
stack depends on (see ``docs/static-analysis.md`` for the full rule
catalogue and suppression policy):

=====  ========================  ==============================================
id     name                      contract
=====  ========================  ==============================================
R101   unseeded-rng              no ``default_rng()``/``SeedSequence()``
                                 without a seed argument
R102   legacy-rng                no global-state ``np.random.*`` /
                                 stdlib ``random.*`` draws
R103   seed-arithmetic           no ad-hoc ``seed + i`` outside
                                 ``repro/_util/rng.py``
C301   missing-cache-token       parameterised mechanisms declare behavioural
                                 ``cache_token`` overrides
C302   protocol-mechanism-sync   ``MECHANISM_BUILDERS`` wire names resolve to
                                 registered mechanism classes
K401   kernel-missing-reference  every ``*_batch`` kernel names its
                                 ``_reference`` oracle
K402   dense-per-voter-alloc     sparse-safe modules allocate no dense
                                 per-voter grids
K403   delta-missing-reference   every ``*_delta``/``*_incremental`` kernel
                                 names its from-scratch oracle
A501   attack-determinism        ``AttackScenario`` subclasses declare
                                 behavioural ``cache_token`` and never mint
                                 their own entropy
F601   rng-taint                 (flow) rng-derived values never reach digest/
                                 cache-key paths or module-level mutable state
                                 (``repro.cache.seed_token`` boundary exempt)
D203   digest-purity-flow        (flow) values feeding a hash, a key-path or
                                 shard-routing call, or returned from a
                                 function named for one, are transitively
                                 deterministic — no clocks, ``id()``,
                                 ``hash()``, pids, entropy, unsorted
                                 ``json.dumps`` or set iteration upstream
                                 (``service/metrics.py`` exempt)
K404   int32-overflow            (flow) CSR ``indptr``/``indices`` reductions
                                 and products promote to int64 first
S501   async-blocking            (flow) no blocking call reachable from an
                                 ``async def`` without executor offload
X000   parse-error               (built-in) file does not parse
X001   bad-pragma                (built-in) suppression names an unknown rule
=====  ========================  ==============================================

The F601/D203/K404/S501 families are *flow* rules: they run over a
project-wide call graph (``repro.lint.callgraph``) with interprocedural
taint summaries (``repro.lint.dataflow``), so the flagged line can be in
a different file than the cause.  Suppress a single occurrence with
``# reprolint: disable=R101`` on the finding's line (or the line
directly above a flagged ``def``/``class``); declare a non-standard
kernel oracle with ``# reprolint: reference=<fn>``.  Run as ``repro
lint [paths] [--format=json|sarif] [--select/--ignore IDS] [--no-cache]
[--cache-dir DIR] [--exclude PATH]``; the CI ``lint`` job runs it over
``src/``, ``benchmarks/`` and ``tests/`` at zero findings and gates the
test jobs.
"""

from repro.lint.findings import ERROR, WARNING, Finding
from repro.lint.framework import (
    FileContext,
    ProjectContext,
    ProjectRule,
    Rule,
    RULES,
    known_rule_ids,
    parse_file,
    register_rule,
)
from repro.lint.runner import (
    LINT_SCHEMA_VERSION,
    RULE_MODULES,
    LintRun,
    UnknownRuleError,
    lint_paths,
    render_json,
    render_text,
    rule_catalogue,
    run_lint,
)
from repro.lint.sarif import render_sarif

__all__ = [
    "ERROR",
    "WARNING",
    "Finding",
    "FileContext",
    "LintRun",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "RULES",
    "RULE_MODULES",
    "LINT_SCHEMA_VERSION",
    "UnknownRuleError",
    "known_rule_ids",
    "lint_paths",
    "parse_file",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_catalogue",
    "run_lint",
]
