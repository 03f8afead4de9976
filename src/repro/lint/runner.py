"""The reprolint runner: collect files, run rules, cache, report.

``run_lint`` is the library entry point (the CLI and the test suite
both go through it); it returns a :class:`LintRun` carrying the sorted
findings plus the bookkeeping the incremental-cache contract is pinned
on: which files were actually re-analysed and which were served from
cache.  ``lint_paths`` is the historical findings-only wrapper.

Rule modules are **auto-discovered**: every ``repro.lint.rules_*``
module on disk is imported for its registration side effect, so adding
a rule file can never be silently skipped by a forgotten import (the
test suite asserts each discovered module registers at least one rule).

The incremental flow (``cache_dir`` set):

1. hash every file (one read; bytes feed parsing too);
2. look up each file's cache entry — valid only if its own hash *and*
   every recorded transitive-dependency hash still match;
3. all hits → serve every finding with zero parsing or analysis;
4. otherwise parse everything, build the call graph, and take the
   **dirty set** = misses ∪ reverse-dependency closure of the misses
   over the *new* graph (the closure catches files whose behaviour
   changes because a new file appeared that they now resolve against);
5. per-file rules run on dirty files only; project rules run once over
   the whole project (their fixpoint needs every summary) but only
   dirty files' findings are refreshed — clean files keep their cached
   findings, which the dependency fingerprints guarantee are identical
   to what a cold run would produce;
6. dirty entries are rewritten with fresh fingerprints.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.findings import Finding
from repro.lint.framework import (
    PARSE_ERROR_ID,
    FileContext,
    ProjectContext,
    ProjectRule,
    RULES,
    iter_python_files,
    known_rule_ids,
    parse_file,
    pragma_findings,
)

LINT_SCHEMA_VERSION = 2
"""Version of the ``--format=json`` report layout."""


def _discover_rule_modules() -> Tuple[str, ...]:
    """Import every ``repro.lint.rules_*`` module for its registrations."""
    import repro.lint as _pkg

    names = sorted(
        info.name
        for info in pkgutil.iter_modules(_pkg.__path__)
        if info.name.startswith("rules_")
    )
    for name in names:
        importlib.import_module(f"repro.lint.{name}")
    return tuple(names)


RULE_MODULES = _discover_rule_modules()
"""Discovered rule module names, in import order (exposed for tests)."""


class UnknownRuleError(ValueError):
    """A ``--select``/``--ignore`` value names no registered rule."""


def _check_rule_ids(
    values: Optional[Iterable[str]], flag: str
) -> Optional[frozenset]:
    if values is None:
        return None
    ids = frozenset(values)
    unknown = sorted(ids - known_rule_ids())
    if unknown:
        raise UnknownRuleError(
            f"unknown rule id(s) in {flag}: {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known_rule_ids()))}"
        )
    return ids


@dataclass(frozen=True)
class LintRun:
    """One lint invocation's findings plus cache bookkeeping."""

    findings: List[Finding]
    files_checked: int
    analyzed: Tuple[str, ...] = ()  # files whose rules actually ran
    cached: Tuple[str, ...] = ()  # files served entirely from cache
    cache_hits: int = 0
    cache_misses: int = 0


def _parse_one(
    path: Path, data: bytes
) -> Tuple[Optional[FileContext], Optional[Finding]]:
    try:
        return parse_file(path, data.decode("utf-8")), None
    except (SyntaxError, UnicodeDecodeError) as exc:
        lineno = getattr(exc, "lineno", None) or 1
        offset = getattr(exc, "offset", None) or 0
        msg = getattr(exc, "msg", None) or str(exc)
        return None, Finding(
            path=str(path),
            line=lineno,
            col=offset + 1,
            rule=PARSE_ERROR_ID,
            message=f"file does not parse: {msg}",
        )


def _check_file(ctx: FileContext) -> List[Finding]:
    """Pragma validation plus every per-file rule, suppression applied."""
    out: List[Finding] = list(pragma_findings(ctx))
    for rule in RULES.values():
        if isinstance(rule, ProjectRule):
            continue
        for finding in rule.check(ctx):
            if not ctx.suppressed(finding.line, finding.rule):
                out.append(finding)
    return out


def _dirty_closure(
    misses: Set[str], dependencies: Dict[str, Set[str]]
) -> Set[str]:
    """Misses plus every file that (transitively) depends on one."""
    reverse: Dict[str, Set[str]] = {}
    for path, deps in dependencies.items():
        for dep in deps:
            reverse.setdefault(dep, set()).add(path)
    dirty = set(misses)
    queue = list(misses)
    while queue:
        current = queue.pop()
        for dependant in reverse.get(current, ()):
            if dependant not in dirty:
                dirty.add(dependant)
                queue.append(dependant)
    return dirty


def _lookup_picks(
    files: Sequence[Path], shas: Dict[str, str]
) -> Dict[str, Tuple[Tuple[str, ...], str]]:
    """``find_file:<suffix>`` → (suffix, ``"path:sha"`` of the file each
    project rule's lookup picks, or "").  A pick depends on the lint set,
    not on imports, so the files matching the suffix fingerprint it."""
    picks = {}
    for rule in RULES.values():
        for suffix in getattr(rule, "resolves", ()):
            pick = next((str(p) for p in files if p.parts[-len(suffix):] == suffix), None)
            value = "" if pick is None else f"{pick}:{shas[pick]}"
            picks["find_file:" + "/".join(suffix)] = (suffix, value)
    return picks


def run_lint(
    paths: Sequence[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    exclude: Sequence[Union[str, Path]] = (),
) -> LintRun:
    """Lint files/directories; return findings plus cache bookkeeping.

    ``select`` keeps only the named rule ids; ``ignore`` drops them
    (applied after ``select``).  Suppression comments are honoured
    before either filter.  Unknown ids raise :class:`UnknownRuleError`.
    ``cache_dir`` enables the incremental cache; ``exclude`` names
    files or directory subtrees to skip.
    """
    from repro.lint.cache import LintCache, hash_files, source_sha

    selected = _check_rule_ids(select, "--select")
    ignored = _check_rule_ids(ignore, "--ignore")

    files = iter_python_files(
        [Path(p) for p in paths], exclude=[Path(e) for e in exclude]
    )
    contents = hash_files(files)
    shas = {path: source_sha(data) for path, data in contents.items()}
    picks = _lookup_picks(files, shas)

    cache: Optional[LintCache] = None
    entries: Dict[str, Any] = {}
    if cache_dir is not None:
        cache = LintCache(Path(cache_dir), sorted(known_rule_ids()))
        current = {**shas, **{key: pick for key, (_, pick) in picks.items()}}
        entries = {
            str(path): cache.load(str(path), shas[str(path)], current)
            for path in files
        }

    misses = {str(path) for path in files if entries.get(str(path)) is None}

    def finish(
        findings: List[Finding], analyzed: Set[str], cached: Set[str]
    ) -> LintRun:
        findings = sorted(findings)
        if selected is not None:
            findings = [f for f in findings if f.rule in selected]
        if ignored is not None:
            findings = [f for f in findings if f.rule not in ignored]
        return LintRun(
            findings=findings,
            files_checked=len(files),
            analyzed=tuple(sorted(analyzed)),
            cached=tuple(sorted(cached)),
            cache_hits=cache.hits if cache else 0,
            cache_misses=cache.misses if cache else 0,
        )

    if cache is not None and not misses:
        # Every entry validated: serve findings with zero parsing.
        findings = [f for path in files for f in entries[str(path)].findings]
        return finish(findings, set(), {str(p) for p in files})

    # Parse everything (the call graph needs the whole project even
    # when only a few files are dirty).
    project = ProjectContext()
    parse_errors: Dict[str, Finding] = {}
    for path in files:
        ctx, error = _parse_one(path, contents[str(path)])
        if ctx is not None:
            project.files.append(ctx)
        elif error is not None:
            parse_errors[error.path] = error

    graph = project.callgraph()
    dirty = _dirty_closure(misses, graph.file_dependencies())

    # Per-file rules on dirty files only, in deterministic order.
    dirty_ctxs = [ctx for ctx in project.files if str(ctx.path) in dirty]
    by_file: Dict[str, List[Finding]] = {path: [] for path in dirty}
    for path, error in parse_errors.items():
        if path in dirty:
            by_file[path].append(error)
    for ctx in dirty_ctxs:
        by_file[str(ctx.path)].extend(_check_file(ctx))

    # Project rules see the whole project (summaries need every file);
    # only dirty files' findings are refreshed — clean files keep their
    # cached findings, which their dependency fingerprints pin.
    by_path = {str(ctx.path): ctx for ctx in project.files}
    uncacheable: List[Finding] = []
    for rule in RULES.values():
        if not isinstance(rule, ProjectRule):
            continue
        for finding in rule.check_project(project):
            ctx = by_path.get(finding.path)
            if ctx is not None and ctx.suppressed(finding.line, finding.rule):
                continue
            if finding.path in by_file:
                by_file[finding.path].append(finding)
            elif finding.path not in entries or entries[finding.path] is None:
                # Anchored outside the linted file set (should not
                # happen in practice); report but never cache.
                uncacheable.append(finding)

    if cache is not None:
        transitive = graph.transitive_dependencies()
        for path in sorted(dirty):
            deps = {
                dep: shas[dep]
                for dep in transitive.get(path, ())
                if dep in shas
            }
            deps.update(
                (key, pick)
                for key, (suffix, pick) in picks.items()
                if Path(path).parts[-len(suffix):] == suffix
            )
            cache.store(path, shas.get(path, ""), deps, sorted(by_file[path]))

    findings = [f for fs in by_file.values() for f in fs] + uncacheable
    clean: Set[str] = set()
    for path in map(str, files):
        if path in dirty:
            continue
        entry = entries.get(path)
        if entry is not None:
            findings.extend(entry.findings)
            clean.add(path)
    return finish(findings, dirty, clean)


def lint_paths(
    paths: Sequence[Union[str, Path]],
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> List[Finding]:
    """Historical entry point: findings only, no cache."""
    return run_lint(paths, select=select, ignore=ignore).findings


def render_text(findings: Sequence[Finding], files_checked: int) -> str:
    """Human report: one line per finding plus a summary line."""
    lines = [f.format() for f in findings]
    noun = "finding" if len(findings) == 1 else "findings"
    lines.append(
        f"reprolint: {len(findings)} {noun} in {files_checked} file(s)"
    )
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], files_checked: int) -> str:
    """Machine report for CI artifacts: findings plus per-rule counts."""
    counts: Dict[str, int] = {}
    for finding in findings:
        counts[finding.rule] = counts.get(finding.rule, 0) + 1
    payload: Dict[str, Any] = {
        "schema": LINT_SCHEMA_VERSION,
        "files_checked": files_checked,
        "findings": [f.to_dict() for f in findings],
        "counts": dict(sorted(counts.items())),
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def rule_catalogue() -> List[Dict[str, str]]:
    """Id/name/description of every registered rule (docs and --help)."""
    return [
        {"id": rule.id, "name": rule.name, "description": rule.description}
        for rule in RULES.values()
    ]
