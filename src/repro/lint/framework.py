"""reprolint's rule framework: file contexts, registry, pragmas.

A *rule* is a class with an ``id`` (``R101``), a ``name``
(``unseeded-rng``) and a ``check`` generator producing
:class:`~repro.lint.findings.Finding` objects.  Per-file rules
(:class:`Rule`) receive one parsed :class:`FileContext`; project rules
(:class:`ProjectRule`) receive the whole :class:`ProjectContext` so they
can reason across files (class hierarchies, protocol registries).

Suppression is line-scoped: a ``# reprolint: disable=R101`` comment on a
finding's line (or the line directly above a flagged ``def``/``class``)
silences that rule there.  ``# reprolint: reference=<name>`` is the
kernel-parity rule's way of naming a non-standard oracle; and a bare
``# reprolint: sparse-safe`` marks a whole module as belonging to the
sparse O(E)-memory backend, opting it into the dense-allocation rule
(K402).  All pragma forms are parsed here so every rule sees the same
syntax.  A pragma naming an unknown rule id is itself a finding
(``X001``) — silent typos in suppressions are how contracts rot.
Pragmas are read from comment tokens only, so pragma-shaped text inside
a string literal neither suppresses nor trips ``X001``.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

from repro.lint.findings import ERROR, Finding

PRAGMA_RE = re.compile(
    r"#\s*reprolint:\s*(?P<kind>disable|reference|sparse-safe)"
    r"(?:\s*=\s*(?P<value>[A-Za-z0-9_.,\- ]+))?"
)

MARKER_KINDS = frozenset({"sparse-safe"})
"""Pragma kinds that are bare markers and take no ``=value`` payload."""

PARSE_ERROR_ID = "X000"
BAD_PRAGMA_ID = "X001"
_BUILTIN_IDS = {
    PARSE_ERROR_ID: "parse-error",
    BAD_PRAGMA_ID: "bad-pragma",
}


@dataclass(frozen=True)
class Pragma:
    """One parsed ``# reprolint:`` comment."""

    line: int
    kind: str  # "disable" | "reference" | "sparse-safe"
    values: Tuple[str, ...]  # empty for bare marker kinds


class FileContext:
    """One parsed source file plus the lookup structures rules share.

    Parsing happens once; every rule reuses the same AST, parent links,
    import-alias map and pragma index.
    """

    def __init__(self, path: Path, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.aliases = _import_aliases(tree)
        self.pragmas: List[Pragma] = _parse_pragmas(source)
        self._disable_by_line: Dict[int, Set[str]] = {}
        self._reference_by_line: Dict[int, Tuple[str, ...]] = {}
        self.sparse_safe = False
        for pragma in self.pragmas:
            if pragma.kind == "disable":
                self._disable_by_line.setdefault(pragma.line, set()).update(
                    pragma.values
                )
            elif pragma.kind == "reference":
                self._reference_by_line[pragma.line] = pragma.values
            elif pragma.kind == "sparse-safe":
                self.sparse_safe = True

    # -- pragma queries ----------------------------------------------------

    def suppressed(self, line: int, rule_id: str) -> bool:
        """Whether ``rule_id`` is disabled on ``line`` (or the line above).

        The line-above form lets a suppression sit as its own comment
        over a ``def``/``class`` without fighting line length.
        """
        for candidate in (line, line - 1):
            ids = self._disable_by_line.get(candidate)
            if ids and rule_id in ids:
                return True
        return False

    def reference_pragma(self, line: int) -> Optional[Tuple[str, ...]]:
        """``reference=`` names attached to ``line`` or the line above."""
        for candidate in (line, line - 1):
            names = self._reference_by_line.get(candidate)
            if names is not None:
                return names
        return None

    # -- AST helpers -------------------------------------------------------

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        """The nearest enclosing ``def``/``async def``, if any."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return ancestor
        return None

    def dotted_name(self, node: ast.AST) -> Optional[str]:
        """Resolve ``np.random.default_rng`` through the file's imports.

        Returns the canonical dotted path (``numpy.random.default_rng``)
        when the expression is a plain name/attribute chain rooted at an
        imported module or name, else ``None`` — an unresolvable chain
        (e.g. rooted at a local variable) can never be confidently
        flagged, so rules treat ``None`` as "not mine".
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id)
        if root is None:
            return None
        parts.append(root)
        return ".".join(reversed(parts))

    def function_names(self) -> Set[str]:
        """Every ``def`` name in the file, at any nesting depth."""
        return {
            n.name
            for n in ast.walk(self.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

    def matches_module(self, *suffix: str) -> bool:
        """Whether the file path ends with the given path components."""
        parts = self.path.parts
        return parts[-len(suffix):] == suffix


@dataclass
class ProjectContext:
    """Everything project-scoped rules see: all files, one pass."""

    files: List[FileContext] = field(default_factory=list)
    _callgraph: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    def find_file(self, *suffix: str) -> Optional[FileContext]:
        for ctx in self.files:
            if ctx.matches_module(*suffix):
                return ctx
        return None

    def callgraph(self):
        """The project call graph, built once and shared by every flow
        rule (F601/D203/K404/S501) and the incremental cache."""
        if self._callgraph is None:
            from repro.lint.callgraph import CallGraph  # avoid cycle

            self._callgraph = CallGraph(self)
        return self._callgraph


class Rule:
    """A per-file rule.  Subclasses set ``id``/``name`` and ``check``."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: str,
        severity: str = ERROR,
    ) -> Finding:
        return Finding(
            path=str(ctx.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.id,
            message=message,
            severity=severity,
        )


class ProjectRule(Rule):
    """A rule needing the whole project (cross-file hierarchies)."""

    resolves: Tuple[Tuple[str, ...], ...] = ()
    """Path suffixes the rule looks up with :meth:`ProjectContext.find_file`.

    The lookup picks the first linted file ending in the suffix, so the
    findings of every file that matches depend on the lint set; the
    incremental cache fingerprints the pick."""

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        raise NotImplementedError

    def check(self, ctx: FileContext) -> Iterator[Finding]:  # pragma: no cover
        return iter(())


RULES: Dict[str, Rule] = {}
"""Rule id → registered rule instance, in registration order."""


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} must set id and name")
    if rule.id in RULES or rule.id in _BUILTIN_IDS:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return cls


def known_rule_ids() -> Set[str]:
    """Selectable rule ids: registered rules plus the built-in pseudo-ids."""
    return set(RULES) | set(_BUILTIN_IDS)


def parse_file(path: Path, source: Optional[str] = None) -> FileContext:
    """Parse one file into a context; raises ``SyntaxError`` on bad source."""
    text = path.read_text() if source is None else source
    tree = ast.parse(text, filename=str(path))
    return FileContext(path, text, tree)


def pragma_findings(ctx: FileContext) -> Iterator[Finding]:
    """X001 findings for pragmas naming unknown rule ids.

    ``reference=`` pragma values are function names, validated by the
    kernel rule itself; only ``disable=`` values are rule ids.
    """
    known = known_rule_ids()
    for pragma in ctx.pragmas:
        if pragma.kind != "disable":
            continue
        for value in pragma.values:
            if value not in known:
                yield Finding(
                    path=str(ctx.path),
                    line=pragma.line,
                    col=1,
                    rule=BAD_PRAGMA_ID,
                    message=(
                        f"suppression names unknown rule id {value!r}; "
                        f"known ids: {', '.join(sorted(known))}"
                    ),
                )


def _parse_pragmas(source: str) -> List[Pragma]:
    pragmas: List[Pragma] = []
    if PRAGMA_RE.search(source) is None:
        return pragmas  # most files have none; tokenize is the slow part
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = PRAGMA_RE.search(token.string)
        if match is None:
            continue
        kind = match.group("kind")
        raw = match.group("value") or ""
        values = tuple(v.strip() for v in raw.split(",") if v.strip())
        if not values and kind not in MARKER_KINDS:
            # ``disable=`` / ``reference=`` with nothing named would
            # silently waive a contract; ignore the malformed pragma so
            # the rule it meant to touch still fires.
            continue
        pragmas.append(Pragma(line=token.start[0], kind=kind, values=values))
    return pragmas


def _import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name → canonical dotted path, from the file's imports.

    ``import numpy as np`` maps ``np → numpy``; ``from numpy import
    random as rnd`` maps ``rnd → numpy.random``; star imports are
    ignored (nothing can be resolved through them confidently).
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                local = item.asname or item.name.split(".")[0]
                canonical = item.name if item.asname else item.name.split(".")[0]
                aliases[local] = canonical
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports stay project-local
            for item in node.names:
                if item.name == "*":
                    continue
                local = item.asname or item.name
                aliases[local] = f"{node.module}.{item.name}"
    return aliases


def iter_python_files(
    paths: Iterable[Path], exclude: Iterable[Path] = ()
) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated .py list.

    ``exclude`` names files or directory subtrees to drop (compared by
    resolved path, so relative spellings match) — how CI lints
    ``tests/`` without the intentionally-broken fixture corpus.
    """
    excluded = {Path(e).resolve() for e in exclude}

    def is_excluded(candidate: Path) -> bool:
        if not excluded:
            return False
        resolved = candidate.resolve()
        return resolved in excluded or any(
            parent in excluded for parent in resolved.parents
        )

    seen: Set[Path] = set()
    out: List[Path] = []
    for path in paths:
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate in seen or is_excluded(candidate):
                continue
            seen.add(candidate)
            out.append(candidate)
    return out
