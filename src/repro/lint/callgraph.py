"""Project-wide call graph for flow-sensitive lint rules.

The syntactic rules see one call site at a time; the flow rules
(F601/D203/K404/S501) need to know *which function* a call lands in so
per-function summaries can propagate along real edges.  This module
builds that graph once per :class:`~repro.lint.framework.ProjectContext`
(cached on the context, shared by every flow rule):

* **module naming** — each file gets a dotted module name derived from
  the package layout on disk (``src/repro/lint/runner.py`` →
  ``repro.lint.runner``), so import aliases resolve across files;
* **function index** — every ``def``/``async def`` at any nesting depth,
  keyed by qualified name (``repro.service.sharding.ShardedServer.start``);
* **call resolution** — plain names through the file's import-alias map,
  dotted chains through module names, ``self.method()`` through the
  class-hierarchy walk C301 already uses (:func:`collect_classes` /
  :func:`_mro_chain`), plus one level of local type inference
  (``x = ClassName(...)`` and ``self.attr = ClassName(...)`` bind the
  receiver type for ``x.method()`` / ``self.attr.method()``);
* **file dependencies** — the union of import, call and class-hierarchy
  edges between files, which is exactly the invalidation relation the
  incremental lint cache needs: a finding in file A can only change when
  A or something A depends on changes.

Resolution is deliberately conservative: a call that cannot be resolved
confidently has no edge, so flow rules only reason along edges they can
prove — same philosophy as ``FileContext.dotted_name``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.framework import FileContext, ProjectContext
from repro.lint.rules_cache import ClassInfo, _mro_chain, collect_classes

_MODULE_WALK_CAP = 32
"""Safety cap on the package-directory walk (symlink cycles)."""


def module_name(path: Path) -> str:
    """The dotted module name a file would import as.

    Walks parent directories while they contain ``__init__.py`` — the
    standard package layout — so ``src/repro/lint/runner.py`` maps to
    ``repro.lint.runner`` regardless of where the source root sits.  A
    bare script (fixture files, tmp snippets) maps to its stem.
    """
    parts: List[str] = [] if path.stem == "__init__" else [path.stem]
    parent = path.parent
    for _ in range(_MODULE_WALK_CAP):
        if not (parent / "__init__.py").exists():
            break
        parts.append(parent.name)
        parent = parent.parent
    return ".".join(reversed(parts)) or path.stem


@dataclass(frozen=True)
class FunctionInfo:
    """One ``def``/``async def`` in the project."""

    qualname: str  # module-qualified: repro.cache.EstimateCache.get
    module: str
    name: str  # bare function name
    cls: Optional[str]  # bare enclosing class name, if a method
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    ctx: FileContext
    is_async: bool
    params: Tuple[str, ...]  # positional-or-keyword parameter names

    @property
    def path(self) -> str:
        return str(self.ctx.path)


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    args = node.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    return tuple(names)


def _terminal(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


class CallGraph:
    """Functions, resolved call edges and file dependencies of a project."""

    def __init__(self, project: ProjectContext) -> None:
        self.project = project
        self.classes: Dict[str, ClassInfo] = collect_classes(project)
        self.modules: Dict[str, str] = {}  # path str -> module name
        self.functions: Dict[str, FunctionInfo] = {}
        self._module_functions: Dict[Tuple[str, str], str] = {}
        self._methods: Dict[Tuple[str, str], str] = {}
        self._attr_types: Dict[Tuple[str, str], str] = {}
        self._index()
        # call site -> callee qualname, per function; built lazily per
        # function because local type bindings are function-scoped.
        self._call_targets: Dict[str, Dict[ast.Call, str]] = {}
        self._callers: Optional[Dict[str, Tuple[str, ...]]] = None

    @classmethod
    def build(cls, project: ProjectContext) -> "CallGraph":
        return cls(project)

    # -- indexing ----------------------------------------------------------

    def _index(self) -> None:
        for ctx in self.project.files:
            mod = module_name(ctx.path)
            self.modules[str(ctx.path)] = mod
            self._index_file(ctx, mod)
        self._index_attr_types()

    def _index_file(self, ctx: FileContext, mod: str) -> None:
        def visit(node: ast.AST, qual: List[str], cls: Optional[str]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qn = ".".join([mod] + qual + [child.name])
                    info = FunctionInfo(
                        qualname=qn,
                        module=mod,
                        name=child.name,
                        cls=cls,
                        node=child,
                        ctx=ctx,
                        is_async=isinstance(child, ast.AsyncFunctionDef),
                        params=_param_names(child),
                    )
                    # First definition wins (re-defs are rare and the
                    # first is the one callers above it see).
                    self.functions.setdefault(qn, info)
                    if cls is None and not qual:
                        self._module_functions.setdefault((mod, child.name), qn)
                    if cls is not None and len(qual) == 1:
                        self._methods.setdefault((cls, child.name), qn)
                    visit(child, qual + [child.name], None)
                elif isinstance(child, ast.ClassDef):
                    visit(child, qual + [child.name], child.name)

        visit(ctx.tree, [], None)

    def _index_attr_types(self) -> None:
        """``self.attr = ClassName(...)`` anywhere in a class binds the
        attribute's type for receiver resolution."""
        for info in self.classes.values():
            for node in ast.walk(info.node):
                if not isinstance(node, ast.Assign) or not isinstance(
                    node.value, ast.Call
                ):
                    continue
                cls_name = self._class_of_call(info.ctx, node.value)
                if cls_name is None:
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        self._attr_types.setdefault(
                            (info.name, target.attr), cls_name
                        )

    def _class_of_call(self, ctx: FileContext, call: ast.Call) -> Optional[str]:
        """The project class a constructor call builds, if provable."""
        func = call.func
        if isinstance(func, ast.Name) and func.id in self.classes:
            # A local name that is *not* an import alias refers to a
            # class defined or imported under its own name.
            return func.id
        name = _terminal(func)
        if name in self.classes:
            return name
        return None

    # -- resolution --------------------------------------------------------

    def resolve_method(self, cls_name: str, method: str) -> Optional[str]:
        """Method lookup over the project-local hierarchy (C301's walk)."""
        for ancestor in _mro_chain(cls_name, self.classes):
            qn = self._methods.get((ancestor.name, method))
            if qn is not None:
                return qn
        return None

    def _resolve_dotted(self, dotted: str) -> Optional[str]:
        """``repro.cache.estimate_digest`` → its qualname, if ours."""
        mod, _, name = dotted.rpartition(".")
        if not mod:
            return None
        qn = self._module_functions.get((mod, name))
        if qn is not None:
            return qn
        # ``module.Class`` constructor: resolve to __init__ so effects
        # inside construction stay on the graph.
        if name in self.classes:
            return self.resolve_method(name, "__init__")
        return None

    def _local_bindings(self, fi: FunctionInfo) -> Dict[str, str]:
        """``x = ClassName(...)`` assignments inside one function."""
        bindings: Dict[str, str] = {}
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Assign) or not isinstance(
                node.value, ast.Call
            ):
                continue
            cls_name = self._class_of_call(fi.ctx, node.value)
            if cls_name is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings[target.id] = cls_name
        return bindings

    def call_targets(self, fi: FunctionInfo) -> Dict[ast.Call, str]:
        """Resolved callee qualname for each call site inside ``fi``."""
        cached = self._call_targets.get(fi.qualname)
        if cached is not None:
            return cached
        bindings = self._local_bindings(fi)
        targets: Dict[ast.Call, str] = {}
        for node in ast.walk(fi.node):
            if not isinstance(node, ast.Call):
                continue
            qn = self._resolve_call(fi, node, bindings)
            if qn is not None:
                targets[node] = qn
        self._call_targets[fi.qualname] = targets
        return targets

    def _resolve_call(
        self, fi: FunctionInfo, call: ast.Call, bindings: Dict[str, str]
    ) -> Optional[str]:
        func = call.func
        ctx = fi.ctx
        if isinstance(func, ast.Name):
            name = func.id
            if name not in ctx.aliases:
                if name in self.classes:
                    return self.resolve_method(name, "__init__")
                qn = self._module_functions.get((fi.module, name))
                if qn is not None:
                    return qn
            dotted = ctx.dotted_name(func)
            if dotted is not None:
                return self._resolve_dotted(dotted)
            return None
        if not isinstance(func, ast.Attribute):
            return None
        dotted = ctx.dotted_name(func)
        if dotted is not None:
            return self._resolve_dotted(dotted)
        # Receiver-typed resolution: self.m(), self.attr.m(), local.m().
        base = func.value
        if isinstance(base, ast.Name):
            if base.id == "self" and fi.cls is not None:
                return self.resolve_method(fi.cls, func.attr)
            bound = bindings.get(base.id)
            if bound is not None:
                return self.resolve_method(bound, func.attr)
        elif (
            isinstance(base, ast.Attribute)
            and isinstance(base.value, ast.Name)
            and base.value.id == "self"
            and fi.cls is not None
        ):
            bound = self._attr_types.get((fi.cls, base.attr))
            if bound is not None:
                return self.resolve_method(bound, func.attr)
        return None

    # -- derived views -----------------------------------------------------

    def functions_in_order(self) -> List[FunctionInfo]:
        """Deterministic analysis order: by path, then line number."""
        return sorted(
            self.functions.values(),
            key=lambda f: (f.path, f.node.lineno, f.qualname),
        )

    def callers(self) -> Dict[str, Tuple[str, ...]]:
        """Reverse edges: callee qualname → sorted caller qualnames."""
        if self._callers is None:
            rev: Dict[str, Set[str]] = {}
            for fi in self.functions_in_order():
                for callee in self.call_targets(fi).values():
                    rev.setdefault(callee, set()).add(fi.qualname)
            self._callers = {
                qn: tuple(sorted(callers)) for qn, callers in rev.items()
            }
        return self._callers

    def file_dependencies(self) -> Dict[str, Set[str]]:
        """Direct dependency edges between files: ``A → files A reads``.

        The union of three relations, each of which can carry a finding
        across a file boundary:

        * imports resolving to a project module (name resolution);
        * call edges (summaries flow callee → caller);
        * class-hierarchy edges (C301/A501 walk base classes).
        """
        by_module: Dict[str, str] = {
            mod: path for path, mod in self.modules.items()
        }
        deps: Dict[str, Set[str]] = {
            str(ctx.path): set() for ctx in self.project.files
        }
        for ctx in self.project.files:
            path = str(ctx.path)
            for dotted in ctx.aliases.values():
                target = by_module.get(dotted)
                if target is None:
                    # ``from repro.cache import estimate_digest`` maps the
                    # alias to module.member; strip the member.
                    target = by_module.get(dotted.rpartition(".")[0])
                if target is not None and target != path:
                    deps[path].add(target)
        for fi in self.functions_in_order():
            for callee_qn in self.call_targets(fi).values():
                callee = self.functions.get(callee_qn)
                if callee is not None and callee.path != fi.path:
                    deps[fi.path].add(callee.path)
        for info in self.classes.values():
            path = str(info.ctx.path)
            if path not in deps:
                continue
            for ancestor in _mro_chain(info.name, self.classes):
                apath = str(ancestor.ctx.path)
                if apath != path:
                    deps[path].add(apath)
        return deps

    def transitive_dependencies(self) -> Dict[str, Set[str]]:
        """Transitive closure of :meth:`file_dependencies` per file."""
        direct = self.file_dependencies()
        closure: Dict[str, Set[str]] = {}

        def close(path: str, seen: Set[str]) -> Set[str]:
            done = closure.get(path)
            if done is not None:
                return done
            if path in seen:  # import/call cycle: break, union later
                return direct.get(path, set())
            seen.add(path)
            out: Set[str] = set(direct.get(path, ()))
            for dep in list(out):
                out |= close(dep, seen)
            out.discard(path)
            closure[path] = out
            return out

        for path in sorted(direct):
            close(path, set())
        return closure
