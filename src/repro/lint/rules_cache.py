"""Cache-token and protocol-sync rules (C3xx) — project-scoped.

The persistent estimate cache keys on
:meth:`~repro.mechanisms.base.DelegationMechanism.cache_token`.  The
default token hashes the mechanism's pickle bytes, which *works* but is
brittle for parameterised mechanisms: renaming a private attribute, or
pickling differences across Python versions, silently invalidates (or
worse, aliases) every stored estimate.  The contract since PR 3 is that
any mechanism constructed from behavioural parameters declares an
explicit behavioural token.  C301 enforces it by walking the project's
class hierarchy.

C302 keeps ``repro/service/protocol.py`` honest: every wire name in
``MECHANISM_BUILDERS`` must resolve, through its builder function, to a
mechanism class that actually exists in the hierarchy — and every
``_build_*`` helper must be registered, so adding a builder without
exposing it (or exposing a name whose builder returns a non-mechanism)
fails the lint gate instead of surfacing as a 500 in production.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.lint.findings import Finding
from repro.lint.framework import (
    FileContext,
    ProjectContext,
    ProjectRule,
    register_rule,
)

MECHANISM_ROOT = "DelegationMechanism"
"""Base class anchoring the mechanism hierarchy."""

_FRAMEWORK_BASES = {"DelegationMechanism", "LocalDelegationMechanism"}
"""Classes whose ``cache_token`` is the generic default, not an override."""


@dataclass
class ClassInfo:
    """What C301/C302 need to know about one class definition."""

    name: str
    bases: List[str]
    ctx: FileContext
    node: ast.ClassDef
    init_params: List[str] = field(default_factory=list)
    defines_cache_token: bool = False


def collect_classes(project: ProjectContext) -> Dict[str, ClassInfo]:
    """All class definitions across the project, keyed by bare name.

    Base names are recorded as bare terminal identifiers
    (``mechanisms.base.DelegationMechanism`` → ``DelegationMechanism``);
    the repo's mechanism class names are unique, and a false merge
    would only make the rule *more* conservative.
    """
    classes: Dict[str, ClassInfo] = {}
    for ctx in project.files:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            bases = []
            for base in node.bases:
                if isinstance(base, ast.Name):
                    bases.append(base.id)
                elif isinstance(base, ast.Attribute):
                    bases.append(base.attr)
            info = ClassInfo(name=node.name, bases=bases, ctx=ctx, node=node)
            for item in node.body:
                if not isinstance(
                    item, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                if item.name == "cache_token":
                    info.defines_cache_token = True
                if item.name == "__init__":
                    info.init_params = _behavioural_params(item)
            classes[node.name] = info
    return classes


def _behavioural_params(init: ast.FunctionDef) -> List[str]:
    args = init.args
    names = [a.arg for a in args.posonlyargs + args.args]
    if names and names[0] in ("self", "cls"):
        names = names[1:]
    names += [a.arg for a in args.kwonlyargs]
    if args.vararg is not None:
        names.append("*" + args.vararg.arg)
    if args.kwarg is not None:
        names.append("**" + args.kwarg.arg)
    return names


def _mro_chain(
    name: str, classes: Dict[str, ClassInfo], seen: Optional[Set[str]] = None
) -> Iterator[ClassInfo]:
    """The class and its project-local ancestors, depth-first."""
    if seen is None:
        seen = set()
    if name in seen or name not in classes:
        return
    seen.add(name)
    info = classes[name]
    yield info
    for base in info.bases:
        yield from _mro_chain(base, classes, seen)


def is_mechanism(name: str, classes: Dict[str, ClassInfo]) -> bool:
    """Whether ``name`` reaches :data:`MECHANISM_ROOT` through its bases."""
    if name == MECHANISM_ROOT:
        return True
    info = classes.get(name)
    if info is None:
        return False
    return any(
        base == MECHANISM_ROOT or is_mechanism(base, classes)
        for base in info.bases
        if base != name
    )


@register_rule
class MissingCacheTokenRule(ProjectRule):
    """C301: parameterised mechanism without a ``cache_token`` override."""

    id = "C301"
    name = "missing-cache-token"
    description = (
        "Every DelegationMechanism subclass whose __init__ takes "
        "behavioural parameters must define (or inherit from a "
        "non-framework ancestor) an explicit cache_token override; the "
        "default pickle-bytes token is not stable under refactors, so "
        "parameterised mechanisms relying on it silently fracture or "
        "alias persistent-cache entries."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        classes = collect_classes(project)
        for info in classes.values():
            if info.name in _FRAMEWORK_BASES:
                continue
            if not is_mechanism(info.name, classes):
                continue
            if not info.init_params:
                continue
            inherited = any(
                ancestor.defines_cache_token
                for ancestor in _mro_chain(info.name, classes)
                if ancestor.name not in _FRAMEWORK_BASES
            )
            if inherited:
                continue
            yield self.finding(
                info.ctx,
                info.node,
                f"mechanism {info.name!r} takes behavioural __init__ "
                f"params ({', '.join(info.init_params)}) but defines no "
                "cache_token override; add a behavioural token so "
                "persistent-cache digests survive refactors",
            )


@register_rule
class ProtocolMechanismSyncRule(ProjectRule):
    """C302: ``service/protocol.py`` registry ↔ mechanism classes."""

    id = "C302"
    name = "protocol-mechanism-sync"
    description = (
        "Every entry of MECHANISM_BUILDERS in repro/service/protocol.py "
        "must map a string wire name to a module-level builder whose "
        "return sites construct a registered DelegationMechanism "
        "subclass, and every _build_* helper must be registered.  A "
        "spec name that cannot resolve to a constructible mechanism is "
        "a protocol/library drift that only explodes at request time."
    )

    resolves = (("repro", "service", "protocol.py"),)

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        ctx = project.find_file(*self.resolves[0])
        if ctx is None:
            return
        classes = collect_classes(project)
        registry = self._find_registry(ctx)
        if registry is None:
            yield self.finding(
                ctx,
                ctx.tree,
                "no literal MECHANISM_BUILDERS dict found in "
                "service/protocol.py; the protocol↔mechanism sync "
                "contract cannot be checked",
            )
            return
        builders = {
            n.name: n
            for n in ctx.tree.body
            if isinstance(n, ast.FunctionDef)
        }
        registered: Set[str] = set()
        for key, value in zip(registry.keys, registry.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                yield self.finding(
                    ctx, key or registry,
                    "MECHANISM_BUILDERS keys must be string literals",
                )
                continue
            if not isinstance(value, ast.Name):
                yield self.finding(
                    ctx, value,
                    f"builder for {key.value!r} must be a module-level "
                    "function name",
                )
                continue
            registered.add(value.id)
            builder = builders.get(value.id)
            if builder is None:
                yield self.finding(
                    ctx, value,
                    f"builder {value.id!r} for {key.value!r} is not a "
                    "module-level function in protocol.py",
                )
                continue
            yield from self._check_builder(ctx, key.value, builder, classes)
        for name, node in builders.items():
            if (
                name.startswith("_build_")
                and name not in registered
                and self._constructs_mechanism(node, classes)
            ):
                yield self.finding(
                    ctx, node,
                    f"builder {name!r} is defined but not registered in "
                    "MECHANISM_BUILDERS; the wire name it implements is "
                    "unreachable",
                )

    @staticmethod
    def _constructs_mechanism(
        builder: ast.FunctionDef, classes: Dict[str, ClassInfo]
    ) -> bool:
        """Whether any return site constructs a known mechanism class.

        Distinguishes mechanism builders from same-named helpers that
        build other payload objects (``_build_instance``).
        """
        for node in ast.walk(builder):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            if not isinstance(node.value, ast.Call):
                continue
            func = node.value.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name is not None and is_mechanism(name, classes):
                return True
        return False

    @staticmethod
    def _find_registry(ctx: FileContext) -> Optional[ast.Dict]:
        for node in ctx.tree.body:
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
                value = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
                value = node.value
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "MECHANISM_BUILDERS"
                    and isinstance(value, ast.Dict)
                ):
                    return value
        return None

    def _check_builder(
        self,
        ctx: FileContext,
        wire_name: str,
        builder: ast.FunctionDef,
        classes: Dict[str, ClassInfo],
    ) -> Iterator[Finding]:
        """Each ``return <expr>`` site must construct a mechanism class.

        Returns that *call another builder* (``build_mechanism`` for
        nested specs) are accepted; the nested spec is validated at its
        own registry entry.
        """
        constructed: List[str] = []
        for node in ast.walk(builder):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            call = node.value
            if not isinstance(call, ast.Call):
                yield self.finding(
                    ctx, node,
                    f"builder {builder.name!r} for {wire_name!r} returns a "
                    "non-call expression; builders must construct the "
                    "mechanism directly",
                )
                continue
            name = None
            if isinstance(call.func, ast.Name):
                name = call.func.id
            elif isinstance(call.func, ast.Attribute):
                name = call.func.attr
            if name is None:
                continue
            if name in classes and is_mechanism(name, classes):
                constructed.append(name)
            elif name[:1].isupper():
                yield self.finding(
                    ctx, node,
                    f"builder {builder.name!r} for {wire_name!r} "
                    f"constructs {name!r}, which is not a known "
                    "DelegationMechanism subclass in this project",
                )
        if not constructed:
            yield self.finding(
                ctx, builder,
                f"builder {builder.name!r} for {wire_name!r} never "
                "returns a DelegationMechanism construction",
            )
