"""Interprocedural forward taint dataflow over the project call graph.

The engine behind the flow rule families (F601 rng-taint, D203
digest-purity-flow, K404 int32-overflow).  Each rule supplies a
:class:`TaintDomain` — what mints taint, what sanitises it, what counts
as a sink — and the engine does the rest:

* **intraprocedural transfer** — a forward pass over each function body
  tracking, per local name, the set of taint tags its value may carry.
  Branches join by union (both arms are assumed reachable); loop bodies
  run twice so loop-carried taint reaches a fixed point.  The analysis
  is flow-sensitive in the only way that matters for these contracts: a
  re-assignment kills old tags, a sanitiser call strips them.
* **per-function summaries** — each function is summarised as (a) the
  tags its return value carries, including ``param:i`` placeholders for
  caller-supplied taint that flows through, and (b) the parameters that
  reach a sink somewhere inside it (transitively).  A placeholder
  remembers the tags a partial sanitiser stripped on the way
  (``param:0~unordered-set`` for ``sorted(v)``), so a helper that
  launders its argument launders the caller's taint too.  Summaries make the
  analysis interprocedural: a helper that wraps ``default_rng`` taints
  every caller, and a helper that feeds its argument into ``hashlib``
  is a sink at every call site.
* **bounded fixpoint** — summaries are computed by a worklist iteration
  seeded in deterministic (path, line) order; when a summary grows, the
  function's callers re-run.  Tag sets only grow and the tag universe
  is finite (a handful of concrete tags plus one placeholder per
  parameter), so the iteration terminates; a hard pass bound guards
  against pathological inputs.
* **reporting pass** — findings are only emitted in a final pass after
  summaries converge, so no fixpoint iteration double-reports.

Module-level statements are analysed too (as a pseudo-function with no
parameters): module constants can carry taint into every function of
their file, and a module-scope sink is just as much a finding.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.lint.callgraph import CallGraph, FunctionInfo, _terminal
from repro.lint.framework import FileContext

Tags = FrozenSet[str]
EMPTY: Tags = frozenset()

KILL_ALL = "*"
"""Sanitiser return value meaning: the result carries no taint at all."""

_PARAM_PREFIX = "param:"
_KILL_SEP = "~"
_MAX_PASSES = 16
"""Hard bound on full fixpoint sweeps (the lattice converges far sooner)."""


def param_tag(index: int, killed: Tags = EMPTY) -> str:
    """Placeholder for parameter ``index``'s taint, less ``killed``."""
    tag = f"{_PARAM_PREFIX}{index}"
    if killed:
        tag += _KILL_SEP + ",".join(sorted(killed))
    return tag


def _parse_param(tag: str) -> Tuple[int, Tags]:
    index, _, killed = tag[len(_PARAM_PREFIX):].partition(_KILL_SEP)
    return int(index), frozenset(killed.split(",")) if killed else EMPTY


def is_param_tag(tag: str) -> bool:
    return tag.startswith(_PARAM_PREFIX)


def concrete(tags: Tags) -> Tags:
    return frozenset(t for t in tags if not is_param_tag(t))


def without(tags: Tags, killed: Tags) -> Tags:
    """``tags`` with ``killed`` stripped, from placeholders too.

    A concrete tag in ``killed`` goes; a placeholder records the kill,
    so whatever the caller passes for it is stripped the same way.
    """
    out: Set[str] = set()
    for tag in tags:
        if is_param_tag(tag):
            index, before = _parse_param(tag)
            out.add(param_tag(index, before | killed))
        elif tag not in killed:
            out.add(tag)
    return frozenset(out)


@dataclass(frozen=True)
class Summary:
    """What callers need to know about one function."""

    return_tags: Tags = EMPTY  # concrete tags + param:i placeholders
    param_sinks: FrozenSet[Tuple[str, str]] = frozenset()  # (placeholder, sink label)


@dataclass(frozen=True)
class FlowFinding:
    """One taint reaching one sink, pre-Rule wrapping."""

    ctx: FileContext
    node: ast.AST
    message: str


class TaintDomain:
    """Rule-specific taint semantics; override the hooks you need.

    All hooks receive ``dotted`` (the canonical dotted callee path per
    ``FileContext.dotted_name``, possibly ``None``) and ``terminal``
    (the bare final attribute/name of the callee expression).
    """

    #: human name used in messages ("rng-derived", "nondeterministic", ...)
    taint_noun = "tainted"

    def source_call(
        self, dotted: Optional[str], terminal: Optional[str], call: ast.Call,
        ctx: FileContext,
    ) -> Tags:
        """Tags minted by calling this (non-project) callable."""
        return EMPTY

    def source_expr(self, node: ast.AST, ctx: FileContext) -> Tags:
        """Tags minted by a non-call expression (attribute, literal)."""
        return EMPTY

    def sanitizer(
        self, dotted: Optional[str], terminal: Optional[str], call: ast.Call,
        ctx: FileContext,
    ) -> Optional[Tags]:
        """Tags this call kills (``frozenset({KILL_ALL})`` kills all)."""
        return None

    def call_sink(
        self, dotted: Optional[str], terminal: Optional[str], call: ast.Call,
        fi: Optional[FunctionInfo],
    ) -> Optional[str]:
        """Sink label when any argument of this call must be taint-free."""
        return None

    def return_sink(self, fi: FunctionInfo) -> Optional[str]:
        """Sink label when this function's return value must be taint-free."""
        return None

    def binop_sink(
        self, node: ast.BinOp, left: Tags, right: Tags
    ) -> Optional[str]:
        """Sink label for a binary operation over tainted operands."""
        return None

    def reduction_sink(
        self, dotted: Optional[str], terminal: Optional[str], call: ast.Call,
        base: Tags, args: List[Tags], keywords: Dict[Optional[str], Tags],
    ) -> Optional[str]:
        """Sink label for a reduction-style call over tainted values."""
        return None

    #: whether mutating module-level state with tainted values is a sink
    module_state_sink = False

    def skip_file(self, ctx: FileContext) -> bool:
        """Exempt whole files from this domain's reporting."""
        return False


class _FunctionState:
    """Mutable per-analysis state for one function (or module body)."""

    def __init__(self) -> None:
        self.return_tags: Set[str] = set()
        self.param_sinks: Set[Tuple[str, str]] = set()


class TaintAnalysis:
    """Run one domain's analysis over a call graph; collect findings."""

    def __init__(self, domain: TaintDomain, graph: CallGraph) -> None:
        self.domain = domain
        self.graph = graph
        self.summaries: Dict[str, Summary] = {
            qn: Summary() for qn in graph.functions
        }
        self._module_envs: Dict[str, Dict[str, Tags]] = {}
        self._module_level_names: Dict[str, Set[str]] = {}

    # -- public ------------------------------------------------------------

    def run(self) -> List[FlowFinding]:
        order = self.graph.functions_in_order()
        self._compute_module_envs(collect=None)
        # Fixpoint over summaries.  The worklist is an insertion-ordered
        # set seeded in deterministic order; tag sets only grow, so the
        # iteration is monotone and terminates.
        pending: Dict[str, None] = {fi.qualname: None for fi in order}
        callers = self.graph.callers()
        sweeps = 0
        budget = max(len(order), 1) * _MAX_PASSES
        while pending and sweeps < budget:
            qn = next(iter(pending))
            del pending[qn]
            sweeps += 1
            fi = self.graph.functions[qn]
            new = self._analyze_function(fi, collect=None)
            if new != self.summaries[qn]:
                self.summaries[qn] = self._join_summary(self.summaries[qn], new)
                for caller in callers.get(qn, ()):
                    pending[caller] = None
        # Reporting pass: summaries are stable, emit findings once.
        # Loop bodies run twice during transfer (fixed point for
        # loop-carried taint), so a sink inside a loop reports twice —
        # dedupe on (file, location, message), order-preserving.
        findings: List[FlowFinding] = []
        self._compute_module_envs(collect=findings)
        for fi in order:
            if self.domain.skip_file(fi.ctx):
                continue
            self._analyze_function(fi, collect=findings)
        seen: Set[Tuple[str, int, int, str]] = set()
        unique: List[FlowFinding] = []
        for flow in findings:
            key = (
                str(flow.ctx.path),
                getattr(flow.node, "lineno", 1),
                getattr(flow.node, "col_offset", 0),
                flow.message,
            )
            if key not in seen:
                seen.add(key)
                unique.append(flow)
        return unique

    @staticmethod
    def _join_summary(old: Summary, new: Summary) -> Summary:
        return Summary(
            return_tags=old.return_tags | new.return_tags,
            param_sinks=old.param_sinks | new.param_sinks,
        )

    # -- module scope ------------------------------------------------------

    def _compute_module_envs(
        self, collect: Optional[List[FlowFinding]]
    ) -> None:
        for ctx in self.graph.project.files:
            path = str(ctx.path)
            names = {
                t.id
                for stmt in ctx.tree.body
                for t in self._assign_targets(stmt)
            }
            self._module_level_names[path] = names
            file_collect = (
                None
                if collect is None or self.domain.skip_file(ctx)
                else collect
            )
            env: Dict[str, Tags] = {}
            walker = _Walker(self, None, ctx, env, _FunctionState(), file_collect)
            walker.exec_block(
                [
                    s
                    for s in ctx.tree.body
                    if not isinstance(
                        s, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                    )
                ],
                env,
            )
            self._module_envs[path] = env

    @staticmethod
    def _assign_targets(stmt: ast.stmt) -> Iterable[ast.Name]:
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                yield target
            elif isinstance(target, (ast.Tuple, ast.List)):
                for elt in target.elts:
                    if isinstance(elt, ast.Name):
                        yield elt

    def module_env(self, ctx: FileContext) -> Dict[str, Tags]:
        return self._module_envs.get(str(ctx.path), {})

    def module_level_names(self, ctx: FileContext) -> Set[str]:
        return self._module_level_names.get(str(ctx.path), set())

    # -- per-function ------------------------------------------------------

    def _analyze_function(
        self, fi: FunctionInfo, collect: Optional[List[FlowFinding]]
    ) -> Summary:
        env: Dict[str, Tags] = {
            name: frozenset({param_tag(i)})
            for i, name in enumerate(fi.params)
        }
        state = _FunctionState()
        walker = _Walker(self, fi, fi.ctx, env, state, collect)
        walker.exec_block(fi.node.body, env)
        return Summary(
            return_tags=frozenset(state.return_tags),
            param_sinks=frozenset(state.param_sinks),
        )


class _Walker:
    """One traversal of one function (or module) body."""

    def __init__(
        self,
        analysis: TaintAnalysis,
        fi: Optional[FunctionInfo],
        ctx: FileContext,
        env: Dict[str, Tags],
        state: _FunctionState,
        collect: Optional[List[FlowFinding]],
    ) -> None:
        self.analysis = analysis
        self.domain = analysis.domain
        self.graph = analysis.graph
        self.fi = fi
        self.ctx = ctx
        self.state = state
        self.collect = collect
        self.globals_declared: Set[str] = set()
        self.targets = (
            self.graph.call_targets(fi) if fi is not None else {}
        )

    # -- sink plumbing -----------------------------------------------------

    def _hit_sink(
        self, node: ast.AST, label: str, tags: Tags, via: Optional[str] = None
    ) -> None:
        conc = concrete(tags)
        if conc and self.collect is not None:
            noun = self.domain.taint_noun
            suffix = f" (through {via}())" if via else ""
            self.collect.append(
                FlowFinding(
                    ctx=self.ctx,
                    node=node,
                    message=f"{noun} value ({', '.join(sorted(conc))}) "
                    f"reaches {label}{suffix}",
                )
            )
        for tag in tags:
            if is_param_tag(tag):
                self.state.param_sinks.add((tag, label))

    # -- statements --------------------------------------------------------

    def exec_block(self, stmts: Iterable[ast.stmt], env: Dict[str, Tags]) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, env)

    def exec_stmt(self, stmt: ast.stmt, env: Dict[str, Tags]) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # analysed separately
        if isinstance(stmt, ast.Global):
            self.globals_declared.update(stmt.names)
            return
        if isinstance(stmt, ast.Return):
            tags = self.eval(stmt.value, env) if stmt.value else EMPTY
            self.state.return_tags.update(tags)
            label = (
                self.domain.return_sink(self.fi) if self.fi is not None else None
            )
            if label is not None:
                self._hit_sink(stmt, label, tags)
            return
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            tags = self.eval(value, env) if value is not None else EMPTY
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                self.assign(target, tags, env)
            return
        if isinstance(stmt, ast.AugAssign):
            tags = self.eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                tags = tags | env.get(stmt.target.id, EMPTY)
            self.assign(stmt.target, tags, env)
            return
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
            return
        if isinstance(stmt, ast.If):
            then_env = dict(env)
            self.eval(stmt.test, env)
            self.exec_block(stmt.body, then_env)
            else_env = dict(env)
            self.exec_block(stmt.orelse, else_env)
            self._merge_into(env, then_env, else_env)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_tags = self.eval(stmt.iter, env)
            self.assign(stmt.target, iter_tags, env)
            # Two passes so loop-carried taint stabilises.
            self.exec_block(stmt.body, env)
            self.exec_block(stmt.body, env)
            self.exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            self.exec_block(stmt.body, env)
            self.exec_block(stmt.body, env)
            self.exec_block(stmt.orelse, env)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                tags = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, tags, env)
            self.exec_block(stmt.body, env)
            return
        if isinstance(stmt, ast.Try):
            body_env = dict(env)
            self.exec_block(stmt.body, body_env)
            branch_envs = [body_env]
            for handler in stmt.handlers:
                henv = dict(env)
                self.exec_block(handler.body, henv)
                branch_envs.append(henv)
            self._merge_into(env, *branch_envs)
            self.exec_block(stmt.orelse, env)
            self.exec_block(stmt.finalbody, env)
            return
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.eval(stmt.exc, env)
            return
        if isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
            return
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
            return
        # Import / Pass / Break / Continue / Nonlocal: no taint effect.

    @staticmethod
    def _merge_into(env: Dict[str, Tags], *branches: Dict[str, Tags]) -> None:
        keys: Set[str] = set(env)
        for branch in branches:
            keys |= set(branch)
        for key in keys:
            merged: Tags = EMPTY
            for branch in branches:
                merged = merged | branch.get(key, EMPTY)
            env[key] = merged

    def assign(self, target: ast.expr, tags: Tags, env: Dict[str, Tags]) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = tags
            if (
                self.domain.module_state_sink
                and self.fi is not None
                and target.id in self.globals_declared
            ):
                self._hit_sink(
                    target,
                    f"module-level state (global {target.id!r})",
                    tags,
                )
            return
        if isinstance(target, ast.Starred):
            self.assign(target.value, tags, env)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.assign(elt, tags, env)
            return
        if isinstance(target, (ast.Subscript, ast.Attribute)):
            base = target.value
            while isinstance(base, (ast.Subscript, ast.Attribute)):
                base = base.value
            if (
                self.domain.module_state_sink
                and self.fi is not None
                and isinstance(base, ast.Name)
                and base.id not in env
                and base.id
                in self.analysis.module_level_names(self.ctx)
            ):
                self._hit_sink(
                    target,
                    f"module-level mutable state ({base.id!r})",
                    tags,
                )

    # -- expressions -------------------------------------------------------

    def eval(self, node: Optional[ast.expr], env: Dict[str, Tags]) -> Tags:
        if node is None:
            return EMPTY
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            return self.analysis.module_env(self.ctx).get(node.id, EMPTY)
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Call):
            return self._eval_call(node, env)
        if isinstance(node, ast.Attribute):
            base = self.eval(node.value, env)
            return base | self.domain.source_expr(node, self.ctx)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            label = self.domain.binop_sink(node, left, right)
            if label is not None:
                self._hit_sink(node, label, left | right)
            return left | right
        if isinstance(node, ast.Compare):
            self.eval(node.left, env)
            for comparator in node.comparators:
                self.eval(comparator, env)
            return EMPTY  # boolean results don't carry value taint
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return self.eval(node.body, env) | self.eval(node.orelse, env)
        if isinstance(node, (ast.Set, ast.SetComp)):
            tags = self._eval_children(node, env)
            return tags | self.domain.source_expr(node, self.ctx)
        if isinstance(node, ast.Lambda):
            return EMPTY  # body runs elsewhere; over-approximating here
            # would make every lambda argument look tainted
        # Subscript, unary, f-strings, comprehensions, starred, await,
        # yields, containers: taint is the union of the children's taint.
        return self._eval_children(node, env)

    def _eval_children(self, node: ast.AST, env: Dict[str, Tags]) -> Tags:
        tags: Tags = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                tags = tags | self.eval(child, env)
            elif isinstance(child, ast.comprehension):
                iter_tags = self.eval(child.iter, env)
                self.assign(child.target, iter_tags, env)
                for cond in child.ifs:
                    self.eval(cond, env)
        return tags

    def _eval_call(self, node: ast.Call, env: Dict[str, Tags]) -> Tags:
        func = node.func
        base_tags = (
            self.eval(func.value, env)
            if isinstance(func, ast.Attribute)
            else EMPTY
        )
        arg_tags = [self.eval(a, env) for a in node.args]
        kw_tags = {kw.arg: self.eval(kw.value, env) for kw in node.keywords}
        union_args: Tags = base_tags
        for tags in arg_tags:
            union_args = union_args | tags
        for tags in kw_tags.values():
            union_args = union_args | tags

        dotted = self.ctx.dotted_name(func)
        terminal = _terminal(func)

        killed = self.domain.sanitizer(dotted, terminal, node, self.ctx)
        if killed is not None:
            if KILL_ALL in killed:
                return EMPTY
            return without(union_args, killed)

        label = self.domain.call_sink(dotted, terminal, node, self.fi)
        if label is not None:
            self._hit_sink(node, label, union_args)
            return EMPTY  # the digest itself is the sink's output

        callee_qn = self.targets.get(node)
        if callee_qn is not None:
            return self._apply_summary(node, callee_qn, arg_tags, kw_tags)

        minted = self.domain.source_call(dotted, terminal, node, self.ctx)
        if minted:
            return minted | union_args

        label = self.domain.reduction_sink(
            dotted, terminal, node, base_tags, arg_tags, kw_tags
        )
        if label is not None:
            self._hit_sink(node, label, union_args)
            return EMPTY

        # Unknown callable: conservatively pass taint through (a draw
        # formatted with str(), a tainted object's method result, ...).
        return union_args

    def _apply_summary(
        self,
        node: ast.Call,
        callee_qn: str,
        arg_tags: List[Tags],
        kw_tags: Dict[Optional[str], Tags],
    ) -> Tags:
        callee = self.graph.functions[callee_qn]
        summary = self.analysis.summaries[callee_qn]

        def tags_for_param(placeholder: str) -> Tags:
            index, killed = _parse_param(placeholder)
            if index < len(arg_tags):
                tags = arg_tags[index]
            elif index < len(callee.params):
                tags = kw_tags.get(callee.params[index], EMPTY)
            else:
                tags = EMPTY
            return without(tags, killed)

        for placeholder, label in sorted(summary.param_sinks):
            tags = tags_for_param(placeholder)
            if tags:
                self._hit_sink(node, label, tags, via=callee.name)

        result: Set[str] = set()
        for tag in summary.return_tags:
            if is_param_tag(tag):
                result |= tags_for_param(tag)
            else:
                result.add(tag)
        # Taint passed via *args/**kwargs or unmapped positions is not
        # tracked through the callee; that is the documented precision
        # bound (rules only fire on what they can prove).
        return frozenset(result)
