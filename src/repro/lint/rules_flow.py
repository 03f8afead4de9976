"""Flow-sensitive rule families (F601, D203, K404, S501).

These rules are what the call graph (:mod:`repro.lint.callgraph`) and
the taint engine (:mod:`repro.lint.dataflow`) exist for: each one is a
*semantic* contract that a syntactic rule could only check at a single
call site, restated as "no value with property X may reach a program
point with property Y — through any number of assignments, containers
and project-local function calls".

=====  ======================  ===========================================
id     name                    contract
=====  ======================  ===========================================
F601   rng-taint               generator objects and their draws never
                               reach a digest/cache-key path or
                               module-level mutable state
D203   digest-purity-flow      values feeding a hash, a key-path or
                               shard-routing call, or returned from a
                               function named for one, are transitively
                               deterministic (no clocks, ``id()``,
                               ``hash()``, pids, entropy, unsorted sets
                               or unsorted ``json.dumps``)
K404   int32-overflow          ``indptr``/``indices`` arithmetic that can
                               exceed 2^31-1 promotes to int64 first
S501   async-blocking          no blocking call reachable from an
                               ``async def`` without executor offload
=====  ======================  ===========================================

A deliberate asymmetry in F601: *seeds* (``derive_seed`` results,
``SeedSequence.entropy``) are legitimate cache-key material — the
estimate digest is supposed to include the seed.  What must never key a
cache is a **generator object or a value drawn from one**: draws depend
on the generator's consumption state, so folding one into a digest makes
the "content address" depend on call order, which is exactly the rot the
determinism contract forbids.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.callgraph import CallGraph, FunctionInfo, _terminal
from repro.lint.dataflow import (
    KILL_ALL,
    TaintAnalysis,
    TaintDomain,
    Tags,
)
from repro.lint.findings import Finding
from repro.lint.framework import (
    FileContext,
    ProjectContext,
    ProjectRule,
    register_rule,
)

_EMPTY: Tags = frozenset()

_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
}

_HASH_TERMINALS = {
    "sha256", "sha1", "sha512", "sha384", "sha224", "md5",
    "blake2b", "blake2s", "_sha256_hex",
}

_KEY_NAME_SUFFIXES = ("_key", "_digest", "_token")

_ROUTING_NAME_RE = re.compile(r"shard|rout(?:e|ing)")
"""Names owning shard-routing decisions (``shard_for``, ``pick_shard``,
``route_request``, ``routing_key``...).  ``routine`` does not match."""


def _identity_role(name: Optional[str]) -> Optional[str]:
    """What a function's name promises: a stable identity, a shard
    decision, or nothing.

    One predicate for call sinks and return sinks.  A name ending in
    ``_key``/``_digest``/``_token`` promises a content address; a name
    mentioning shards or routes promises a routing decision that is a
    pure function of request content.  Serialisation helpers
    (``canonical_batch``, ``_canonical_json``) promise neither — taint
    through them still reaches the hash call that consumes their output,
    which is where it matters.
    """
    if name is None:
        return None
    lowered = name.lower()
    if lowered.endswith(_KEY_NAME_SUFFIXES):
        return "cache-key path"
    if _ROUTING_NAME_RE.search(lowered):
        return "shard-routing decision"
    return None


def _is_hash_or_key_sink(
    dotted: Optional[str], terminal: Optional[str]
) -> Optional[str]:
    """Shared call-sink predicate: hash constructors and calls to
    functions whose name promises an identity or a shard decision."""
    if dotted is not None and dotted.startswith("hashlib."):
        return f"digest path ({dotted})"
    if terminal in _HASH_TERMINALS:
        return f"digest path ({terminal})"
    role = _identity_role(terminal)
    if role is not None:
        return f"{role} ({terminal})"
    return None


def _run_domain(rule: "FlowRuleBase", project: ProjectContext) -> Iterator[Finding]:
    graph = project.callgraph()
    analysis = TaintAnalysis(rule.domain(), graph)
    for flow in analysis.run():
        yield rule.finding(flow.ctx, flow.node, flow.message)


class FlowRuleBase(ProjectRule):
    """A taint-domain-backed project rule."""

    def domain(self) -> TaintDomain:
        raise NotImplementedError

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        return _run_domain(self, project)


# ---------------------------------------------------------------------------
# F601: rng-taint
# ---------------------------------------------------------------------------

_RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
}


_SANCTIONED_TOKENISERS = {
    "repro.cache.seed_token",
    "repro.cache.estimate_digest",
}
"""The audited seed-tokenisation boundary: :func:`repro.cache.seed_token`
identifies a live Generator by its bit-generator state *on purpose* (and
the estimate cache fast-forwards the generator on a hit), so passing a
generator into these two functions is the sanctioned way to key
generator-seeded estimates — not a leak."""


class RngTaintDomain(TaintDomain):
    taint_noun = "rng-derived"
    module_state_sink = True

    def source_call(self, dotted, terminal, call, ctx):
        if dotted in _RNG_CONSTRUCTORS:
            return frozenset({"rng"})
        return _EMPTY

    def sanitizer(self, dotted, terminal, call, ctx):
        if dotted in _SANCTIONED_TOKENISERS:
            return frozenset({KILL_ALL})
        return None

    def call_sink(self, dotted, terminal, call, fi):
        return _is_hash_or_key_sink(dotted, terminal)


@register_rule
class RngTaintRule(FlowRuleBase):
    """F601: rng-derived values in digest paths or module state."""

    id = "F601"
    name = "rng-taint"
    description = (
        "Generator objects (default_rng, SeedSequence, Generator) and "
        "anything drawn from them must not reach a hash/cache-key call "
        "or module-level mutable state — draws depend on consumption "
        "order, so a digest built from one is not content-addressed.  "
        "Tracked interprocedurally through project-local calls; plain "
        "integer seeds (derive_seed results) are fine and belong in "
        "digests."
    )

    def domain(self) -> TaintDomain:
        return RngTaintDomain()


# ---------------------------------------------------------------------------
# D203: digest-purity-flow
# ---------------------------------------------------------------------------

_IDENTITY_CALLS = {
    "os.getpid": "process-id",
    "os.getppid": "process-id",
    "os.urandom": "os-entropy",
}

_ENTROPY_PREFIXES = {"random.": "random", "secrets.": "entropy", "uuid.": "uuid"}

_CONTENT_UUIDS = {"uuid.UUID", "uuid.uuid3", "uuid.uuid5"}
"""Name-based and parsed UUIDs are functions of their input."""

_ORDER_INSENSITIVE = {"sorted", "len", "min", "max", "sum", "any", "all"}


def _builtin(call: ast.Call, ctx: FileContext) -> Optional[str]:
    """The bare builtin a call names (``hash``, ``id``, ``sorted``...),
    unless the file rebinds that name through an import."""
    if isinstance(call.func, ast.Name) and call.func.id not in ctx.aliases:
        return call.func.id
    return None


def _sorts_keys(call: ast.Call) -> bool:
    return any(
        kw.arg == "sort_keys"
        and isinstance(kw.value, ast.Constant)
        and kw.value.value is True
        for kw in call.keywords
    )


class DigestPurityDomain(TaintDomain):
    taint_noun = "nondeterministic"

    def source_call(self, dotted, terminal, call, ctx):
        if dotted in _CLOCK_CALLS:
            return frozenset({"wall-clock"})
        if dotted in _IDENTITY_CALLS:
            return frozenset({_IDENTITY_CALLS[dotted]})
        if dotted == "json.dumps" and not _sorts_keys(call):
            return frozenset({"dict-order"})
        if dotted is not None and dotted not in _CONTENT_UUIDS:
            for prefix, tag in _ENTROPY_PREFIXES.items():
                if dotted.startswith(prefix):
                    return frozenset({tag})
        builtin = _builtin(call, ctx)
        if builtin == "id":
            return frozenset({"object-identity"})
        if builtin == "hash":
            # str/bytes hash() is salted per process (PYTHONHASHSEED).
            return frozenset({"salted-hash"})
        return _EMPTY

    def source_expr(self, node, ctx):
        # Set displays/comprehensions iterate in hash order, which (for
        # str keys) varies across processes under hash randomisation.
        if isinstance(node, (ast.Set, ast.SetComp)):
            return frozenset({"unordered-set"})
        return _EMPTY

    def sanitizer(self, dotted, terminal, call, ctx):
        # Order-insensitive reductions make set contents safe again;
        # nothing launders a clock reading.
        if _builtin(call, ctx) in _ORDER_INSENSITIVE:
            return frozenset({"unordered-set"})
        return None

    def call_sink(self, dotted, terminal, call, fi):
        return _is_hash_or_key_sink(dotted, terminal)

    def return_sink(self, fi):
        role = _identity_role(fi.name)
        if role is None:
            return None
        return f"{role} (return of {fi.name})"

    def skip_file(self, ctx):
        # The metrics module is the sanctioned wall-clock consumer.
        return ctx.matches_module("repro", "service", "metrics.py")


@register_rule
class DigestPurityFlowRule(FlowRuleBase):
    """D203: nondeterministic values flowing into digests, keys or routing."""

    id = "D203"
    name = "digest-purity-flow"
    description = (
        "Values feeding a hash, a call to a *_key/_digest/_token or "
        "shard/route-named function, or the return value of such a "
        "function, must be transitively deterministic: wall clocks, "
        "id(), the per-process salted hash(), os.getpid/getppid, "
        "os.urandom, random/secrets/uuid draws, json.dumps without "
        "sort_keys=True and unsorted set iteration are findings anywhere "
        "upstream of the sink, across project-local calls.  "
        "sorted()/len()/min()/max() launder set-order taint; "
        "repro/service/metrics.py is exempt."
    )

    def domain(self) -> TaintDomain:
        return DigestPurityDomain()


# ---------------------------------------------------------------------------
# K404: int32-overflow
# ---------------------------------------------------------------------------

_CSR_INDEX_ATTRS = {"indptr", "indices"}
_REDUCTIONS = {"sum", "cumsum", "prod", "dot", "matmul"}
_INT64_NAMES = {"int64", "uint64", "intp"}


def _mentions_int64(node: ast.AST, ctx: FileContext) -> bool:
    """Whether an expression names an int64-family dtype."""
    if isinstance(node, ast.Constant):
        return node.value in _INT64_NAMES
    term = _terminal(node)
    return term in _INT64_NAMES


def _int64_dtype_kwarg(call: ast.Call, ctx: FileContext) -> bool:
    for kw in call.keywords:
        if kw.arg == "dtype" and _mentions_int64(kw.value, ctx):
            return True
    return False


class Int32OverflowDomain(TaintDomain):
    taint_noun = "int32-width"

    def source_expr(self, node, ctx):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in _CSR_INDEX_ATTRS
        ):
            return frozenset({f"int32-{node.attr}"})
        return _EMPTY

    def sanitizer(self, dotted, terminal, call, ctx):
        # Explicit promotion (or a Python int, which cannot overflow)
        # clears the width taint.  Any call pinning dtype=int64 counts:
        # asarray, array, fromiter, zeros, empty, reductions, ...
        if terminal == "astype" and any(
            _mentions_int64(a, ctx) for a in call.args
        ):
            return frozenset({KILL_ALL})
        if _int64_dtype_kwarg(call, ctx):
            return frozenset({KILL_ALL})
        if dotted is not None and dotted.rpartition(".")[2] in _INT64_NAMES:
            return frozenset({KILL_ALL})
        if (
            isinstance(call.func, ast.Name)
            and call.func.id == "int"
            and "int" not in ctx.aliases
        ):
            return frozenset({KILL_ALL})
        return None

    def binop_sink(self, node, left, right):
        if isinstance(node.op, ast.Mult) and left and right:
            return "an int32 product (promote with .astype(np.int64) first)"
        return None

    def reduction_sink(self, dotted, terminal, call, base, args, keywords):
        if terminal not in _REDUCTIONS:
            return None
        if not isinstance(call.func, ast.Attribute):
            return None  # builtin sum() yields Python ints — no overflow
        tainted = base or (args[0] if args else _EMPTY)
        if not tainted:
            return None
        return (
            f"an int32 {terminal}() without dtype=np.int64 "
            "(accumulates in int32 and can exceed 2^31-1 at n=10^6)"
        )


@register_rule
class Int32OverflowRule(FlowRuleBase):
    """K404: int32 CSR index arithmetic without int64 promotion."""

    id = "K404"
    name = "int32-overflow"
    description = (
        "Products and dtype-less sum/cumsum/prod/dot reductions over "
        "values derived from CSR indptr/indices arrays stay int32 and "
        "overflow past 2^31-1 in the n=10^6 sparse regime; promote with "
        ".astype(np.int64), np.asarray(..., dtype=np.int64), dtype="
        "np.int64 on the reduction, or plain int().  Tracked "
        "interprocedurally: a helper returning g.indptr taints its "
        "callers."
    )

    def domain(self) -> TaintDomain:
        return Int32OverflowDomain()


# ---------------------------------------------------------------------------
# S501: async-blocking
# ---------------------------------------------------------------------------

_BLOCKING_CALLS = {
    "time.sleep",
    "os.system",
    "os.wait",
    "os.waitpid",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "socket.getaddrinfo",
    "urllib.request.urlopen",
    "requests.get",
    "requests.post",
    "requests.request",
}


@register_rule
class AsyncBlockingRule(ProjectRule):
    """S501: blocking calls reachable from ``async def`` functions.

    Graph reachability, not taint: every ``async def`` is a root, and
    the rule walks project-local call edges through *synchronous*
    callees only (an awaited ``async def`` callee is its own root, so
    chains are reported exactly once, at the blocking call site).
    Blocking work handed to ``run_in_executor``/``asyncio.to_thread``
    is exempt automatically — a function *reference* is not a call, so
    no edge exists.
    """

    id = "S501"
    name = "async-blocking"
    description = (
        "time.sleep, subprocess, sync socket/url I/O and friends stall "
        "the whole event loop when reached from an async def — directly "
        "or through any chain of project-local synchronous calls.  "
        "Offload via loop.run_in_executor(...)/asyncio.to_thread(...) "
        "(passing the function, not calling it) instead."
    )

    def check_project(self, project: ProjectContext) -> Iterator[Finding]:
        graph = project.callgraph()
        blocking = self._blocking_sites(graph)
        edges = self._sync_edges(graph)
        reported: Set[Tuple[str, int, int]] = set()
        for root in graph.functions_in_order():
            if not root.is_async:
                continue
            for fi, chain in self._reach(graph, edges, root):
                for call, dotted in blocking.get(fi.qualname, ()):
                    key = (fi.path, call.lineno, call.col_offset)
                    if key in reported:
                        continue
                    reported.add(key)
                    via = (
                        " via " + " -> ".join(chain) if len(chain) > 1 else ""
                    )
                    yield self.finding(
                        fi.ctx,
                        call,
                        f"blocking {dotted}() reachable from async def "
                        f"{root.name!r}{via}; offload with "
                        "run_in_executor/to_thread",
                    )

    def _blocking_sites(
        self, graph: CallGraph
    ) -> Dict[str, List[Tuple[ast.Call, str]]]:
        """Direct blocking calls per function (own body only)."""
        sites: Dict[str, List[Tuple[ast.Call, str]]] = {}
        for fi in graph.functions_in_order():
            own: List[Tuple[ast.Call, str]] = []
            for node in ast.walk(fi.node):
                if not isinstance(node, ast.Call):
                    continue
                if fi.ctx.enclosing_function(node) is not fi.node:
                    continue  # belongs to a nested def
                dotted = fi.ctx.dotted_name(node.func)
                if dotted in _BLOCKING_CALLS:
                    own.append((node, dotted))
            if own:
                sites[fi.qualname] = own
        return sites

    def _sync_edges(self, graph: CallGraph) -> Dict[str, List[str]]:
        """Call edges restricted to each function's own body."""
        edges: Dict[str, List[str]] = {}
        for fi in graph.functions_in_order():
            targets = graph.call_targets(fi)
            out: List[str] = []
            for node in ast.walk(fi.node):
                if not isinstance(node, ast.Call) or node not in targets:
                    continue
                if fi.ctx.enclosing_function(node) is not fi.node:
                    continue
                callee = targets[node]
                if callee not in out:
                    out.append(callee)
            edges[fi.qualname] = out
        return edges

    def _reach(
        self,
        graph: CallGraph,
        edges: Dict[str, List[str]],
        root: FunctionInfo,
    ) -> Iterator[Tuple[FunctionInfo, List[str]]]:
        """(function, chain-of-names) reachable from ``root``.

        The root itself is yielded first; traversal then follows edges
        into synchronous callees only, breadth-first, deterministic.
        """
        yield root, [root.name]
        seen: Set[str] = {root.qualname}
        queue: List[Tuple[str, List[str]]] = [(root.qualname, [root.name])]
        while queue:
            qualname, chain = queue.pop(0)
            for callee_qn in edges.get(qualname, ()):
                if callee_qn in seen:
                    continue
                seen.add(callee_qn)
                callee = graph.functions.get(callee_qn)
                if callee is None or callee.is_async:
                    continue  # async callees are their own roots
                next_chain = chain + [callee.name]
                yield callee, next_chain
                queue.append((callee_qn, next_chain))
