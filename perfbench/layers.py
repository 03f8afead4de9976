"""Traced runs: wrap each layer's public functions from outside.

:func:`install` replaces every public function listed in
``perfbench/README.md`` at its import sites (each ``repro.*`` module
attribute bound to the original object, and each class that defines a
traced method), so calls made through any of them open a span.  It
returns a callable that restores the originals.  Nothing under ``src/``
is edited; an untraced run never calls :func:`install`.

:func:`layer_metrics` folds the recorded spans and counters into the
benchmark's per-layer metrics.  A metric for a layer a workload does not
touch reads 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import Tracer

# Span name -> its per-layer metric.  BENCHMARK.json lists the metrics
# with their units; run.py refuses a traced run whose metrics differ.
TIME_METRICS = {
    "graphs.generate": "graphs.generate_s",
    "core.compile": "core.compile_s",
    "core.local_view": "core.local_view_s",
    "mechanisms.sample_batch": "mechanisms.sample_batch_s",
    "mechanisms.sample_serial": "mechanisms.sample_serial_s",
    "mechanisms.sample_dag": "mechanisms.sample_dag_s",
    "delegation.resolve": "delegation.resolve_s",
    "voting.estimate": "voting.estimate_self_s",
    "voting.pmf": "voting.pmf_s",
    "voting.tails": "voting.tails_s",
    "voting.direct": "voting.direct_s",
    "voting.dag": "voting.dag_s",
    "sampling.recycle": "sampling.recycle_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "incremental.apply": "incremental.apply_s",
    "incremental.estimate": "incremental.estimate_s",
    "incremental.patch_forest": "incremental.patch_forest_s",
    "incremental.patch_instance": "incremental.patch_instance_s",
    "attacks.search": "attacks.search_self_s",
}

COUNT_METRICS = (
    "mechanisms.uniform_bytes",
    "delegation.resolve_cells",
    "voting.tails_rows",
    "voting.direct_calls",
    "incremental.affected_voters",
    "incremental.full_rebuilds",
    "attacks.moves_evaluated",
)

RATIO_METRICS = {
    "voting.profile_hit_ratio": ("lru.hits", "lru.lookups"),
    "cache.hit_ratio": ("cache.hits", "cache.lookups"),
}

SERVICE_METRICS = (
    "service.frontend_p50_ms",
    "service.shard_p50_ms",
    "service.coalesced_ratio",
    "service.batch_mean_size",
    "service.queue_rejected",
    "service.routed_max_share",
    "service.request_kib",
    "service.delta_patched_share",
    "load.generator_lag_ms",
)

TRACE_METRICS = ("trace.overhead_s", "trace.coverage")


def experiment_ids() -> List[str]:
    from repro.experiments import list_experiments

    return [eid for eid, _ in list_experiments()]


def is_layer(span_name: str) -> bool:
    """Whether a span times a layer (rather than the benchmark's own steps)."""
    return span_name in TIME_METRICS or span_name.startswith("experiments.")


# --------------------------------------------------------------------------
# wrapping


class _Patches:
    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def _traced(
    tracer: Tracer,
    layer: str,
    fn: Callable,
    skip_under: Sequence[str] = (),
    before: Optional[Callable] = None,
    after: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if skip_under and any(n in skip_under for n in tracer.active()):
            return fn(*args, **kwargs)
        if before is not None:
            before(*args, **kwargs)
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result, *args, **kwargs)
        return result

    return wrapper


def _patch_function(
    patches: _Patches, tracer: Tracer, module: str, attr: str, layer: str, **hooks
) -> None:
    original = getattr(importlib.import_module(module), attr)
    wrapper = _traced(tracer, layer, original, **hooks)
    for name, mod in sorted(sys.modules.items()):
        if (
            mod is not None
            and (name == "repro" or name.startswith("repro."))
            and mod.__dict__.get(attr) is original
        ):
            patches.set(mod, attr, wrapper)


def _subclasses(cls: type) -> List[type]:
    out, frontier = [cls], [cls]
    while frontier:
        for sub in frontier.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                frontier.append(sub)
    return out


def _patch_method(
    patches: _Patches, tracer: Tracer, cls: type, attr: str, layer: str, **hooks
) -> None:
    for klass in _subclasses(cls):
        if attr in klass.__dict__:
            original = klass.__dict__[attr]
            patches.set(klass, attr, _traced(tracer, layer, original, **hooks))


def preload() -> None:
    """Import every traced module, binding each import site."""
    import repro  # noqa: F401
    import repro.attacks  # noqa: F401
    import repro.cache  # noqa: F401
    import repro.cli  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.incremental  # noqa: F401
    import repro.sampling  # noqa: F401
    import repro.service.protocol  # noqa: F401


def install(tracer: Tracer, check_weights: bool = False) -> Callable[[], None]:
    """Wrap every traced boundary; returns the function that undoes it.

    With ``check_weights`` each resolved round's sink weights are checked
    to sum to ``n``; a violation is counted under ``gate.weight_sum``.
    """
    preload()
    import repro.cache
    from repro._util.mathx import LRUCache
    from repro.attacks.search import AttackSearch
    from repro.core.instance import ProblemInstance
    from repro.incremental.session import DeltaSession
    from repro.mechanisms.base import DelegationMechanism
    from repro.mechanisms.weighted_majority import WeightedMajorityDelegation
    from repro.sampling.recycle import RecycleSamplingGraph
    from repro.voting.dag import WeightedDelegationDag
    from repro.voting.montecarlo import BatchEstimator

    patches = _Patches()
    fn = functools.partial(_patch_function, patches, tracer)
    meth = functools.partial(_patch_method, patches, tracer)

    for gen in ("barabasi_albert_graph", "random_regular_graph"):
        fn("repro.graphs.generators", gen, "graphs.generate")
    meth(ProblemInstance, "compiled", "core.compile")
    meth(ProblemInstance, "local_view", "core.local_view")
    meth(ProblemInstance, "approved_neighbors", "core.local_view")

    def uniform_bytes(self, instance, n_rounds, *args, **kwargs):
        rows = self.batch_uniform_rows() or 0
        tracer.count("mechanisms.uniform_bytes", 8 * rows * n_rounds * instance.num_voters)

    meth(DelegationMechanism, "sample_delegations_batch", "mechanisms.sample_batch",
         before=uniform_bytes)
    meth(DelegationMechanism, "sample_delegations", "mechanisms.sample_serial")
    meth(WeightedMajorityDelegation, "sample_dag", "mechanisms.sample_dag")

    def resolved(result, delegates):
        tracer.count("delegation.resolve_cells", delegates.size)
        if check_weights:
            weights = result[1]
            sums = weights.sum(axis=1)
            tracer.count("gate.weight_rows", len(sums))
            tracer.count("gate.weight_sum", int((sums != delegates.shape[1]).sum()))

    fn("repro.delegation.graph", "resolve_forests_batch", "delegation.resolve",
       after=resolved)

    meth(BatchEstimator, "estimate", "voting.estimate")
    fn("repro.voting.montecarlo", "estimate_correct_probability", "voting.estimate")
    for pmf in ("weighted_bernoulli_pmf", "poisson_binomial_pmf"):
        fn("repro.voting.exact", pmf, "voting.pmf", skip_under=("voting.direct",))

    def tails_rows(result, weights, *args, **kwargs):
        tracer.count("voting.tails_rows", weights.shape[0])

    fn("repro.voting.exact", "weighted_tails_batch", "voting.tails", after=tails_rows)

    def direct_call(*args, **kwargs):
        tracer.count("voting.direct_calls")

    fn("repro.voting.exact", "direct_voting_probability", "voting.direct",
       before=direct_call)
    meth(WeightedDelegationDag, "sample_effective_votes", "voting.dag")
    for method in ("sample", "sample_sum", "partition_complexity"):
        meth(RecycleSamplingGraph, method, "sampling.recycle")

    def lru_lookup(result, *args, **kwargs):
        tracer.count("lru.lookups")
        tracer.count("lru.hits", result is not None)

    # Counted, not timed: a span per profile lookup would cost more than
    # the lookup; its time stays in the caller's self time.
    get = LRUCache.__dict__["get"]

    @functools.wraps(get)
    def counted_get(*args, **kwargs):
        result = get(*args, **kwargs)
        lru_lookup(result)
        return result

    patches.set(LRUCache, "get", counted_get)

    def cache_lookup(result, *args, **kwargs):
        tracer.count("cache.lookups")
        tracer.count("cache.hits", result is not None)

    meth(repro.cache.EstimateCache, "get", "cache.get", after=cache_lookup)
    meth(repro.cache.EstimateCache, "put", "cache.put")

    sessions: List[object] = []

    def remember_session(result, self, *args, **kwargs):
        if not any(s is self for s in sessions):
            sessions.append(self)

    meth(DeltaSession, "apply", "incremental.apply", after=remember_session)
    meth(DeltaSession, "estimate", "incremental.estimate")
    fn("repro.incremental.forest", "patch_forests_delta", "incremental.patch_forest")
    fn("repro.incremental.structure", "patched_instance", "incremental.patch_instance")

    def moves(result, *args, **kwargs):
        tracer.count("attacks.moves_evaluated", result.moves_evaluated)

    meth(AttackSearch, "run", "attacks.search", after=moves)

    import repro.cli

    original_get = repro.cli.get_experiment

    def get_experiment(eid):
        return _traced(tracer, f"experiments.{eid}", original_get(eid))

    patches.set(repro.cli, "get_experiment", get_experiment)

    def uninstall() -> None:
        for session in sessions:
            stats = session.patch_stats
            tracer.count("incremental.affected_voters", stats["affected_voters"])
            tracer.count("incremental.full_rebuilds", stats["full_rebuilds"])
        sessions.clear()
        patches.restore()

    return uninstall


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer metrics from one traced pass (0 for untouched layers)."""
    selfs = tracer.self_times()
    out: Dict[str, float] = {}
    for layer, metric in TIME_METRICS.items():
        out[metric] = selfs.get(layer, 0.0)
    for metric in COUNT_METRICS:
        out[metric] = float(tracer.counters.get(metric, 0))
    for metric, (hits, lookups) in RATIO_METRICS.items():
        total = tracer.counters.get(lookups, 0)
        out[metric] = tracer.counters.get(hits, 0) / total if total else 0.0
    for eid in experiment_ids():
        out[f"experiments.{eid}_s"] = selfs.get(f"experiments.{eid}", 0.0)
    return out

