"""Monte Carlo estimation of ``P^M(G)`` over mechanism randomness.

Two estimators:

* ``exact_conditional=True`` (default) — Rao–Blackwellised: sample only
  the delegation forest, then add the *exact* conditional correctness
  probability of that forest.  Vote-sampling variance vanishes, so a few
  hundred rounds suffice even for tiny gains.
* ``exact_conditional=False`` — the naive full simulation (sample forest
  and votes, record the 0/1 outcome), kept for validation of the exact DP.

One engine, :class:`BatchEstimator`: round ``r`` draws its forest from
its own child seed (absolute spawn keys, see
:func:`repro._util.rng.child_seed_sequence`), identical sink-weight
profiles are deduplicated through an LRU cache, and rounds optionally
fan out over a process pool.  Processes split rounds across
``n_jobs``; inside a process, threads split a chunk's blocks in the
level-ordered kernel and its rounds in the naive vote loop, on
``min(tasks, CPUs in the affinity mask)`` threads once the rows are
wide (:mod:`repro._util.threads`; one thread inside a pool worker).
Peak memory is O(E + chunk·n + workers·block).  For a fixed seed the
forests, the naive vote draws and each round's exact tail are bitwise
identical regardless of ``n_jobs``, thread count, chunking, worker
partitioning or the estimator's cache history, so both estimators are
bitwise invariant.  A live
``Generator`` seed is consumed to draw the root seed
(:func:`repro._util.rng.as_seed_sequence`), so consecutive estimates
sharing one generator are independent.

The engine takes each chunk of rounds as a compact sink profile
``(sinks, weights)`` from
:meth:`~repro.mechanisms.base.DelegationMechanism.sample_forests_batch`:
the voters that are a sink in some round, and their weight in every
round.  Fixed-mover mechanisms (Algorithm 1, Theorem 5's mechanism)
pick targets and resolve forests in one pass over the approval DAG's
level order and weigh their non-movers only; every other mechanism
samples a ``(rounds, n)`` delegate matrix through its vectorised
uniform kernel, resolves it with one pointer-doubling pass
(:func:`~repro.delegation.graph.resolve_forests_batch`) and drops the
never-sink columns.  All uncached profiles are evaluated in one tails
kernel call (:func:`~repro.voting.exact.weighted_tails_batch`), the
sinks no delegation can reach joining every round as one PMF computed
once per estimate.  Mechanisms without
a kernel transparently fall back to per-round sampling on the same
child seeds.  The per-round engine of an earlier revision survives as
the oracle ``_reference_batch_rounds`` for benchmarking and
equivalence testing.

On top of the engine, ``target_se`` selects *adaptive precision*
(geometric round batches until the standard error meets the target —
deterministic stopping, see :func:`_adaptive_estimate`) and ``cache``
persists estimates on disk (:mod:`repro.cache`), keyed by a digest of
instance, mechanism behaviour, seed and estimator parameters.
"""

from __future__ import annotations
# reprolint: sparse-safe

import pickle
import warnings
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro._util.mathx import LRUCache, wilson_interval
from repro._util.rng import SeedLike, as_seed_sequence, child_seed_sequence
from repro._util.threads import run_split
from repro.core.instance import ProblemInstance
from repro.voting.exact import (
    poisson_binomial_pmf,
    tail_from_pmf,
    weighted_bernoulli_pmf,
    weighted_tails_batch,
)
from repro.voting.outcome import TiePolicy, majority_correct

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.mechanisms.base import DelegationMechanism

ADAPTIVE_START = 64
"""First geometric batch size of the adaptive stopping rule."""

CHUNK_BUDGET_BYTES = 256 * 1024 * 1024
"""Default per-chunk memory budget of the streaming batch engine.

The batch engine processes rounds in row-block chunks sized so the
transient per-chunk arrays of the mechanism's forest path stay under
this budget (:meth:`~repro.mechanisms.base.DelegationMechanism.
forest_bytes_per_voter`: the composition's uniform cube, delegate
matrix and resolve scratch, or the level-ordered kernel's sink weights
alone); peak memory is then O(E + chunk·n) rather than O(rounds·n).
Chunking never changes a bit of either estimator: round ``r`` is pinned
to absolute child seed ``r`` (the same contract that makes results
``n_jobs``-invariant), and
:func:`~repro.voting.exact.weighted_tails_batch` computes each round's
exact tail from that round alone."""


TAILS_BYTES_PER_VOTER = 28
"""Peak bytes per voter and round of the exact tails kernel: on the BA
n = 10^6 electorate an 8-round RB chunk raised peak RSS by ~35 bytes
per voter and round, 8 of them the forest's."""


def _auto_chunk_rounds(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    exact_conditional: bool = False,
) -> int:
    """Rounds per streamed chunk under :data:`CHUNK_BUDGET_BYTES`.

    The per-round footprint is the mechanism's own figure for the forest
    path that runs
    (:meth:`~repro.mechanisms.base.DelegationMechanism.forest_bytes_per_voter`):
    36 bytes per voter for the composition with one uniform row, 8 for
    the level-ordered kernel; Rao–Blackwellised chunks add the tails
    kernel's :data:`TAILS_BYTES_PER_VOTER`.  Small instances resolve to
    chunks far larger than any realistic round count, so the single-shot
    fast path is unchanged below ~10^5 voters.
    """
    n = max(1, instance.num_voters)
    per_voter = mechanism.forest_bytes_per_voter(instance)
    per_voter += TAILS_BYTES_PER_VOTER if exact_conditional else 0
    return max(1, CHUNK_BUDGET_BYTES // (n * per_voter))


@dataclass(frozen=True)
class CorrectnessEstimate:
    """Estimated correct-decision probability with uncertainty.

    ``std_error`` is the standard error of the mean; ``ci_low/ci_high``
    are a 95% interval (Wilson for 0/1 outcomes, normal for the
    Rao–Blackwellised estimator whose per-round values lie in [0, 1]).
    ``converged`` records whether an adaptive run met its ``target_se``
    (fixed-rounds estimates are trivially converged).
    """

    probability: float
    rounds: int
    std_error: float
    ci_low: float
    ci_high: float
    converged: bool = True

    def __float__(self) -> float:
        return self.probability

    def to_dict(self) -> Dict[str, Any]:
        """The dict form shared by the wire, the cache and certificates.

        Keys are the field names; floats round-trip through JSON exactly.
        """
        return {
            "probability": self.probability,
            "rounds": self.rounds,
            "std_error": self.std_error,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "converged": self.converged,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CorrectnessEstimate":
        """Inverse of :meth:`to_dict`.

        Raises ``KeyError``, ``TypeError`` or ``ValueError`` on a
        malformed dict.
        """
        return cls(
            probability=float(data["probability"]),
            rounds=int(data["rounds"]),
            std_error=float(data["std_error"]),
            ci_low=float(data["ci_low"]),
            ci_high=float(data["ci_high"]),
            converged=bool(data["converged"]),
        )


def sample_outcome(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    rng: np.random.Generator,
    tie_policy: TiePolicy = TiePolicy.INCORRECT,
) -> float:
    """One full simulation round: sample forest, sample votes, decide.

    Returns 1.0 / 0.0 (or 0.5 on a coin-flip tie).
    """
    forest = mechanism.sample_delegations(instance, rng)
    comp = instance.competencies
    total = float(instance.num_voters)
    correct = 0.0
    for s in forest.sinks:
        if rng.random() < comp[s]:
            correct += forest.weight(s)
    return majority_correct(correct, total, tie_policy)


def _profile_key(
    weights: np.ndarray, probs: np.ndarray
) -> Tuple[bytes, bytes]:
    """Canonical hashable key of a sink-weight profile.

    The conditional correctness probability depends only on the multiset
    of ``(weight, competency)`` pairs, so profiles are sorted before
    hashing — forests that permute sinks share one DP.
    """
    order = np.lexsort((probs, weights))
    return (weights[order].tobytes(), probs[order].tobytes())


def _conditional_values(
    instance: ProblemInstance,
    profiles: List[Tuple[np.ndarray, np.ndarray]],
    tie_policy: TiePolicy,
    cache: LRUCache,
) -> np.ndarray:
    """Exact conditional probabilities for a list of sink profiles.

    Deduplicates through ``cache``: each distinct profile pays for one
    weighted-Bernoulli DP; repeats are array lookups.
    """
    total = instance.num_voters
    values = np.empty(len(profiles))
    for i, (weights, probs) in enumerate(profiles):
        key = _profile_key(weights, probs)
        pmf = cache.get(key)
        if pmf is None:
            pmf = weighted_bernoulli_pmf(weights, probs)
            cache.put(key, pmf)
        values[i] = tail_from_pmf(pmf, total, tie_policy)
    return values


def _reference_batch_rounds(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    root: np.random.SeedSequence,
    start: int,
    stop: int,
    tie_policy: TiePolicy,
    exact_conditional: bool,
    cache_size: int,
) -> np.ndarray:
    """Per-round batch engine of the previous revision (the oracle).

    Round ``r`` always draws from child seed ``r`` of ``root``, so the
    values are independent of how rounds are split across workers.  Kept
    as the benchmark baseline and the fallback path for mechanisms
    without a uniform kernel; module-level for picklability.
    """
    comp = instance.competencies
    profiles: List[Tuple[np.ndarray, np.ndarray]] = []
    naive = np.empty(stop - start)
    for offset, r in enumerate(range(start, stop)):
        rng = np.random.default_rng(child_seed_sequence(root, r))
        forest = mechanism.sample_delegations(instance, rng)
        weights = forest.sink_weight_array
        probs = comp[forest.sink_indices]
        if exact_conditional:
            profiles.append((weights, probs))
        else:
            correct = float(weights[rng.random(len(probs)) < probs].sum())
            naive[offset] = majority_correct(
                correct, float(instance.num_voters), tie_policy
            )
    if not exact_conditional:
        return naive
    return _conditional_values(
        instance, profiles, tie_policy, LRUCache(cache_size)
    )


def _fixed_block(
    instance: ProblemInstance, mechanism: "DelegationMechanism"
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The mechanism's :meth:`~repro.mechanisms.base.DelegationMechanism.
    fixed_sinks` and their Poisson-binomial PMF, once per estimate
    (``None`` when there are none)."""
    fixed = mechanism.fixed_sinks(instance)
    if not fixed.size:
        return None
    return fixed, poisson_binomial_pmf(instance.competencies[fixed])


# reprolint: reference=_conditional_values
def _batch_values(
    instance: ProblemInstance,
    sinks: np.ndarray,
    weights: np.ndarray,
    tie_policy: TiePolicy,
    cache: LRUCache,
    block: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> np.ndarray:
    """Exact conditional values for a compact sink profile.

    ``weights[r, j]`` is the weight voter ``sinks[j]`` carries in round
    ``r`` (0 where it delegates), as returned by
    :meth:`~repro.mechanisms.base.DelegationMechanism.sample_forests_batch`.
    ``block`` is :func:`_fixed_block` (default: empty): its voters'
    columns leave the profile and its PMF is the kernel's ``base``.
    Rounds are deduplicated by (fixed voters, sinks, their competencies,
    weight row), everything the kernel reads, so one cache can serve
    several instances and mechanisms; it stores ``(P[W > n/2], P[W =
    n/2])`` pairs, making cached values reusable across tie policies.
    All uncached rows go through one
    :func:`~repro.voting.exact.weighted_tails_batch` call, whose value
    for a row does not depend on the other rows.
    """
    total = instance.num_voters
    rounds = weights.shape[0]
    fixed, base = block or (np.empty(0, np.int64), None)
    comp = instance.competencies[sinks]
    tags = (fixed.tobytes(), sinks.tobytes(), comp.tobytes())
    # Fixed sinks are sinks in every round, so each is a column.
    var = np.ones(sinks.size, dtype=bool)
    var[np.searchsorted(sinks, fixed)] = False
    W = weights[:, var]
    comp_c = comp[var]
    keys = [tags + (W[r].tobytes(),) for r in range(rounds)]
    # `resolved` holds this call's values independently of the LRU: when
    # a batch has more distinct profiles than the cache holds, earlier
    # entries may already be evicted by read-back time.
    resolved: dict = {}
    pending: dict = {}
    for r, key in enumerate(keys):
        if key in resolved or key in pending:
            continue
        hit = cache.get(key)
        if hit is not None:
            resolved[key] = hit
        else:
            pending[key] = r
    if pending:
        if len(pending) == rounds:
            rows = slice(None)
        else:
            rows = np.fromiter(pending.values(), dtype=np.int64)
        win, atom = weighted_tails_batch(W[rows], comp_c, total, base)
        for j, key in enumerate(pending):
            pair = (float(win[j]), float(atom[j]))
            resolved[key] = pair
            cache.put(key, pair)
    values = np.empty(rounds)
    coin = tie_policy is TiePolicy.COIN_FLIP
    for r, key in enumerate(keys):
        strict, atom = resolved[key]
        values[r] = strict + 0.5 * atom if coin else strict
    return np.minimum(values, 1.0)


def _batch_rounds(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    root: np.random.SeedSequence,
    start: int,
    stop: int,
    tie_policy: TiePolicy,
    exact_conditional: bool,
    cache_size: int,
    chunk_rounds: Optional[int] = None,
) -> np.ndarray:
    """Evaluate rounds ``start .. stop-1``; module-level for picklability.

    Forests come from :meth:`sample_delegations_batch` calls — round
    ``r`` is pinned to child seed ``r`` of ``root`` whether it is drawn
    by a vectorised kernel or the per-round fallback, so values stay
    independent of how rounds are split across workers.
    """
    if not exact_conditional and not mechanism.supports_batch_sampling:
        # Per-round loop, bit-identical to the reference engine: the
        # outcome draw continues the forest generator's stream.
        return _reference_batch_rounds(
            instance, mechanism, root, start, stop, tie_policy, False,
            cache_size,
        )
    cache = LRUCache(cache_size) if exact_conditional else None
    return _streamed_rounds(
        instance, mechanism, root, start, stop, tie_policy,
        exact_conditional, cache, chunk_rounds,
    )


def _streamed_rounds(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    root: np.random.SeedSequence,
    start: int,
    stop: int,
    tie_policy: TiePolicy,
    exact_conditional: bool,
    cache: Optional[LRUCache],
    chunk_rounds: Optional[int],
) -> np.ndarray:
    """Row-block streaming core of the batch engine.

    Processes rounds in chunks of ``chunk_rounds`` (default: sized to
    :data:`CHUNK_BUDGET_BYTES`), sampling, resolving and evaluating one
    chunk at a time so the forests of all rounds never coexist.  Each
    chunk comes from
    :meth:`~repro.mechanisms.base.DelegationMechanism.sample_forests_batch`
    as a compact sink profile ``(sinks, weights)``: fixed-mover
    mechanisms pick and resolve in one pass over the approval DAG's
    level order, every other mechanism samples a delegate matrix,
    resolves it with :func:`~repro.delegation.graph.resolve_forests_batch`
    and drops the never-sink columns; both give the same profile
    bitwise.  The profile ``cache`` is shared across chunks, so dedup
    reaches across chunk boundaries exactly as it does within a single
    block.  The naive vote loop splits a chunk's rounds over threads
    (:func:`~repro._util.threads.run_split`); each round draws from its
    own spawned generator and writes its own slot of ``values``.
    """
    count = stop - start
    chunk = chunk_rounds or _auto_chunk_rounds(
        instance, mechanism, exact_conditional
    )
    values = np.empty(count)
    comp = instance.competencies
    total = float(instance.num_voters)
    block = _fixed_block(instance, mechanism) if exact_conditional else None
    for cstart in range(start, stop, chunk):
        cstop = min(cstart + chunk, stop)
        sinks, weights = mechanism.sample_forests_batch(
            instance, cstop - cstart, seed=root, first_round=cstart
        )
        if exact_conditional:
            values[cstart - start : cstop - start] = _batch_values(
                instance, sinks, weights, tie_policy, cache, block
            )
            continue
        # Fancy indexing, not ``np.take``: take copies a read-only index
        # array (the fixed-mover kernels' shared ``sinks``) on every call.
        comp_c = comp[sinks]
        # Fixed-mover kernels weigh every sink in every round, so their
        # rows need no compress.
        dense = bool((weights > 0).all())
        out = values[cstart - start : cstop - start]

        def vote(offsets: range) -> None:
            for offset in offsets:
                # Kernel mechanisms consume uniforms differently from
                # their rng-based samplers, so the outcome draw gets its
                # own spawned child — deterministic and
                # partition-invariant.
                vote_rng = np.random.default_rng(
                    child_seed_sequence(root, cstart + offset).spawn(1)[0]
                )
                row = weights[offset]
                probs = comp_c
                if not dense:
                    # ``np.compress`` keeps the same elements in the same
                    # order as a boolean-mask index and is much cheaper.
                    mask = row > 0
                    probs = np.compress(mask, comp_c)
                    row = np.compress(mask, row)
                votes = vote_rng.random(len(probs)) < probs
                correct = float(np.compress(votes, row).sum())
                out[offset] = majority_correct(correct, total, tie_policy)

        run_split(vote, cstop - cstart, sinks.size)
    return values


def _resolve_adaptive(
    rounds: int, target_se: Optional[float], max_rounds: Optional[int]
) -> Optional[int]:
    """Validate the adaptive knobs; return the round cap (None = fixed).

    ``target_se=None`` selects the fixed-rounds path (and forbids
    ``max_rounds``, which would silently do nothing).  With a target,
    the cap defaults to ``rounds`` so existing call sites bound the
    adaptive search exactly where the fixed run would have stopped.
    """
    if rounds <= 0:
        raise ValueError(f"rounds must be positive, got {rounds}")
    if target_se is None:
        if max_rounds is not None:
            raise ValueError("max_rounds requires target_se")
        return None
    if not target_se > 0:
        raise ValueError(f"target_se must be positive, got {target_se}")
    cap = rounds if max_rounds is None else max_rounds
    if cap <= 0:
        raise ValueError(f"max_rounds must be positive, got {max_rounds}")
    return cap


def _adaptive_estimate(
    eval_range: Callable[[int, int], np.ndarray],
    target_se: float,
    cap: int,
    exact_conditional: bool,
) -> CorrectnessEstimate:
    """Grow the round count geometrically until ``target_se`` is met.

    ``eval_range(start, stop)`` evaluates rounds ``start .. stop-1`` and
    must be *extension-consistent*: evaluating ``[0, a)`` then ``[a, b)``
    yields the same values as ``[0, b)`` in one call.  Pinning round
    ``r`` to absolute child seed ``r`` guarantees this, so the stopping
    round is a deterministic function of the seed alone, independent of
    ``n_jobs`` and of worker partitioning.
    """
    chunks: List[np.ndarray] = []
    done = 0
    target = min(ADAPTIVE_START, cap)
    while True:
        chunks.append(eval_range(done, target))
        done = target
        values = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
        est = _summarise_values(values, done, exact_conditional)
        if (done > 1 and est.std_error <= target_se) or done >= cap:
            break
        target = min(cap, done * 2)
    return replace(est, converged=est.std_error <= target_se)


def _cached(
    cache,
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    seed: SeedLike,
    params: dict,
    compute: Callable[[], CorrectnessEstimate],
) -> CorrectnessEstimate:
    """Route ``compute`` through a persistent :class:`~repro.cache.EstimateCache`.

    On a hit with a live ``Generator`` seed, the generator is
    fast-forwarded to the state recorded after the original
    computation, so downstream draws are bit-identical whether the
    estimate came from disk or was recomputed.  Uncacheable inputs
    (fresh-entropy seeds, untokenisable mechanisms) fall through to
    ``compute`` untouched.
    """
    if cache is None:
        return compute()
    from repro.cache import estimate_digest

    digest = estimate_digest(instance, mechanism, seed, params)
    if digest is None:
        return compute()
    entry = cache.get(digest)
    if entry is not None:
        if isinstance(seed, np.random.Generator) and entry.get("rng_state"):
            seed.bit_generator.state = entry["rng_state"]
        return CorrectnessEstimate.from_dict(entry["estimate"])
    est = compute()
    rng_state = (
        seed.bit_generator.state
        if isinstance(seed, np.random.Generator)
        else None
    )
    cache.put(digest, est.to_dict(), rng_state=rng_state)
    return est


def _check_engine(engine: str) -> None:
    """Validate the legacy ``engine`` argument: only ``"batch"`` remains."""
    if engine != "batch":
        raise ValueError(
            f"engine={engine!r} is not supported: the serial Monte Carlo "
            "engine was removed and every estimate runs on the batch "
            "engine (omit engine, or pass 'batch')"
        )


def _picklable(
    instance: ProblemInstance, mechanism: "DelegationMechanism"
) -> bool:
    try:
        pickle.dumps((instance, mechanism))
        return True
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        warnings.warn(
            f"falling back to in-process batch estimation: {exc}",
            RuntimeWarning,
            stacklevel=4,
        )
        return False


def _pooled_rounds(
    fn: Callable[..., np.ndarray],
    n_jobs: int,
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    root: np.random.SeedSequence,
    start: int,
    stop: int,
    *args,
) -> Optional[np.ndarray]:
    """Fan rounds ``start .. stop-1`` out over a process pool.

    Each of ``min(n_jobs, stop - start)`` workers evaluates
    ``fn(instance, mechanism, root, a, b, *args)`` on one contiguous
    slice ``[a, b)``; slices are concatenated in round order.  Since
    round ``r`` is pinned to child seed ``r``, the result equals one
    in-process call.  Returns ``None`` — the caller evaluates in
    process — when one worker suffices or the inputs cannot be pickled
    (e.g. a lambda threshold; a ``RuntimeWarning`` says so).  Each
    worker runs on one thread
    (:func:`~repro._util.threads.thread_workers`), so ``n_jobs``
    processes never multiply into ``n_jobs × CPUs`` threads.
    """
    workers = min(n_jobs, stop - start)
    if workers < 2 or not _picklable(instance, mechanism):
        return None
    from concurrent.futures import ProcessPoolExecutor

    bounds = np.linspace(start, stop, workers + 1).astype(int).tolist()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [
            pool.submit(fn, instance, mechanism, root, a, b, *args)
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        return np.concatenate([future.result() for future in futures])


@dataclass
class BatchEstimator:
    """Batched Monte Carlo engine for ``P^M(G)``.

    Draws all rounds' forests up front via the mechanisms' vectorised
    samplers, deduplicates identical sink-weight profiles through an LRU
    PMF cache (:class:`repro._util.mathx.LRUCache`), and — when
    ``n_jobs > 1`` — fans rounds out over a ``concurrent.futures``
    process pool.  Processes split rounds across ``n_jobs``; threads
    split a chunk's kernel blocks and naive vote rounds over the CPUs
    in the affinity mask once their rows reach 2^17 cells
    (:data:`~repro._util.threads.MIN_THREAD_WIDTH`), with one thread
    per pool worker.

    Determinism contract: round ``r`` derives its generator from the
    absolute child seed ``r`` of the root seed, so for a fixed ``seed``
    every round's forest, naive vote draw and exact tail is identical
    for every ``n_jobs``: both estimators are bitwise invariant, also to
    what the estimator's cache already holds.  If the instance or
    mechanism cannot be pickled (e.g. a lambda threshold), the estimator
    falls back to in-process evaluation with a warning — same result,
    no pool.

    ``chunk_rounds`` bounds the streaming row-block size: rounds are
    sampled, resolved and evaluated ``chunk_rounds`` at a time (default
    ``None`` sizes chunks to :data:`CHUNK_BUDGET_BYTES`), keeping peak
    memory O(E + chunk·n + workers·block).  Chunk boundaries, like
    worker partitions and thread counts, cannot shift round seeds, so
    any value yields the same forests and bit-identical estimates.
    """

    n_jobs: int = 1
    cache_size: int = 512
    chunk_rounds: Optional[int] = None
    _cache: LRUCache = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.chunk_rounds is not None and self.chunk_rounds < 1:
            raise ValueError(
                f"chunk_rounds must be >= 1, got {self.chunk_rounds}"
            )
        self._cache = LRUCache(self.cache_size)

    @property
    def cache(self) -> LRUCache:
        """The in-process PMF cache (worker caches are per-process)."""
        return self._cache

    def estimate(
        self,
        instance: ProblemInstance,
        mechanism: "DelegationMechanism",
        rounds: int = 400,
        seed: SeedLike = None,
        tie_policy: TiePolicy = TiePolicy.INCORRECT,
        exact_conditional: bool = True,
        target_se: Optional[float] = None,
        max_rounds: Optional[int] = None,
    ) -> CorrectnessEstimate:
        """Estimate ``P^M(G)`` over ``rounds`` independent draws.

        With ``target_se`` set, rounds grow in geometric batches
        (``64 → 128 → 256 …``, capped by ``max_rounds``, default
        ``rounds``) until the standard error reaches the target; each
        batch evaluates a contiguous child-seed range, so the stopping
        round — and hence the estimate — is deterministic for a fixed
        seed and invariant to ``n_jobs``.
        """
        cap = _resolve_adaptive(rounds, target_se, max_rounds)
        root = as_seed_sequence(seed)
        if cap is None:
            values = self._evaluate(
                instance, mechanism, root, 0, rounds, tie_policy,
                exact_conditional,
            )
            return _summarise_values(values, rounds, exact_conditional)
        return _adaptive_estimate(
            lambda start, stop: self._evaluate(
                instance, mechanism, root, start, stop, tie_policy,
                exact_conditional,
            ),
            target_se,
            cap,
            exact_conditional,
        )

    def _evaluate(
        self,
        instance: ProblemInstance,
        mechanism: "DelegationMechanism",
        root: np.random.SeedSequence,
        start: int,
        stop: int,
        tie_policy: TiePolicy,
        exact_conditional: bool,
    ) -> np.ndarray:
        """Evaluate the child-seed rounds ``start .. stop-1``."""
        pooled = _pooled_rounds(
            _batch_rounds, self.n_jobs, instance, mechanism, root, start,
            stop, tie_policy, exact_conditional, self.cache_size,
            self.chunk_rounds,
        )
        if pooled is not None:
            return pooled
        if not exact_conditional:
            return _batch_rounds(
                instance, mechanism, root, start, stop, tie_policy, False,
                self.cache_size, self.chunk_rounds,
            )
        # In-process evaluation shares the estimator's cache across calls.
        return _streamed_rounds(
            instance, mechanism, root, start, stop, tie_policy, True,
            self._cache, self.chunk_rounds,
        )


def _summarise_values(
    values: np.ndarray, rounds: int, exact_conditional: bool
) -> CorrectnessEstimate:
    """Shared mean/CI bookkeeping of every estimator."""
    mean = float(values.mean())
    if exact_conditional:
        se = float(values.std(ddof=1) / np.sqrt(rounds)) if rounds > 1 else 0.0
        ci = (max(0.0, mean - 1.96 * se), min(1.0, mean + 1.96 * se))
    else:
        successes = int(round(values.sum()))
        successes = min(max(successes, 0), rounds)
        ci = wilson_interval(successes, rounds)
        se = float(np.sqrt(mean * (1 - mean) / rounds))
    return CorrectnessEstimate(
        probability=mean, rounds=rounds, std_error=se, ci_low=ci[0], ci_high=ci[1]
    )


def estimate_correct_probability(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    rounds: int = 400,
    seed: SeedLike = None,
    tie_policy: TiePolicy = TiePolicy.INCORRECT,
    exact_conditional: bool = True,
    engine: str = "batch",
    n_jobs: int = 1,
    target_se: Optional[float] = None,
    max_rounds: Optional[int] = None,
    cache=None,
    estimator: Optional["BatchEstimator"] = None,
) -> CorrectnessEstimate:
    """Estimate ``P^M(G)`` over ``rounds`` independent mechanism draws.

    Runs on :class:`BatchEstimator` (``n_jobs`` process-pool workers).
    ``engine`` survives for existing callers and accepts only
    ``"batch"``; the serial engine was removed.

    ``target_se`` switches on adaptive precision: rounds grow in
    geometric batches until the standard error reaches the target or
    ``max_rounds`` (default ``rounds``) is exhausted.  With
    ``target_se=None`` the fixed-rounds behaviour is reproduced exactly.
    ``cache`` (a :class:`repro.cache.EstimateCache`) persists the
    estimate on disk keyed by instance/mechanism/seed/params, so
    repeated sweeps skip already-computed points.

    ``estimator`` — an existing :class:`BatchEstimator` — is used
    instead of a fresh one, reusing its warm profile cache.  The
    estimate is bit-identical either way (profile-cache entries are
    exact values); callers serving many related estimates — the
    estimation service groups requests sharing an instance/mechanism —
    pass one estimator per group so repeated sink-weight profiles skip
    their DP across calls, not just within one.
    """
    _check_engine(engine)
    cap = _resolve_adaptive(rounds, target_se, max_rounds)
    runner = estimator if estimator is not None else BatchEstimator(n_jobs=n_jobs)

    def compute() -> CorrectnessEstimate:
        return runner.estimate(
            instance,
            mechanism,
            rounds=rounds,
            seed=seed,
            tie_policy=tie_policy,
            exact_conditional=exact_conditional,
            target_se=target_se,
            max_rounds=max_rounds,
        )

    params = {
        "fn": "estimate_correct_probability",
        "rounds": rounds,
        "tie_policy": tie_policy.name,
        "exact_conditional": bool(exact_conditional),
        "target_se": target_se,
        "max_rounds": None if target_se is None else cap,
    }
    return _cached(cache, instance, mechanism, seed, params, compute)


def _ballot_values(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    root: np.random.SeedSequence,
    start: int,
    stop: int,
    tie_policy: TiePolicy,
) -> np.ndarray:
    """Ballot rounds ``start .. stop-1`` on absolute child seeds.

    The ballot counterpart of :func:`_batch_rounds`' fallback path;
    module-level for picklability.
    """
    from repro.voting.ballots import ballot_correct_probability

    values = np.empty(stop - start)
    for offset, r in enumerate(range(start, stop)):
        rng = np.random.default_rng(child_seed_sequence(root, r))
        ballot = mechanism.sample_ballot(instance, rng)
        values[offset] = ballot_correct_probability(
            ballot, instance.competencies, tie_policy
        )
    return values


def estimate_ballot_probability(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    rounds: int = 400,
    seed: SeedLike = None,
    tie_policy: TiePolicy = TiePolicy.INCORRECT,
    engine: str = "batch",
    n_jobs: int = 1,
    target_se: Optional[float] = None,
    max_rounds: Optional[int] = None,
    cache=None,
) -> CorrectnessEstimate:
    """Estimate ``P^M(G)`` for mechanisms that may abstain.

    Uses :meth:`~repro.mechanisms.base.DelegationMechanism.sample_ballot`
    and the abstention-aware exact conditional probability, so it agrees
    with :func:`estimate_correct_probability` for never-abstaining
    mechanisms.  Shares its siblings' parameter surface: round ``r``
    draws from absolute child seed ``r`` (the per-round stream of
    ``_reference_batch_rounds``), ``n_jobs`` fans rounds out over a
    process pool, ``target_se``/``max_rounds`` select adaptive
    precision and ``cache`` persists the result.  ``engine`` accepts
    only ``"batch"``.
    """
    _check_engine(engine)
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")
    cap = _resolve_adaptive(rounds, target_se, max_rounds)

    def compute() -> CorrectnessEstimate:
        root = as_seed_sequence(seed)

        def eval_range(start: int, stop: int) -> np.ndarray:
            pooled = _pooled_rounds(
                _ballot_values, n_jobs, instance, mechanism, root, start,
                stop, tie_policy,
            )
            if pooled is not None:
                return pooled
            return _ballot_values(
                instance, mechanism, root, start, stop, tie_policy
            )

        if cap is None:
            return _summarise_values(eval_range(0, rounds), rounds, True)
        return _adaptive_estimate(eval_range, target_se, cap, True)

    params = {
        "fn": "estimate_ballot_probability",
        "rounds": rounds,
        "tie_policy": tie_policy.name,
        "target_se": target_se,
        "max_rounds": None if target_se is None else cap,
    }
    return _cached(cache, instance, mechanism, seed, params, compute)


def estimate_gain(
    instance: ProblemInstance,
    mechanism: "DelegationMechanism",
    rounds: int = 400,
    seed: SeedLike = None,
    tie_policy: TiePolicy = TiePolicy.INCORRECT,
    exact_conditional: bool = True,
    engine: str = "batch",
    n_jobs: int = 1,
    target_se: Optional[float] = None,
    max_rounds: Optional[int] = None,
    cache=None,
    estimator: Optional["BatchEstimator"] = None,
) -> Tuple[float, CorrectnessEstimate, float]:
    """Estimate ``gain(M, G) = P^M(G) − P^D(G)``.

    Direct voting is computed exactly, so the gain estimate inherits only
    the mechanism-sampling uncertainty.  Returns
    ``(gain, mechanism_estimate, direct_probability)``.  The
    ``exact_conditional``, adaptive (``target_se``/``max_rounds``),
    persistence (``cache``) and shared ``estimator`` knobs are forwarded
    to :func:`estimate_correct_probability`.
    """
    from repro.voting.exact import direct_voting_probability

    direct = direct_voting_probability(instance.competencies, tie_policy)
    est = estimate_correct_probability(
        instance,
        mechanism,
        rounds=rounds,
        seed=seed,
        tie_policy=tie_policy,
        exact_conditional=exact_conditional,
        engine=engine,
        n_jobs=n_jobs,
        target_se=target_se,
        max_rounds=max_rounds,
        cache=cache,
        estimator=estimator,
    )
    return est.probability - direct, est, direct
