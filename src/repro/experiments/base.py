"""Experiment result/record types and the experiment registry."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro._util.tables import render_table

_T = TypeVar("_T")
_R = TypeVar("_R")

@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment knobs.

    ``scale`` selects the parameter grid: ``"smoke"`` runs in seconds for
    CI/benchmarks, ``"default"`` in tens of seconds, ``"full"`` is the
    EXPERIMENTS.md configuration.  ``n_jobs`` selects how many grid
    points the runners evaluate concurrently on a thread pool.  Every
    grid point derives its stream from its *index*, so results are
    identical for every ``n_jobs``.

    ``target_se`` switches every estimate the runners take to adaptive
    precision (see :func:`repro.voting.montecarlo.
    estimate_correct_probability`); ``cache_dir`` — when set — persists
    estimates in an on-disk :class:`repro.cache.EstimateCache`, so
    re-running a sweep skips already-computed grid points and
    interrupted runs resume.
    """

    seed: int = 0
    scale: str = "default"
    n_jobs: int = 1
    target_se: Optional[float] = None
    cache_dir: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale not in ("smoke", "default", "full"):
            raise ValueError(
                f"scale must be smoke/default/full, got {self.scale!r}"
            )
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be >= 1, got {self.n_jobs}")
        if self.target_se is not None and not self.target_se > 0:
            raise ValueError(
                f"target_se must be positive, got {self.target_se}"
            )

    def pick(self, smoke: Any, default: Any, full: Any) -> Any:
        """Select a value by the configured scale."""
        return {"smoke": smoke, "default": default, "full": full}[self.scale]

    def estimate_cache(self):
        """A fresh :class:`repro.cache.EstimateCache`, or ``None``.

        Cache objects are cheap handles — all state lives on disk under
        ``cache_dir`` — so runners construct one per call and share the
        store.
        """
        if self.cache_dir is None:
            return None
        from repro.cache import EstimateCache

        return EstimateCache(self.cache_dir)

    def estimator_kwargs(self) -> Dict[str, Any]:
        """The Monte Carlo knobs runners forward to every estimate.

        Bundles the adaptive ``target_se`` and the persistent cache so
        that each grid point's estimate call is
        ``estimate(..., **config.estimator_kwargs())``.
        """
        kwargs: Dict[str, Any] = {}
        if self.target_se is not None:
            kwargs["target_se"] = self.target_se
        cache = self.estimate_cache()
        if cache is not None:
            kwargs["cache"] = cache
        return kwargs

    def parallel_map(
        self, fn: Callable[[_T], _R], items: Sequence[_T]
    ) -> List[_R]:
        """Map ``fn`` over ``items`` concurrently when ``n_jobs > 1``.

        Results keep input order.  Threads suffice: grid points spend
        their time inside NumPy kernels that release the GIL, and any
        local function works.  ``fn`` must not share mutable state across
        items.  With ``n_jobs == 1`` this is a plain loop, so the
        sequential path has zero overhead and identical tracebacks.
        """
        if self.n_jobs == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        workers = min(self.n_jobs, len(items))
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))


@dataclass
class ExperimentResult:
    """A reproduced table: id, claim, headers and rows.

    ``claim`` states the *shape* the paper predicts; ``observations``
    collects one-line measured findings appended by the runner so that
    EXPERIMENTS.md can quote paper-vs-measured directly.
    """

    experiment_id: str
    title: str
    claim: str
    headers: Sequence[str]
    rows: List[Sequence[Any]]
    observations: List[str] = field(default_factory=list)
    seed: int = 0
    scale: str = "default"

    def to_table(self, precision: int = 4) -> str:
        """Render the result as an ASCII table with header and notes."""
        lines = [
            f"[{self.experiment_id}] {self.title} (seed={self.seed}, scale={self.scale})",
            f"paper claim: {self.claim}",
            render_table(self.headers, self.rows, precision=precision),
        ]
        for obs in self.observations:
            lines.append(f"observed: {obs}")
        return "\n".join(lines)

    def column(self, name: str) -> List[Any]:
        """Extract one column by header name."""
        try:
            idx = list(self.headers).index(name)
        except ValueError:
            raise KeyError(
                f"no column {name!r}; available: {list(self.headers)}"
            ) from None
        return [row[idx] for row in self.rows]


Runner = Callable[[ExperimentConfig], ExperimentResult]

_REGISTRY: Dict[str, Tuple[str, Runner]] = {}


def register_experiment(experiment_id: str, title: str) -> Callable[[Runner], Runner]:
    """Decorator registering ``runner`` under ``experiment_id``."""

    def decorate(runner: Runner) -> Runner:
        if experiment_id in _REGISTRY:
            raise ValueError(f"experiment id {experiment_id!r} already registered")
        _REGISTRY[experiment_id] = (title, runner)
        return runner

    return decorate


def get_experiment(experiment_id: str) -> Runner:
    """Look up a registered experiment runner by id."""
    try:
        return _REGISTRY[experiment_id][1]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {sorted(_REGISTRY)}"
        ) from None


def list_experiments() -> List[Tuple[str, str]]:
    """All registered ``(id, title)`` pairs, sorted by id."""
    return sorted((eid, title) for eid, (title, _) in _REGISTRY.items())
