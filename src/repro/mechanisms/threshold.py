"""Algorithm 1: approval-set-size threshold delegation.

Voter ``v_i`` counts its approved neighbours; if the count reaches the
threshold ``j(deg)`` (a function of the neighbourhood size — on the
complete graph the neighbourhood size is ``n - 1 ≈ n``), it delegates to
a uniformly random approved neighbour, otherwise it votes directly.

Theorem 2 proves this mechanism achieves SPG and DNH on complete graphs;
the threshold should satisfy ``j(n) ∈ o(n)`` but grow with ``n`` — large
enough that delegation never concentrates on a handful of experts, small
enough that most voters delegate.
"""

from __future__ import annotations
# reprolint: sparse-safe

from typing import Callable, Optional, Union

import numpy as np

from repro.core.instance import LocalView, ProblemInstance
from repro.mechanisms.base import UniformApprovedDelegation

ThresholdFn = Callable[[int], float]


class _ConstantThreshold:
    """Degree-independent threshold.

    A class rather than a closure so that mechanisms built from constant
    thresholds stay picklable — the batched Monte Carlo engine ships the
    mechanism to worker processes when ``n_jobs > 1``.
    """

    __slots__ = ("value",)

    def __init__(self, value: float) -> None:
        self.value = value

    def __call__(self, _deg: int) -> float:
        return self.value

    def __repr__(self) -> str:
        return repr(self.value)


def _as_threshold_fn(threshold: Union[int, float, ThresholdFn]) -> ThresholdFn:
    if callable(threshold):
        return threshold
    return _ConstantThreshold(float(threshold))


class ApprovalThreshold(UniformApprovedDelegation):
    """Algorithm 1 with threshold ``j``.

    Parameters
    ----------
    threshold:
        Either a constant or a function ``j(num_neighbors) -> float``.
        The voter delegates iff ``|approved| >= j(num_neighbors)``.
        Common paper-motivated choices: ``lambda n: n ** (1/3)`` or
        ``lambda n: math.log2(n + 1)`` (both ``o(n)``).
    """

    def __init__(self, threshold: Union[int, float, ThresholdFn]) -> None:
        self._threshold = _as_threshold_fn(threshold)
        self._label = (
            getattr(threshold, "__name__", "fn")
            if callable(threshold)
            else repr(threshold)
        )

    @property
    def name(self) -> str:
        return f"approval-threshold(j={self._label})"

    def threshold_at(self, num_neighbors: int) -> float:
        """The numeric threshold ``j`` applied at this neighbourhood size."""
        return float(self._threshold(num_neighbors))

    def cache_token(self, instance: ProblemInstance):
        """Behavioural token: the threshold evaluated per distinct degree.

        The sampled forest distribution depends on the threshold only
        through its values at the instance's degrees, so tokenising
        those keeps lambda-thresholded mechanisms cacheable (and lets
        distinct callables computing the same ``j`` share entries).
        """
        degrees = np.unique(instance.approval_structure().degrees)
        pairs = tuple(
            (int(d), self.threshold_at(int(d))) for d in degrees
        )
        return (type(self).__qualname__, pairs)

    def should_delegate(self, view: LocalView) -> bool:
        return view.approval_count >= self.threshold_at(view.num_neighbors)

    def _movers(
        self, compiled, voters: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Voters whose approved count reaches ``j(degree)`` (and is non-zero).

        A constant threshold is one float for every degree and is
        compared directly; a callable one is evaluated once per distinct
        degree (per call: its identity has no stable token to memoise
        by) and gathered per voter.
        """
        counts = compiled.approved_counts
        if isinstance(self._threshold, _ConstantThreshold):
            if voters is not None:
                counts = counts[voters]
            return (counts > 0) & (counts >= self._threshold.value)
        unique_degrees, inverse = compiled.unique_degrees()
        if voters is not None:
            counts, inverse = counts[voters], inverse[voters]
        per_degree = np.array(
            [self.threshold_at(int(d)) for d in unique_degrees], dtype=float
        )
        return (counts > 0) & (counts >= per_degree[inverse])


class RandomApproved(ApprovalThreshold):
    """Delegate whenever *any* neighbour is approved (threshold 1).

    The maximally eager local mechanism.  On a star with a competent hub
    this is exactly the Figure 1 counterexample: every leaf delegates to
    the hub, voting power collapses onto one voter, and DNH fails.
    """

    def __init__(self) -> None:
        super().__init__(1)

    @property
    def name(self) -> str:
        return "random-approved"
