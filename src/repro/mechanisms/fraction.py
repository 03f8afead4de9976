"""Theorem 5's mechanism: delegate when a fraction of neighbours approve.

"Let M be a delegation mechanism where a voter delegates if at least half
of its neighbors are approved."  On bounded-minimal-degree graphs
(``δ ≥ n^ε``) this achieves SPG and DNH.  The fraction is a parameter
(default ½) so ablations can sweep it.
"""

from __future__ import annotations
# reprolint: sparse-safe

from typing import Optional

import numpy as np

from repro._util.validation import check_fraction
from repro.core.instance import LocalView, ProblemInstance
from repro.mechanisms.base import UniformApprovedDelegation


class FractionApproved(UniformApprovedDelegation):
    """Delegate iff ``|approved| >= fraction * num_neighbors``.

    Delegation target is a uniformly random approved neighbour.
    """

    def __init__(self, fraction: float = 0.5) -> None:
        self._fraction = check_fraction("fraction", fraction)

    @property
    def name(self) -> str:
        return f"fraction-approved({self._fraction})"

    @property
    def fraction(self) -> float:
        """The neighbourhood fraction that must be approved."""
        return self._fraction

    def cache_token(self, instance: ProblemInstance):
        """Behavioural token: the fraction is the only free parameter."""
        return (type(self).__qualname__, self._fraction)

    def should_delegate(self, view: LocalView) -> bool:
        if view.num_neighbors == 0:
            return False
        return view.approval_count >= self._fraction * view.num_neighbors

    def _movers(
        self, compiled, voters: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Voters with ``0 < |approved| >= fraction * degree``."""
        degrees, counts = compiled.degrees, compiled.approved_counts
        if voters is not None:
            degrees, counts = degrees[voters], counts[voters]
        return (counts > 0) & (degrees > 0) & (counts >= self._fraction * degrees)
