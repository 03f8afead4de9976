"""Incremental delta estimation: patch, don't recompute, on delegation churn.

Live-election traffic is long chains of small edits — a voter rewires an
approval edge, updates a competency, joins or leaves — against a large,
otherwise-static instance.  Re-estimating from scratch after each edit
re-resolves the whole forest and re-runs the full value pipeline; this
package instead retains the estimation state of a
:class:`~repro.incremental.session.DeltaSession` and patches exactly the
parts an edit can reach:

* the instance itself (CSR adjacency and approval-structure splicing,
  :mod:`repro.incremental.structure`),
* the per-round delegate matrix (mechanism subset kernels over retained
  uniforms),
* the resolved forests (restricted pointer doubling over the affected
  set, :mod:`repro.incremental.forest`),
* the per-round values (integer correct-weight deltas for the Monte
  Carlo engine, computed inline by the session's patch; dirty-path
  re-merge of a cached Poisson-binomial merge tree for the exact
  engine, :mod:`repro.incremental.tails`).

Every patched quantity is pinned bit-identical to a from-scratch rebuild
of the same session on the final instance — the package-wide determinism
contract, enforced by `_reference` oracles (reprolint K403) and the
property suite in ``tests/test_incremental.py``.
"""

from repro.incremental.edits import (
    Edit,
    Join,
    Leave,
    Rewire,
    SetCompetency,
    edit_chain_digest,
    edit_from_dict,
    edit_to_dict,
    invert_batch,
)
from repro.incremental.session import DeltaSession

__all__ = [
    "DeltaSession",
    "Edit",
    "Join",
    "Leave",
    "Rewire",
    "SetCompetency",
    "edit_chain_digest",
    "edit_from_dict",
    "edit_to_dict",
    "invert_batch",
]
