"""Incremental exact tails: a cached Poisson-binomial merge tree.

The exact engine's per-round value is the tail of ``Σ w_i · Bern(p_i)``
over the round's sinks.  The delta session materialises that PMF as a
fixed complete binary **merge tree** over voter-index blocks: leaf ``b``
is the weighted-Bernoulli PMF of the voters in block ``b``
(:func:`repro.voting.exact.weighted_bernoulli_pmf`), and each internal
node is the convolution of its children.  The tree shape is a pure
function of ``(n, n_blocks)``, so the bracketing of the floating-point
convolutions — and therefore the value, bit for bit — is canonical.

After an edit, only blocks containing a voter whose ``(weight,
competency)`` pair changed are dirty; :func:`pmf_tree_delta` recomputes
the dirtied leaves and re-merges just their root paths, reusing every
clean node's cached array unchanged.  Re-merged nodes see bitwise-equal
children and apply the identical merge, so a patched tree equals a
scratch build node by node (pinned by
:func:`_reference_pmf_tree_delta`, reprolint K403).

Node merges use the exact engine's one merge rule
(:func:`repro.voting.exact._convolve`): direct convolution for short
operands, real FFT at a 5-smooth length above.  The branch depends only
on operand lengths, so a patched re-merge runs the same instructions as
a scratch build, and the re-merge path is O(n log n · log blocks), so
dirty-path patching beats a scratch rebuild even though the root merge
is always on the path.
"""

from __future__ import annotations

from operator import setitem
from typing import List, Optional, Sequence

import numpy as np

from repro.voting.exact import _convolve, weighted_bernoulli_pmf


def default_blocks(n: int) -> int:
    """Canonical block count for ``n`` voters: a power of two, ≥1.

    Aims at leaves of ~64 voters, capped at 256 blocks — a pure function
    of ``n`` so every session over the same instance agrees on the tree
    shape (the determinism contract's bracketing).
    """
    if n <= 64:
        return 1
    target = min(256, n // 64)
    return 1 << (target.bit_length() - 1)


def block_bounds(n: int, n_blocks: int) -> np.ndarray:
    """Voter-index boundaries of the ``n_blocks`` leaves (len ``n_blocks+1``)."""
    if n_blocks < 1 or n_blocks & (n_blocks - 1):
        raise ValueError(f"n_blocks must be a positive power of two, got {n_blocks}")
    return np.linspace(0, n, n_blocks + 1).astype(np.int64)


def _leaf_pmf(weights: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """PMF of one block's sinks (support ``0 .. Σ weights`` in the block)."""
    active = weights > 0
    if not active.any():
        return np.ones(1)
    return weighted_bernoulli_pmf(weights[active], probs[active])


def pmf_tree_build(
    weights: np.ndarray, probs: np.ndarray, bounds: np.ndarray
) -> List[List[np.ndarray]]:
    """Build the full merge tree: ``levels[0]`` leaves … ``levels[-1]`` root."""
    leaves = [
        _leaf_pmf(weights[bounds[b] : bounds[b + 1]], probs[bounds[b] : bounds[b + 1]])
        for b in range(len(bounds) - 1)
    ]
    levels = [leaves]
    while len(levels[-1]) > 1:
        prev = levels[-1]
        levels.append(
            [_convolve(prev[2 * i], prev[2 * i + 1]) for i in range(len(prev) // 2)]
        )
    return levels


# reprolint: reference=_reference_pmf_tree_delta
def pmf_tree_delta(
    levels: List[List[np.ndarray]],
    weights: np.ndarray,
    probs: np.ndarray,
    bounds: np.ndarray,
    dirty_cols: np.ndarray,
    undo: Optional[list] = None,
) -> List[List[np.ndarray]]:
    """Re-merge only the dirtied root paths of a cached merge tree.

    ``levels`` is the pre-edit tree; ``weights``/``probs`` the post-edit
    per-voter arrays; ``dirty_cols`` the voters whose ``(weight, p)``
    pair changed.  Mutates ``levels`` in place (and returns it): dirty
    leaves are rebuilt from their block's current data, then each level
    re-merges exactly the nodes with a dirty child.  Clean nodes keep
    their cached arrays — bitwise identical to a scratch
    :func:`pmf_tree_build` because the recomputed nodes see equal inputs
    and apply the identical merge.  With ``undo``, each replaced node is
    first appended as ``(setitem, nodes, index, old)``; calling
    ``setitem(nodes, index, old)`` puts it back.
    """
    if len(dirty_cols) == 0:
        return levels
    dirty = np.unique(np.searchsorted(bounds, dirty_cols, side="right") - 1)
    for b in dirty:
        if undo is not None:
            undo.append((setitem, levels[0], b, levels[0][b]))
        levels[0][b] = _leaf_pmf(
            weights[bounds[b] : bounds[b + 1]], probs[bounds[b] : bounds[b + 1]]
        )
    for level in range(1, len(levels)):
        dirty = np.unique(dirty // 2)
        prev = levels[level - 1]
        for i in dirty:
            if undo is not None:
                undo.append((setitem, levels[level], i, levels[level][i]))
            levels[level][i] = _convolve(prev[2 * i], prev[2 * i + 1])
    return levels


def _reference_pmf_tree_delta(
    weights: np.ndarray, probs: np.ndarray, bounds: np.ndarray
) -> List[List[np.ndarray]]:
    """From-scratch oracle: rebuild the whole tree from current data."""
    return pmf_tree_build(weights, probs, bounds)


def tree_root(levels: Sequence[Sequence[np.ndarray]]) -> np.ndarray:
    """The root PMF of a merge tree."""
    return levels[-1][0]
