"""Exact correct-decision probabilities via weight-sum dynamic programming.

For a fixed delegation forest the number of correct votes is a *weighted*
sum of independent Bernoullis — one per sink, scaled by the sink's weight.
Its distribution lives on the integers ``0 .. n``, so an exact
convolution over sink weights computes the exact tail probability.
Direct voting is the special case where every weight is 1 (the classical
Poisson binomial).

These exact routines are the backbone of the benchmark harness: DNH
losses shrink polynomially in ``n``, far below Monte Carlo noise floors,
so measuring them requires exact conditional probabilities.

Performance architecture (see ``docs/performance.md``):

* :func:`poisson_binomial_pmf` is a divide-and-conquer merge tree.  The
  per-Bernoulli length-2 PMFs are merged pairwise in vectorised batches
  while blocks are short, then the surviving long blocks are merged with
  ``np.convolve`` — no per-element Python iteration anywhere.
* :func:`weighted_bernoulli_pmf` buckets sinks by weight: each distinct
  weight's sinks collapse into one Poisson-binomial pass (the weight-1
  majority is a single pass), the bucket PMF is stretched onto the
  ``w``-spaced lattice, and buckets are merged by convolution.
* The original quadratic loops are retained as ``_reference_*`` and the
  randomized equivalence suite (``tests/test_perf_kernels.py``) pins the
  fast kernels to them at ≤1e-12 absolute error.
"""

from __future__ import annotations

import heapq
from functools import lru_cache
from math import erf, sqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro._util.validation import check_probability_vector
from repro.delegation.graph import DelegationGraph
from repro.voting.outcome import TiePolicy

_DP_CUTOFF = 64
"""Input size below which the plain DP beats the merge tree (overhead)."""

_TREE_MIN_BLOCKS = 16
"""Block count at which batched pair merging yields to ``np.convolve``."""


def _reference_poisson_binomial_pmf(probs: Sequence[float]) -> np.ndarray:
    """Seed implementation: iterative convolution, O(n²) time.

    Kept as the equivalence-test oracle for :func:`poisson_binomial_pmf`.
    """
    p = check_probability_vector("probs", probs) if len(probs) else np.empty(0)
    pmf = np.zeros(len(p) + 1)
    pmf[0] = 1.0
    for k, pi in enumerate(p):
        # After processing k variables only entries 0..k are non-zero.
        upper = k + 1
        pmf[1 : upper + 1] = pmf[1 : upper + 1] * (1.0 - pi) + pmf[:upper] * pi
        pmf[0] *= 1.0 - pi
    return pmf


def _pb_dp(p: np.ndarray) -> np.ndarray:
    """Plain iterative DP — fastest below :data:`_DP_CUTOFF` elements."""
    pmf = np.zeros(len(p) + 1)
    pmf[0] = 1.0
    for k, pi in enumerate(p):
        pmf[1 : k + 2] = pmf[1 : k + 2] * (1.0 - pi) + pmf[: k + 1] * pi
        pmf[0] *= 1.0 - pi
    return pmf


def _grouped_pb(groups: List[np.ndarray]) -> List[np.ndarray]:
    """Poisson-binomial PMFs of several groups via one batched merge tree.

    Each group is padded with ``p = 0`` Bernoullis (convolution
    identities) to a common power-of-two width, so batched pair merges
    stay inside group boundaries at every level.  Padding entries leave
    exact zeros beyond a group's true support, which the final slice
    removes — no approximation is introduced.
    """
    sizes = [len(g) for g in groups]
    num_groups = len(groups)
    width = 1 << max(0, max(sizes) - 1).bit_length()
    padded = np.zeros((num_groups, width))
    for row, group in enumerate(groups):
        padded[row, : len(group)] = group
    if width == 1:
        blocks = np.empty((num_groups, 2))
        blocks[:, 0] = 1.0 - padded.ravel()
        blocks[:, 1] = padded.ravel()
    else:
        # First merge level in closed form: the product of two length-2
        # PMFs is a length-3 PMF, cheaper as three ufunc lines than as a
        # batched convolution over 2x as many rows.
        pp = padded.reshape(num_groups * width // 2, 2)
        qq = 1.0 - pp
        blocks = np.empty((num_groups * width // 2, 3))
        blocks[:, 0] = qq[:, 0] * qq[:, 1]
        blocks[:, 1] = pp[:, 0] * qq[:, 1] + qq[:, 0] * pp[:, 1]
        blocks[:, 2] = pp[:, 0] * pp[:, 1]
    while blocks.shape[0] > max(num_groups, _TREE_MIN_BLOCKS):
        blocks = _convolve_pairs(blocks)
    per_group = blocks.shape[0] // num_groups
    out = []
    for row, size in enumerate(sizes):
        rows = blocks[row * per_group : (row + 1) * per_group]
        pmf = _merge_pmfs(list(rows)) if per_group > 1 else rows[0]
        out.append(pmf[: size + 1])
    return out


def _convolve_pairs(blocks: np.ndarray) -> np.ndarray:
    """One merge level: convolve blocks ``2i`` and ``2i+1`` in a batch.

    ``blocks`` is ``(m, L)`` with even ``m``; returns ``(m/2, 2L-1)``.
    The pairwise polynomial products collapse into a single einsum over
    a sliding-window (Toeplitz) view of the zero-padded right factors.
    Width 3 (the first ladder level, with the most rows) expands the
    five product coefficients explicitly — measurably faster than the
    strided-view einsum at that size.
    """
    m, length = blocks.shape
    left = blocks[0::2]
    if length == 3:
        right = blocks[1::2]
        out = np.empty((m // 2, 5))
        out[:, 0] = left[:, 0] * right[:, 0]
        out[:, 1] = left[:, 0] * right[:, 1] + left[:, 1] * right[:, 0]
        out[:, 2] = (
            left[:, 0] * right[:, 2]
            + left[:, 1] * right[:, 1]
            + left[:, 2] * right[:, 0]
        )
        out[:, 3] = left[:, 1] * right[:, 2] + left[:, 2] * right[:, 1]
        out[:, 4] = left[:, 2] * right[:, 2]
        return out
    out_len = 2 * length - 1
    padded = np.zeros((m // 2, 3 * length - 2))
    padded[:, length - 1 : out_len] = blocks[1::2]
    s0, s1 = padded.strides
    # windows[i, k, j] = padded[i, length-1 + k - j] = right[i, k - j]
    # (a raw strided Toeplitz view: sliding_window_view's checks cost
    # more than the einsum at these block sizes).
    windows = as_strided(
        padded[:, length - 1 :],
        shape=(m // 2, out_len, length),
        strides=(s0, s1, -s1),
    )
    return np.einsum("mj,mkj->mk", left, windows)


def _merge_pmfs(pmfs: List[np.ndarray]) -> np.ndarray:
    """Convolve a list of PMFs with balanced pairwise ``np.convolve``."""
    pmfs = sorted(pmfs, key=len)
    while len(pmfs) > 1:
        pmfs = [
            np.convolve(pmfs[i], pmfs[i + 1]) if i + 1 < len(pmfs) else pmfs[i]
            for i in range(0, len(pmfs), 2)
        ]
    return pmfs[0]


def _pb_unchecked(p: np.ndarray) -> np.ndarray:
    """Poisson-binomial PMF of pre-validated ``p``; see the public docs."""
    n = len(p)
    if n == 0:
        return np.ones(1)
    if n <= _DP_CUTOFF:
        return _pb_dp(p)
    return _grouped_pb([p])[0]


def poisson_binomial_pmf(probs: Sequence[float]) -> np.ndarray:
    """PMF of the sum of independent Bernoulli(p_i) variables.

    Returns an array of length ``n + 1`` where entry ``k`` is
    ``P[sum = k]``.  Divide-and-conquer convolution merge tree: length-2
    PMFs are merged pairwise in vectorised batches while many blocks
    remain, then the few surviving long blocks are merged with
    ``np.convolve``.  All arithmetic is plain summation of non-negative
    doubles, so the result matches :func:`_reference_poisson_binomial_pmf`
    to machine precision (the equivalence suite pins it at ≤1e-12).
    """
    p = check_probability_vector("probs", probs) if len(probs) else np.empty(0)
    return _pb_unchecked(p)


def _reference_weighted_bernoulli_pmf(
    weights: Sequence[int], probs: Sequence[float]
) -> np.ndarray:
    """Seed implementation: shift-and-add DP, O(#sinks · n) time.

    Kept as the equivalence-test oracle for :func:`weighted_bernoulli_pmf`.
    """
    if len(weights) != len(probs):
        raise ValueError("weights and probs must have equal length")
    w = np.asarray(weights, dtype=np.int64)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    p = check_probability_vector("probs", probs) if len(probs) else np.empty(0)
    total = int(w.sum())
    pmf = np.zeros(total + 1)
    pmf[0] = 1.0
    filled = 0  # highest reachable weight so far
    for wi, pi in zip(w, p):
        wi = int(wi)
        if wi == 0:
            continue
        new = pmf[: filled + 1] * (1.0 - pi)
        shifted = pmf[: filled + 1] * pi
        filled += wi
        pmf[: filled + 1 - wi] = new
        pmf[filled + 1 - wi : filled + 1] = 0.0
        pmf[wi : filled + 1] += shifted
    return pmf


def weighted_bernoulli_pmf(
    weights: Sequence[int], probs: Sequence[float]
) -> np.ndarray:
    """PMF of ``Σ w_i · Bernoulli(p_i)`` on support ``0 .. Σ w_i``.

    Sinks are bucketed by weight: each distinct weight ``w`` contributes
    ``w · PoissonBinomial(probs in bucket)``, whose PMF is the bucket's
    Poisson-binomial PMF stretched onto the ``w``-spaced lattice.  The
    weight-1 majority therefore collapses into a single fast
    Poisson-binomial pass, and bucket PMFs are merged by convolution
    (smallest first, to keep operand lengths short).
    """
    if len(weights) != len(probs):
        raise ValueError("weights and probs must have equal length")
    w = np.asarray(weights, dtype=np.int64)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    p = check_probability_vector("probs", probs) if len(probs) else np.empty(0)
    total = int(w.sum())
    active = w > 0
    if not np.any(active):
        out = np.zeros(total + 1)
        out[0] = 1.0
        return out
    w = w[active]
    p = p[active]
    order = np.argsort(w, kind="stable")
    unique_weights, starts = np.unique(w[order], return_index=True)
    groups = np.split(p[order], starts[1:])
    # One batched merge tree covers every small bucket; the rare huge
    # bucket (e.g. all-weight-1 direct voting) goes through alone so its
    # width does not inflate the shared padding.
    small = [i for i, g in enumerate(groups) if len(g) <= _DP_CUTOFF]
    base_pmfs: List = [None] * len(groups)
    if len(small) == 1:
        base_pmfs[small[0]] = _pb_dp(groups[small[0]])
    elif small:
        for i, pmf in zip(small, _grouped_pb([groups[i] for i in small])):
            base_pmfs[i] = pmf
    for i, g in enumerate(groups):
        if base_pmfs[i] is None:
            base_pmfs[i] = _pb_unchecked(g)
    buckets = []
    for wv, base in zip(unique_weights, base_pmfs):
        wv = int(wv)
        if wv == 1:
            buckets.append(base)
        else:
            stretched = np.zeros(wv * (len(base) - 1) + 1)
            stretched[::wv] = base
            buckets.append(stretched)
    # Support is exactly 0..total by construction.
    return _merge_pmfs(buckets)


def tail_from_pmf(
    pmf: np.ndarray, total_weight: int, tie_policy: TiePolicy = TiePolicy.INCORRECT
) -> float:
    """P[correct] from a PMF of the correct-vote weight.

    Correct wins iff correct weight strictly exceeds ``total_weight / 2``;
    an exact tie (possible only for even totals) contributes according to
    ``tie_policy``.
    """
    if len(pmf) != total_weight + 1:
        raise ValueError(
            f"pmf length {len(pmf)} does not match total weight {total_weight}"
        )
    half, rem = divmod(total_weight, 2)
    win = float(pmf[half + 1 :].sum())
    if rem == 0 and tie_policy is TiePolicy.COIN_FLIP:
        win += 0.5 * float(pmf[half])
    return min(1.0, win)


def direct_voting_probability(
    competencies: Sequence[float], tie_policy: TiePolicy = TiePolicy.INCORRECT
) -> float:
    """Exact ``P^D(G)``: probability direct voting decides correctly."""
    p = check_probability_vector("competencies", competencies)
    pmf = poisson_binomial_pmf(p)
    return tail_from_pmf(pmf, len(p), tie_policy)


class DirectVotingTerm:
    """``P^D`` of a fixed competency vector, re-scored under small edits.

    Built once from :func:`poisson_binomial_pmf` and :func:`tail_from_pmf`,
    so :attr:`probability` is bitwise :func:`direct_voting_probability`.
    :meth:`probability_delta` then scores a hypothetical electorate —
    one voter's competency changed, some voters appended — in O(n) per
    edit from the cached PMF, without a merge-tree rebuild.  Its values
    agree with a rebuild to ~1e-16 absolute, not bitwise: callers that
    publish a number re-derive it from a fresh term.
    """

    def __init__(
        self,
        competencies: Sequence[float],
        tie_policy: TiePolicy = TiePolicy.INCORRECT,
    ) -> None:
        # A snapshot: the cached PMF must not drift from the vector.
        self.competencies = check_probability_vector("competencies", competencies).copy()
        self.tie_policy = tie_policy
        self.pmf = poisson_binomial_pmf(self.competencies)
        self.probability = tail_from_pmf(self.pmf, len(self.competencies), tie_policy)

    # reprolint: reference=direct_voting_probability
    def probability_delta(
        self,
        competency: Optional[Tuple[int, float]] = None,
        joins: Sequence[float] = (),
    ) -> float:
        """``P^D`` after appending ``joins`` and setting one competency.

        ``competency`` is ``(voter, q)`` for a voter of the committed
        vector.  Each join convolves the PMF with ``(1 - c, c)``.  The
        competency change uses that ``P^D`` is affine in one voter's
        competency: ``P' = P + (q - p_v) · D_v``, where ``D_v`` is the
        leave-one-out PMF at the majority threshold (the mean of the two
        entries around it for a coin-flipped tie at even ``n``).
        """
        pmf, probability = self.pmf, self.probability
        for c in joins:
            pmf = np.convolve(pmf, (1.0 - c, c))
        n = len(pmf) - 1
        if len(joins):
            probability = tail_from_pmf(pmf, n, self.tie_policy)
        if competency is None:
            return probability
        voter, q = competency
        p = float(self.competencies[voter])
        half = n // 2
        if n % 2 == 0 and self.tie_policy is TiePolicy.COIN_FLIP:
            slope = 0.5 * (_leave_one_out(pmf, p, half - 1) + _leave_one_out(pmf, p, half))
        else:
            slope = _leave_one_out(pmf, p, half)
        return min(1.0, max(0.0, probability + (q - p) * slope))


def _leave_one_out(pmf: np.ndarray, p: float, j: int) -> float:
    """Entry ``j`` of ``pmf`` with one Bernoulli(``p``) factor divided out.

    ``pmf = g * (1 - p, p)`` unrolls into a geometric series in
    ``r = p / (1 - p)``: forward, ``g_j = Σ_m (-r)^m pmf_{j-m} / (1 - p)``;
    backward, ``g_j = Σ_m (-1/r)^m pmf_{j+1+m} / p``.  The direction with
    ratio at most 1 in magnitude is taken, so the alternating series never
    amplifies the PMF's rounding error.
    """
    if p <= 0.5:
        kernel = (-p / (1.0 - p)) ** np.arange(j + 1)
        return float(np.dot(pmf[j::-1], kernel)) / (1.0 - p)
    tail = pmf[j + 1 :]
    kernel = (-(1.0 - p) / p) ** np.arange(len(tail))
    return float(np.dot(tail, kernel)) / p


def forest_correct_probability(
    delegation: DelegationGraph,
    competencies: Sequence[float],
    tie_policy: TiePolicy = TiePolicy.INCORRECT,
) -> float:
    """Exact correct-decision probability for a fixed delegation forest.

    Conditions on the forest: each sink ``s`` votes correctly with
    probability ``p_s`` carrying weight ``w_s``; the decision is a strict
    weighted majority over total weight ``n``.
    """
    comp = np.asarray(competencies, dtype=float)
    if len(comp) != delegation.num_voters:
        raise ValueError(
            f"competency vector length {len(comp)} does not match "
            f"{delegation.num_voters} voters"
        )
    sinks = delegation.sink_indices
    pmf = weighted_bernoulli_pmf(delegation.sink_weight_array, comp[sinks])
    return tail_from_pmf(pmf, delegation.num_voters, tie_policy)


_EINSUM_MAX = 64
"""Pair-merge operand width below which the einsum kernel beats FFT."""


@lru_cache(maxsize=None)
def _smooth_fft_len(n: int) -> int:
    """Smallest 5-smooth integer ``>= n`` (a fast pocketfft length).

    Power-of-two padding to ``2n`` nearly doubles the transform size;
    mixed-radix lengths with factors {2, 3, 5} stay within ~5% of the
    minimum and measure >2x faster on the doubling-ladder shapes.
    """
    k = max(1, n)
    while True:
        m = k
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return k
        k += 1

_PIECE_LEN = 513
"""Doubling-ladder stop: wider bucket classes emit multiple PMF pieces."""


def _classed_pb_pieces(padded: np.ndarray, width: int) -> Tuple[np.ndarray, int]:
    """Batched Poisson-binomial PMFs over ``(m, width)`` padded prob rows.

    All ``m`` groups share the power-of-two pad width, so pair merges stay
    inside group boundaries at every ladder level (einsum batches below
    :data:`_EINSUM_MAX` operand width, batched-FFT doubling above).  The
    ladder stops at :data:`_PIECE_LEN`-wide blocks: the return is
    ``(pieces, n_pieces)`` where group ``g``'s PMF is the convolution of
    rows ``g * n_pieces .. (g + 1) * n_pieces - 1`` of ``pieces`` —
    ``n_pieces == 1`` except for very wide classes, whose final merges are
    cheaper in the caller's shared length-``L`` FFT finish.
    """
    m = padded.shape[0]
    if width == 1:
        out = np.empty((m, 2))
        out[:, 0] = 1.0 - padded[:, 0]
        out[:, 1] = padded[:, 0]
        return out, 1
    pp = padded.reshape(m * width // 2, 2)
    qq = 1.0 - pp
    blocks = np.empty((m * width // 2, 3))
    blocks[:, 0] = qq[:, 0] * qq[:, 1]
    blocks[:, 1] = pp[:, 0] * qq[:, 1] + qq[:, 0] * pp[:, 1]
    blocks[:, 2] = pp[:, 0] * pp[:, 1]
    while blocks.shape[0] > m and blocks.shape[1] < _PIECE_LEN:
        blen = blocks.shape[1]
        if blen <= _EINSUM_MAX:
            blocks = _convolve_pairs(blocks)
        else:
            L = _smooth_fft_len(2 * blen - 1)
            spec = np.fft.rfft(blocks, n=L, axis=1)
            spec = spec[0::2] * spec[1::2]
            out = np.fft.irfft(spec, n=L, axis=1)[:, : 2 * blen - 1]
            np.maximum(out, 0.0, out=out)
            blocks = out
    return blocks, blocks.shape[0] // m


# reprolint: reference=_reference_weighted_bernoulli_pmf
def weighted_tails_batch(
    weights: np.ndarray,
    probs: np.ndarray,
    total: int,
    merge_flop_limit: int = 50_000,
) -> Tuple[np.ndarray, np.ndarray]:
    """Strict-majority win probabilities for a batch of sink profiles.

    ``weights`` is a ``(rounds, S)`` integer matrix of sink weights
    (zero entries are ignored, so ragged per-round sink sets fit in one
    rectangular matrix); ``probs`` the matching competencies (``(S,)``
    broadcasts across rounds).  Every round's positive weights must sum
    to ``total`` — delegation conserves votes, and the truncation and
    wrap-correction algebra below relies on it to bound aliasing to the
    single top bin.  Returns ``(win_strict, tie_atom)`` where
    ``win_strict[r] = P[W_r > total / 2]`` and ``tie_atom[r] =
    P[W_r = total / 2]`` (identically zero for odd totals).

    This is the whole-batch counterpart of
    ``tail_from_pmf(weighted_bernoulli_pmf(w, p), total)`` — pinned
    bit-close (≤1e-12) to it by the equivalence suite.  The pipeline is
    described in ``docs/performance.md``:

    1. one cross-round stable argsort buckets every round's sinks by
       weight; bucket boundaries fall out of one flat comparison;
    2. bucket PMFs are computed in mega-batches grouped by power-of-two
       bucket size (:func:`_classed_pb_pieces`);
    3. bucket PMFs are stretched onto their ``w``-spaced lattices by one
       vectorised scatter into a flat buffer;
    4. per round, a shortest-first heap merges small lattice PMFs with
       direct convolution while the pair cost stays under
       ``merge_flop_limit``; the few surviving *finalists* are
    5. zero-padded into one matrix and multiplied in Fourier space at a
       shared length ``L``, and the half-point CDF and tie atom are read
       off with spectral dot products (no inverse transform).  For even
       totals ``L = total``: the only aliased product coefficient is the
       top one, which equals the product of finalist top coefficients
       and is subtracted exactly (it vanishes whenever truncation at
       ``half + 1`` occurred, since then the computed degrees sum below
       ``L``).
    """
    W = np.asarray(weights)
    if W.ndim != 2:
        raise ValueError("weights must be a (rounds, S) matrix")
    rounds, S = W.shape
    P = np.broadcast_to(np.asarray(probs, dtype=float), (rounds, S))
    if total <= 0:
        raise ValueError(f"total must be positive, got {total}")
    half = total // 2
    cap = half + 1
    even = total % 2 == 0
    if even:
        L = max(2, total)
    else:
        L = 1 << int(total).bit_length()
    # 0. factor out sinks whose weight (and competency) is constant
    # across the whole batch: their joint PMF is shared by every round,
    # so it is computed once with the per-profile kernel and multiplied
    # into each round's spectral product at the finish.  Mechanisms with
    # deterministic delegation conditions leave many sinks untouched
    # round over round, making this a large cut of the per-round work.
    shared: Optional[np.ndarray] = None
    if rounds > 1 and S > 1:
        const_cols = (W == W[0]).all(axis=0) & (W[0] > 0)
        if P.strides[0] != 0:
            const_cols &= (P == P[0]).all(axis=0)
        if int(const_cols.sum()) >= 16:
            wc = np.asarray(W[0, const_cols], dtype=np.int64)
            pc = np.ascontiguousarray(P[0, const_cols])
            if int(wc.sum()) + 1 <= L:
                var_cols = ~const_cols
                varW = np.ascontiguousarray(W[:, var_cols])
                if not (varW > 0).any():
                    # Every round is the same profile: one PMF decides all.
                    pmf = weighted_bernoulli_pmf(wc, pc)
                    strict = (
                        min(1.0, float(pmf[half + 1 :].sum()))
                        if len(pmf) > half + 1
                        else 0.0
                    )
                    atom = float(pmf[half]) if even and len(pmf) > half else 0.0
                    return np.full(rounds, strict), np.full(rounds, atom)
                if (varW > 0).any(axis=1).all():
                    shared = weighted_bernoulli_pmf(wc, pc)
                    W = varW
                    if P.strides[0] == 0:
                        P = np.broadcast_to(
                            np.ascontiguousarray(P[0, var_cols]),
                            varW.shape,
                        )
                    else:
                        P = np.ascontiguousarray(P[:, var_cols])
                    S = W.shape[1]
    # 1. bucket sinks by weight: one cross-round sort + flat boundaries.
    # Weights are bounded by ``total``, so narrow the sort key when it
    # fits — NumPy's stable argsort uses radix sort for 16-bit integers,
    # roughly an order of magnitude faster than comparison sort here.
    if total < 1 << 15:
        sort_key = W.astype(np.int16)
    elif total < 1 << 16:
        sort_key = W.astype(np.uint16)
    else:
        sort_key = W
    order = np.argsort(sort_key, axis=1, kind="stable")
    Wsort = np.take_along_axis(W, order, axis=1).astype(np.int64, copy=False)
    Psort = np.ascontiguousarray(np.take_along_axis(P, order, axis=1))
    flatW = Wsort.ravel()
    newseg = np.empty(rounds * S, dtype=bool)
    newseg[0] = True
    newseg[1:] = flatW[1:] != flatW[:-1]
    newseg[::S] = True
    seg_start = np.flatnonzero(newseg)
    seg_len = np.diff(np.append(seg_start, rounds * S))
    seg_w = flatW[seg_start]
    keep = seg_w > 0
    seg_start, seg_len, seg_w = seg_start[keep], seg_len[keep], seg_w[keep]
    # Split buckets wider than one ladder piece into chunks: a bucket of
    # 513+ sinks would otherwise be padded to the next power of two and
    # emitted as multiple pieces, paying for the padding; equal chunks
    # of at most ``_PIECE_LEN - 1`` leaves land in the cheapest size
    # class that fits and always complete to a single PMF piece.  The
    # chunks rejoin in the per-round merge like any other segment.
    maxlen = _PIECE_LEN - 1
    if seg_len.size and int(seg_len.max()) > maxlen:
        nch = -(-seg_len // maxlen)
        within = np.arange(int(nch.sum())) - np.repeat(
            np.cumsum(nch) - nch, nch
        )
        seg_start = np.repeat(seg_start, nch) + within * maxlen
        seg_len = np.minimum(np.repeat(seg_len, nch) - within * maxlen, maxlen)
        seg_w = np.repeat(seg_w, nch)
    seg_round = seg_start // S
    G = len(seg_start)
    present = np.zeros(rounds, dtype=bool)
    present[seg_round] = True
    if not present.all():
        missing = int(np.flatnonzero(~present)[0])
        raise ValueError(f"round {missing} has no positive sink weight")
    # 2. mega-batched bucket PMFs by power-of-two size class.
    cls = np.ones(G, dtype=np.int64)
    big = seg_len > 1
    cls[big] = 1 << (np.ceil(np.log2(seg_len[big])).astype(np.int64))
    pflat = Psort.ravel()
    plain_classes: List[Tuple[np.ndarray, np.ndarray]] = []
    multi: dict = {}
    for c in np.unique(cls):
        members = np.flatnonzero(cls == c)
        lens = seg_len[members]
        pos = np.arange(c)
        colmask = pos[None, :] < lens[:, None]
        src = seg_start[members][:, None] + pos[None, :]
        padded = np.zeros((len(members), c))
        padded[colmask] = pflat[src[colmask]]
        pieces, npc = _classed_pb_pieces(padded, int(c))
        if npc == 1:
            plain_classes.append((members, pieces))
        else:
            for k, g in enumerate(members):
                multi[int(g)] = pieces[k * npc : (k + 1) * npc]
    # 3. stretch single-piece bucket PMFs onto the weight lattice with
    # one masked scatter per size class (buf[seg_off[g] + w * j] = pmf[j]).
    plain = np.array(sorted(set(range(G)) - set(multi)), dtype=np.int64)
    out_len = np.minimum(seg_len[plain] * seg_w[plain] + 1, cap)
    n_pts = (out_len - 1) // seg_w[plain] + 1
    seg_off = np.concatenate(([0], np.cumsum(out_len)))
    buf = np.zeros(int(seg_off[-1]))
    plain_slot = np.full(G, -1, dtype=np.int64)
    plain_slot[plain] = np.arange(len(plain))
    for members, pieces in plain_classes:
        slots = plain_slot[members]
        pos = np.arange(pieces.shape[1])
        colmask = pos[None, :] < n_pts[slots][:, None]
        dst = seg_off[slots][:, None] + seg_w[members][:, None] * pos[None, :]
        buf[dst[colmask]] = pieces[colmask]
    # 4. per-round shortest-first direct merges under the flop limit.
    bounds = np.searchsorted(seg_round, np.arange(rounds + 1))
    finalists: List[Tuple[np.ndarray, bool]] = []
    fin_count = np.zeros(rounds, dtype=np.int64)
    fin_start: List[int] = []
    for r in range(rounds):
        heap = []
        nid = 0
        for g in range(int(bounds[r]), int(bounds[r + 1])):
            w = int(seg_w[g])
            slot = int(plain_slot[g])
            if slot >= 0:
                a = buf[seg_off[slot] : seg_off[slot] + out_len[slot]]
                capped = int(seg_len[g]) * w + 1 > cap
                heap.append((len(a), nid, a, capped))
                nid += 1
            else:
                pieces = multi[g]
                lpp = pieces.shape[1] - 1  # leaves per piece
                for i in range(pieces.shape[0]):
                    real = min(max(int(seg_len[g]) - i * lpp, 0), lpp)
                    base = pieces[i][: real + 1]
                    ln = min(real * w + 1, cap)
                    if w == 1:
                        a = base[:ln]
                    else:
                        a = np.zeros(ln)
                        a[::w] = base[: (ln - 1) // w + 1]
                    heap.append((len(a), nid, a, real * w + 1 > cap))
                    nid += 1
        heapq.heapify(heap)
        while len(heap) > 1:
            la, _, a, ca = heapq.heappop(heap)
            lb, _, b, cb = heapq.heappop(heap)
            if la * lb > merge_flop_limit:
                heap.append((la, nid, a, ca))
                heap.append((lb, nid + 1, b, cb))
                nid += 2
                heapq.heapify(heap)
                break
            c = np.convolve(a, b)
            capped = ca or cb
            if len(c) > cap:
                c = c[:cap]
                capped = True
            heapq.heappush(heap, (len(c), nid, c, capped))
            nid += 1
        fin_count[r] = len(heap)
        fin_start.append(len(finalists))
        for _, _, a, capped in sorted(heap, key=lambda t: (t[0], t[1])):
            finalists.append((a, capped))
    # 5. one shared-length FFT finish: rounds are laid out grouped by
    # finalist count so the spectral product is a plain reshape-prod.
    korder = np.argsort(fin_count, kind="stable")
    nfin = len(finalists)
    ordered = [
        finalists[fin_start[r] + i]
        for r in korder
        for i in range(int(fin_count[r]))
    ]
    lens = np.fromiter((len(a) for a, _ in ordered), dtype=np.int64, count=nfin)
    capped_row = np.fromiter(
        (c for _, c in ordered), dtype=bool, count=nfin
    )
    cat = np.concatenate([a for a, _ in ordered]) if ordered else np.empty(0)
    F = np.zeros((nfin, L))
    ends = np.cumsum(lens)
    within = np.arange(int(ends[-1]) if nfin else 0) - np.repeat(ends - lens, lens)
    F.ravel()[np.repeat(np.arange(nfin) * L, lens) + within] = cat
    # Per-round degree sums and top-coefficient products for the wrap
    # correction; any capped finalist voids the round's correction.
    row_round = np.repeat(korder, fin_count[korder])
    sum_deg = np.bincount(row_round, weights=lens - 1, minlength=rounds).astype(
        np.int64
    )
    prods = np.ones(rounds)
    np.multiply.at(prods, row_round, cat[ends - 1])
    round_capped = np.bincount(row_round, weights=capped_row, minlength=rounds) > 0
    prods[round_capped] = 0.0
    sum_deg[round_capped] = -1
    spec = np.fft.rfft(F, axis=1)
    nbins = L // 2 + 1
    prod_spec = np.empty((rounds, nbins), dtype=complex)
    kc = fin_count[korder]
    row = 0
    pos = 0
    for K in np.unique(kc):
        nk = int((kc == K).sum())
        block = spec[row : row + nk * int(K)].reshape(nk, int(K), nbins)
        prod_spec[korder[pos : pos + nk]] = block.prod(axis=1)
        row += nk * int(K)
        pos += nk
    if shared is not None:
        # The constant-column PMF joins every round as one more factor:
        # its spectrum multiplies in once, and its degree and top
        # coefficient extend the wrap-correction bookkeeping.
        prod_spec *= np.fft.rfft(shared, n=L)[None, :]
        uncapped = sum_deg >= 0
        sum_deg[uncapped] += len(shared) - 1
        prods *= shared[-1]
    # Spectral dot products: cdf(half) = <product, indicator>, tie atom =
    # pmf[half]; rfft bins 0 and L/2 count once, the rest twice.
    indicator = np.zeros(L)
    indicator[: half + 1] = 1.0
    ispec = np.conj(np.fft.rfft(indicator))
    wgt = np.full(nbins, 2.0)
    wgt[0] = 1.0
    if L % 2 == 0:
        wgt[-1] = 1.0
    cdf_half = (prod_spec * (wgt * ispec)[None, :]).real.sum(axis=1) / L
    wrap = np.where(sum_deg == L, prods, 0.0)
    cdf_half -= wrap
    win = np.clip(1.0 - cdf_half, 0.0, 1.0)
    if even:
        phase = np.exp(2j * np.pi * np.arange(nbins) * (half / L))
        atom_w = wgt * phase
        atom = (prod_spec * atom_w[None, :]).real.sum(axis=1) / L
        atom = np.clip(atom, 0.0, 1.0)
    else:
        atom = np.zeros(rounds)
    return win, atom


def normal_approx_probability(
    weights: Sequence[int], probs: Sequence[float],
    tie_policy: TiePolicy = TiePolicy.INCORRECT,
) -> float:
    """Normal approximation of the weighted-majority tail.

    Used for very large ``n`` where the exact DP is unnecessary; Lemma 4
    (Kahng et al.) justifies the approximation for bounded competencies.
    Applies a half-unit continuity correction consistent with
    ``tie_policy``: for even totals the boundary atom at ``total / 2`` is
    excluded under :attr:`TiePolicy.INCORRECT` and half-counted under
    :attr:`TiePolicy.COIN_FLIP`; for odd totals a tie is impossible and
    the policies coincide.
    """
    w = np.asarray(weights, dtype=float)
    p = np.asarray(probs, dtype=float)
    total = float(w.sum())
    mean = float((w * p).sum())
    var = float((w * w * p * (1.0 - p)).sum())
    threshold = total / 2.0
    if var <= 0.0:
        if mean > threshold:
            return 1.0
        if mean < threshold:
            return 0.0
        return 0.5 if tie_policy is TiePolicy.COIN_FLIP else 0.0
    sd = sqrt(var)

    def _upper(x: float) -> float:
        """P[N(mean, var) > x]."""
        return 0.5 * (1.0 - erf((x - mean) / (sd * sqrt(2.0))))

    if int(round(total)) % 2:
        # Odd total: the smallest winning count is threshold + 0.5, so
        # the continuity-corrected cut sits exactly at the threshold.
        return _upper(threshold)
    strict = _upper(threshold + 0.5)
    if tie_policy is TiePolicy.COIN_FLIP:
        # Half of the tie atom P[X = total/2] ≈ Φ-mass in (t-½, t+½).
        return strict + 0.5 * (_upper(threshold - 0.5) - strict)
    return strict
