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

* Every PMF product goes through one merge rule, set by one crossover,
  :data:`_FFT_MIN`: direct convolution for short operands, real FFT at
  a 5-smooth length above (:func:`_merge_level` for the ladder's
  equal-width blocks, :func:`_convolve` for a lone pair,
  :func:`_merge_rounds` for balanced passes over PMF lists).  A row's
  arithmetic never depends on how many rows share a call.
* :func:`_pb_ladder` computes many Poisson-binomial PMFs at once: the
  per-Bernoulli length-2 PMFs are merged level by level, in vectorised
  batches.  Wide groups are cut into chunks of :data:`_BUCKET_CHUNK`
  whose PMFs are then merged pairwise, so one group of ``n`` costs
  O(n log² n).
* :func:`poisson_binomial_pmf` and :func:`weighted_bernoulli_pmf` factor
  voters with ``p ∈ {0, 1}`` out first, as an exact shift of the
  support, so degenerate electorates stay exact.
* The original quadratic loops are retained as ``_reference_*`` and the
  randomized equivalence suite (``tests/test_perf_kernels.py``) pins the
  fast kernels to them at ≤1e-12 absolute error.
"""

from __future__ import annotations

from bisect import bisect_left
from math import erf, sqrt
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro._util.validation import check_probability_vector
from repro.delegation.graph import DelegationGraph
from repro.voting.outcome import TiePolicy

_DP_CUTOFF = 64
"""Input size below which the plain DP beats the merge ladder (overhead)."""

_FFT_MIN = 64
"""Block width above which a batched ladder level uses real-FFT convolution.

Picked from a sweep of the callers (``docs/performance.md``).  A lone
pair pays the transforms' fixed call overhead by itself, which moves its
measured crossover to about ``4 * _FFT_MIN`` (see :func:`_convolve`).
"""

_BUCKET_CHUNK = 512
"""Widest group one ladder row holds; wider groups are cut into chunks."""

_SPECTRAL_CELLS = 1 << 20
"""Transform cells of one batched FFT in :func:`_merge_rounds` (~50 MiB
of rows and spectra): small merges share a call, large ones cost their
own transform time anyway and keep memory O(total)."""


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


def _smooth_numbers(limit: int) -> np.ndarray:
    """Every 5-smooth integer ``2^a 3^b 5^c <= limit``, ascending."""
    out = []
    p2 = 1
    while p2 <= limit:
        p3 = p2
        while p3 <= limit:
            p5 = p3
            while p5 <= limit:
                out.append(p5)
                p5 *= 5
            p3 *= 3
        p2 *= 2
    return np.sort(np.array(out, dtype=np.int64))


_SMOOTH_LENGTHS = _smooth_numbers(1 << 62)
"""The 12,119 5-smooth integers up to 2^62 (95 KiB of int64):
:func:`_smooth_fft_len` is one ``bisect`` into them, not a
trial-division walk."""


def _smooth_fft_len(n: int) -> int:
    """Smallest 5-smooth integer ``>= n`` (a fast pocketfft length).

    Power-of-two padding to ``2n`` nearly doubles the transform size;
    mixed-radix lengths with factors {2, 3, 5} stay within ~5% of the
    minimum and measure >2x faster on the doubling-ladder shapes.
    """
    return int(_SMOOTH_LENGTHS[bisect_left(_SMOOTH_LENGTHS, max(1, n))])


def _reference_smooth_fft_len(n: int) -> int:
    """Trial-division oracle of :func:`_smooth_fft_len`: test each
    integer from ``n`` up until one has no prime factor above 5."""
    k = max(1, n)
    while True:
        m = k
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return k
        k += 1


def _convolve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a ⊛ b`` for a lone pair: direct up to ``4 * _FFT_MIN``, real FFT above.

    The branch depends only on the operand lengths, so equal-length
    inputs always take the same path (the incremental merge tree's
    patch == scratch contract relies on it).
    """
    if min(len(a), len(b)) <= 4 * _FFT_MIN:
        return np.convolve(a, b)
    out_len = len(a) + len(b) - 1
    L = _smooth_fft_len(out_len)
    return np.fft.irfft(np.fft.rfft(a, L) * np.fft.rfft(b, L), L)[:out_len]


def _merge_level(blocks: np.ndarray, groups: int) -> np.ndarray:
    """One ladder level over ``(m, L)`` blocks, ``m / groups`` per group.

    Blocks wider than :data:`_FFT_MIN` are merged by one batched real
    FFT, four at a time while a group still has four or more (the same
    transform work as two pair levels, in half the calls).  Narrower
    blocks are merged in pairs by one einsum over a sliding-window
    (Toeplitz) view of the zero-padded right factors; width 3 (the first
    ladder level, with the most rows) expands the five product
    coefficients explicitly — measurably faster than the strided-view
    einsum at that size.  Every path computes each output row from its
    own group's blocks alone, so a row's bits do not depend on ``m``.

    FFT outputs are not clipped: their rounding error is signed and the
    zero-frequency bin multiplies exactly, so unclipped levels keep the
    total mass to roundoff.  The public PMFs clip negative roundoff once,
    at the end.
    """
    m, length = blocks.shape
    if length > _FFT_MIN:
        fan = 4 if m >= 4 * groups else 2
        out_len = fan * (length - 1) + 1
        L = _smooth_fft_len(out_len)
        spec = np.fft.rfft(blocks, L, axis=1)
        prod = spec[0::fan] * spec[1::fan]
        for k in range(2, fan):
            prod *= spec[k::fan]
        return np.fft.irfft(prod, L, axis=1)[:, :out_len]
    out_len = 2 * length - 1
    left = blocks[0::2]
    right = blocks[1::2]
    if length == 3:
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
    padded = np.zeros((m // 2, 3 * length - 2))
    padded[:, length - 1 : out_len] = right
    s0, s1 = padded.strides
    # windows[i, k, j] = padded[i, length-1 + k - j] = right[i, k - j]:
    # a raw strided Toeplitz view (as_strided's checks cost more than the
    # einsum at these block sizes).
    windows = np.ndarray(
        (m // 2, out_len, length),
        buffer=padded,
        offset=(length - 1) * s1,
        strides=(s0, s1, -s1),
    )
    return np.einsum("mj,mkj->mk", left, windows)


def _pb_ladder(padded: np.ndarray) -> np.ndarray:
    """Poisson-binomial PMFs of every row of an ``(m, width)`` matrix.

    ``width`` is a power of two and shorter groups are padded with
    ``p = 0`` Bernoullis (convolution identities), so every level's
    merges stay inside a row.  Returns ``(m, width + 1)``; entries
    beyond a row's true support are zero up to the FFT levels' roundoff,
    and callers slice them off.
    """
    m, width = padded.shape
    if width == 1:
        out = np.empty((m, 2))
        out[:, 0] = 1.0 - padded[:, 0]
        out[:, 1] = padded[:, 0]
        return out
    # First level in closed form: the product of two length-2 PMFs is a
    # length-3 PMF, cheaper as three ufunc lines than as a batched
    # convolution over 2x as many rows.
    pp = padded.reshape(m * width // 2, 2)
    qq = 1.0 - pp
    blocks = np.empty((m * width // 2, 3))
    blocks[:, 0] = qq[:, 0] * qq[:, 1]
    blocks[:, 1] = pp[:, 0] * qq[:, 1] + qq[:, 0] * pp[:, 1]
    blocks[:, 2] = pp[:, 0] * pp[:, 1]
    while blocks.shape[0] > m:
        blocks = _merge_level(blocks, m)
    return blocks


def _grouped_pb(groups: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Poisson-binomial PMFs of several groups through one ladder."""
    width = 1 << max(0, max(len(g) for g in groups) - 1).bit_length()
    padded = np.zeros((len(groups), width))
    for row, group in enumerate(groups):
        padded[row, : len(group)] = group
    pmfs = _pb_ladder(padded)
    return [pmfs[row, : len(g) + 1] for row, g in enumerate(groups)]


def _pb_wide(p: np.ndarray) -> np.ndarray:
    """Poisson-binomial PMF of one group of any size.

    Equal chunks of at most :data:`_BUCKET_CHUNK` voters go through one
    ladder, so padding to a power of two wastes at most one chunk's
    worth, and the chunk PMFs are merged pairwise.
    """
    if len(p) <= _BUCKET_CHUNK:
        return _grouped_pb([p])[0]
    return _merge_pmfs(_grouped_pb(np.array_split(p, -(-len(p) // _BUCKET_CHUNK))))


def _merge_pmfs(pmfs: List[np.ndarray]) -> np.ndarray:
    """Convolve a list of PMFs pairwise, balanced, shortest first."""
    if len(pmfs) == 1:
        return pmfs[0]
    rounds = [list(pmfs)]
    _merge_rounds(rounds, sum(len(p) - 1 for p in pmfs) + 1)
    return _convolve(*rounds[0])


def _merge_rounds(rounds: List[List[np.ndarray]], cap: int) -> None:
    """Merge every list pairwise, balanced, shortest first, down to two PMFs.

    Products keep their first ``cap`` entries.  The lists advance in
    lockstep, one balanced pass at a time, so the FFT-sized pairs of a
    pass that share a transform length go through one batched real FFT.
    That length, like :func:`_convolve`'s branch, depends only on the
    pair, and a batched transform computes each row on its own, so every
    product is bitwise :func:`_convolve`'s.  Merges in place; products
    are copied out of a batch so that its rows can be freed.
    """
    for k, pmfs in enumerate(rounds):
        rounds[k] = sorted(pmfs, key=len)
    while any(len(pmfs) > 2 for pmfs in rounds):
        spectral: dict = {}
        for k, pmfs in enumerate(rounds):
            if len(pmfs) <= 2:
                continue
            out: List = []
            for i in range(0, len(pmfs) - 1, 2):
                a, b = pmfs[i], pmfs[i + 1]
                if min(len(a), len(b)) <= 4 * _FFT_MIN:
                    out.append(np.convolve(a, b)[:cap])
                else:
                    L = _smooth_fft_len(len(a) + len(b) - 1)
                    spectral.setdefault(L, []).append((out, len(out), a, b))
                    out.append(None)
            out.extend(pmfs[len(pmfs) - len(pmfs) % 2 :])
            rounds[k] = out
        for L, group in spectral.items():
            step = max(1, _SPECTRAL_CELLS // (2 * L))
            for pairs in (group[i : i + step] for i in range(0, len(group), step)):
                width = max(max(len(a), len(b)) for _, _, a, b in pairs)
                rows = np.zeros((2 * len(pairs), width))
                for j, (_, _, a, b) in enumerate(pairs):
                    rows[2 * j, : len(a)] = a
                    rows[2 * j + 1, : len(b)] = b
                spec = np.fft.rfft(rows, L, axis=1)
                prods = np.fft.irfft(spec[0::2] * spec[1::2], L, axis=1)
                for j, (out, slot, a, b) in enumerate(pairs):
                    out[slot] = prods[j, : min(len(a) + len(b) - 1, cap)].copy()


def _pb_unchecked(p: np.ndarray) -> np.ndarray:
    """Poisson-binomial PMF of pre-validated ``p``; see the public docs."""
    live = p[(p > 0.0) & (p < 1.0)]
    if len(live) <= _DP_CUTOFF:
        base = _pb_dp(live)
    else:
        base = np.maximum(_pb_wide(live), 0.0)
    if len(live) == len(p):
        return base
    # Voters with p = 1 shift the support by one each; p = 0 voters are
    # identities.  Both are exact, so degenerate electorates stay exact.
    out = np.zeros(len(p) + 1)
    ones = int(np.count_nonzero(p == 1.0))
    out[ones : ones + len(base)] = base
    return out


def poisson_binomial_pmf(probs: Sequence[float]) -> np.ndarray:
    """PMF of the sum of independent Bernoulli(p_i) variables.

    Returns an array of length ``n + 1`` where entry ``k`` is
    ``P[sum = k]``.  Voters with ``p ∈ {0, 1}`` are factored out as an
    exact shift; the rest go through the plain DP (at most
    :data:`_DP_CUTOFF` of them) or the batched merge ladder
    (:func:`_pb_wide`), O(n log² n).  Merges wider than
    :data:`_FFT_MIN` use real-FFT convolution, so each entry carries an
    absolute error of a few ulps of the largest entry; negative
    roundoff is clipped once, at the end.  The equivalence suite pins
    the result to :func:`_reference_poisson_binomial_pmf` at ≤1e-12
    per entry.
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

    Sinks with ``p ∈ {0, 1}`` are factored out as an exact shift of the
    support.  The rest are bucketed by weight: each distinct weight ``w``
    contributes ``w · PoissonBinomial(probs in bucket)``, whose PMF is
    the bucket's Poisson-binomial PMF stretched onto the ``w``-spaced
    lattice.  The weight-1 majority therefore collapses into a single
    Poisson-binomial pass, and bucket PMFs are merged by
    :func:`_convolve` (smallest first, to keep operand lengths short).
    """
    if len(weights) != len(probs):
        raise ValueError("weights and probs must have equal length")
    w = np.asarray(weights, dtype=np.int64)
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    p = check_probability_vector("probs", probs) if len(probs) else np.empty(0)
    total = int(w.sum())
    shift = int(w[p == 1.0].sum())
    live = (w > 0) & (p > 0.0) & (p < 1.0)
    if not np.any(live):
        out = np.zeros(total + 1)
        out[shift] = 1.0
        return out
    w = w[live]
    p = p[live]
    order = np.argsort(w, kind="stable")
    unique_weights, starts = np.unique(w[order], return_index=True)
    groups = np.split(p[order], starts[1:])
    # One batched ladder covers every small bucket; the rare huge
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
            base_pmfs[i] = _pb_wide(g)
    buckets = []
    for wv, base in zip(unique_weights, base_pmfs):
        wv = int(wv)
        if wv == 1:
            buckets.append(base)
        else:
            stretched = np.zeros(wv * (len(base) - 1) + 1)
            stretched[::wv] = base
            buckets.append(stretched)
    pmf = np.maximum(_merge_pmfs(buckets), 0.0)
    if len(pmf) == total + 1:
        return pmf
    out = np.zeros(total + 1)
    out[shift : shift + len(pmf)] = pmf
    return out


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
    return min(1.0, max(0.0, win))


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
    agree with a rebuild to ~1e-15 absolute, not bitwise: callers that
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
            pmf = _convolve(pmf, np.array((1.0 - c, c)))
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


# reprolint: reference=_reference_weighted_bernoulli_pmf
def weighted_tails_batch(
    weights: np.ndarray,
    probs: np.ndarray,
    total: int,
    base: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Strict-majority win probabilities for a batch of sink profiles.

    ``weights`` is a ``(rounds, S)`` integer matrix of sink weights
    (zero entries are ignored, so ragged per-round sink sets fit in one
    rectangular matrix); ``probs`` the matching competencies (``(S,)``
    broadcasts across rounds).  ``base`` is the PMF of a block of sinks
    every round shares, outside ``weights`` (default: the empty block, a
    point mass at 0).  Returns ``(win_strict, tie_atom)`` where
    ``win_strict[r] = P[W_r + B > total / 2]`` and ``tie_atom[r] =
    P[W_r + B = total / 2]`` (identically zero for odd totals).

    This is the whole-batch counterpart of
    ``tail_from_pmf(weighted_bernoulli_pmf(w, p), total)``, pinned to it
    at ≤1e-12 by the equivalence suite.  Each round's value is a pure
    function of its own positive weights, their competencies and
    ``base``: bitwise the value of that row passed alone.  The pipeline
    is described in ``docs/performance.md``:

    1. one cross-round stable argsort buckets every round's sinks by
       weight; bucket boundaries fall out of one flat comparison;
    2. bucket PMFs are computed in mega-batches grouped by power-of-two
       bucket size (:func:`_pb_ladder`, whose arithmetic on a row does
       not depend on the other rows);
    3. bucket PMFs are stretched onto their ``w``-spaced lattices by one
       vectorised scatter into a flat buffer, truncated at ``half + 1``;
    4. each round's bucket PMFs and ``base`` are merged shortest first,
       all rounds in lockstep (:func:`_merge_rounds`), truncated at
       ``half + 1``, down to two factors.  Their product is read at the
       half point without being formed: a dot product with the reversed
       cumulative sum of one factor gives the CDF, one with the factor
       itself the tie atom.  Memory is O(total) per round.
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
    del sort_key
    Wsort = np.take_along_axis(W, order, axis=1).astype(np.int64, copy=False)
    Psort = np.ascontiguousarray(np.take_along_axis(P, order, axis=1))
    del order
    flatW = Wsort.ravel()
    newseg = np.empty(rounds * S, dtype=bool)
    newseg[:1] = True
    newseg[1:] = flatW[1:] != flatW[:-1]
    newseg[:: max(S, 1)] = True
    seg_start = np.flatnonzero(newseg)
    del newseg
    seg_len = np.diff(np.append(seg_start, rounds * S))
    seg_w = flatW[seg_start]
    keep = seg_w > 0
    seg_start, seg_len, seg_w = seg_start[keep], seg_len[keep], seg_w[keep]
    # Split buckets wider than :data:`_BUCKET_CHUNK` sinks into equal
    # chunks: a bucket of 513 sinks would otherwise be padded to 1024
    # leaves, while equal chunks of at most 512 land in the cheapest size
    # class that fits.  The chunks rejoin in the per-round merge like any
    # other segment.
    if seg_len.size and int(seg_len.max()) > _BUCKET_CHUNK:
        nch = -(-seg_len // _BUCKET_CHUNK)
        within = np.arange(int(nch.sum())) - np.repeat(
            np.cumsum(nch) - nch, nch
        )
        seg_start = np.repeat(seg_start, nch) + within * _BUCKET_CHUNK
        seg_len = np.minimum(
            np.repeat(seg_len, nch) - within * _BUCKET_CHUNK, _BUCKET_CHUNK
        )
        seg_w = np.repeat(seg_w, nch)
    seg_round = seg_start // S
    if base is None:
        present = np.zeros(rounds, dtype=bool)
        present[seg_round] = True
        if not present.all():
            missing = int(np.flatnonzero(~present)[0])
            raise ValueError(f"round {missing} has no positive sink weight")
    # 2. mega-batched bucket PMFs by power-of-two size class.
    cls = np.ones(len(seg_start), dtype=np.int64)
    big = seg_len > 1
    cls[big] = 1 << (np.ceil(np.log2(seg_len[big])).astype(np.int64))
    pflat = Psort.ravel()
    # 3. stretch bucket PMFs onto the weight lattice with one masked
    # scatter per size class (buf[seg_off[g] + w * j] = pmf[j]).
    out_len = np.minimum(seg_len * seg_w + 1, cap)
    n_pts = (out_len - 1) // seg_w + 1
    seg_off = np.concatenate(([0], np.cumsum(out_len)))
    buf = np.zeros(int(seg_off[-1]))
    for c in np.unique(cls):
        members = np.flatnonzero(cls == c)
        pos = np.arange(c)
        colmask = pos[None, :] < seg_len[members][:, None]
        src = seg_start[members][:, None] + pos[None, :]
        padded = np.zeros((len(members), c))
        padded[colmask] = pflat[src[colmask]]
        pmfs = _pb_ladder(padded)
        pos = np.arange(pmfs.shape[1])
        colmask = pos[None, :] < n_pts[members][:, None]
        dst = seg_off[members][:, None] + seg_w[members][:, None] * pos[None, :]
        buf[dst[colmask]] = pmfs[colmask]
    # 4. merge every round down to two factors (point masses pad), then
    # P[X + Y <= half] = sum_i x[i] P[Y <= half - i], len(x) <= half + 1.
    shared = [] if base is None else [base]
    offs = seg_off.tolist()
    bounds = np.searchsorted(seg_round, np.arange(rounds + 1)).tolist()
    factors = []
    for r in range(rounds):
        parts = [buf[offs[g] : offs[g + 1]] for g in range(bounds[r], bounds[r + 1])]
        parts += shared
        factors.append(parts + [np.ones(1)] * (2 - len(parts)))
    _merge_rounds(factors, cap)
    win = np.empty(rounds)
    atom = np.zeros(rounds)
    for r, (x, y) in enumerate(factors):
        reach = half - np.arange(len(x))
        win[r] = 1.0 - (x * np.cumsum(y)[np.minimum(reach, len(y) - 1)]).sum()
        if total % 2 == 0:
            inside = reach < len(y)
            atom[r] = (x[inside] * y[reach[inside]]).sum()
    return np.clip(win, 0.0, 1.0), np.clip(atom, 0.0, 1.0)


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
