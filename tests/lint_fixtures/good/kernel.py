"""Known-good kernel pairings: named oracle, pragma, suppression, tests."""

import numpy as np


def double_batch(values):
    return np.asarray(values) * 2


def _reference_double_batch(values):
    return [v * 2 for v in values]


# reprolint: reference=_slow_increment
def increment_batch(values):
    return np.asarray(values) + 1


def _slow_increment(values):
    return [v + 1 for v in values]


# reprolint: disable=K401
def record_batch(size):
    # A counter, not a numeric kernel.
    return size


def patch_totals_delta(totals, changed):
    out = np.asarray(totals).copy()
    out[changed] += 1
    return out


def _reference_patch_totals_delta(totals):
    return [t + 1 for t in totals]


# reprolint: reference=_rebuild_counts
def recount_incremental(counts, dirty):
    out = np.asarray(counts).copy()
    out[dirty] = 0
    return out


def _rebuild_counts(counts):
    return [0 for _ in counts]


# reprolint: disable=K403
def time_delta(start, stop):
    # A duration helper, not an incremental kernel.
    return stop - start


def test_rejects_bad_delta():
    # A pytest test named after what it tests, not a kernel.
    assert time_delta(1, 2) == 1


def test_double_batch():
    assert list(double_batch([1])) == [2]
