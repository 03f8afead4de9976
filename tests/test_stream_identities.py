"""The NumPy stream identities the loop-free kernels rely on.

Four kernels replace per-item Python loops with one or a few array
draws and stay bitwise equal to their loops only because NumPy's
``Generator`` produces the same stream either way:

* ``RecycleSamplingGraph.sample`` and ``random_bounded_degree_graph``:
  ``N`` scalar ``integers(m_i)`` calls equal one ``integers(0, bounds)``
  call, and ``N`` scalar ``integers(m)`` calls equal one
  ``integers(m, size=N)`` call;
* ``WeightedDelegationDag.estimate_correct_probability``: per-round
  ``random(n)`` pairs equal one ``random((rounds, 2, n))`` draw, also
  when the rounds are split into blocks;
* ``random_min_degree_graph``: ``choice`` over the array of all vertices
  but ``u`` equals ``choice(n - 1)`` shifted past ``u``.

Each identity is pinned here with an equal ``bit_generator.state``
afterwards, so a NumPy upgrade that breaks one fails in this file rather
than as a golden-file diff.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def _pair(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.one_of(
            st.integers(1, 8),
            st.integers(1, 2**31),
            st.integers(2**32 - 2, 2**32 + 2),
            st.integers(2**40, 2**62),
        ),
        max_size=40,
    ),
    st.integers(0, 2**32 - 1),
)
def test_scalar_integers_equal_one_array_bounded_call(bounds, seed):
    scalar, batch = _pair(seed)
    want = [int(scalar.integers(m)) for m in bounds]
    got = batch.integers(0, np.array(bounds, dtype=np.int64))
    assert got.tolist() == want
    assert batch.bit_generator.state == scalar.bit_generator.state
    assert scalar.random() == batch.random()


@settings(deadline=None, max_examples=60)
@given(
    st.one_of(st.integers(1, 8), st.integers(1, 10**6), st.integers(2**33, 2**62)),
    st.integers(0, 60),
    st.integers(0, 2**32 - 1),
)
def test_scalar_integers_equal_one_sized_call(m, count, seed):
    scalar, batch = _pair(seed)
    want = [int(scalar.integers(m)) for _ in range(count)]
    got = batch.integers(m, size=count)
    assert got.tolist() == want
    assert batch.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize("n", [0, 1, 7, 512])
@pytest.mark.parametrize("blocks", [(5,), (1, 4), (2, 2, 1)])
def test_round_pairs_equal_one_cube_draw(n, blocks):
    scalar, batch = _pair(11)
    rounds = sum(blocks)
    want = np.array([[scalar.random(n), scalar.random(n)] for _ in range(rounds)])
    got = np.concatenate([batch.random((b, 2, n)) for b in blocks])
    assert got.shape == (rounds, 2, n)
    assert got.tobytes() == want.reshape(rounds, 2, n).tobytes()
    assert batch.bit_generator.state == scalar.bit_generator.state


@pytest.mark.parametrize(
    "n, k",
    [(1, 0), (2, 1), (5, 0), (5, 4), (40, 6), (40, 39), (20_003, 12), (20_003, 9_000)],
)
def test_choice_over_others_equals_shifted_choice(n, k):
    # (20_003, ...) passes NumPy's 10_000 population cutoff, where
    # ``choice`` switches its sampling method.
    for u in sorted({0, n // 2, n - 1}):
        array_gen, shifted_gen = _pair(n * 31 + u)
        others = np.array([v for v in range(n) if v != u])
        want = array_gen.choice(others, size=k, replace=False)
        got = shifted_gen.choice(n - 1, size=k, replace=False)
        got = got + (got >= u)
        assert got.tolist() == want.tolist()
        assert shifted_gen.bit_generator.state == array_gen.bit_generator.state
