"""Elimination over F_p: the block residual kernel and the incremental span."""

import numpy as np
from hypothesis import given, settings, strategies as st

from iwacalc.linalg import RowSpace, reduce_against, reduce_block, rref


def residual_by_rows(rows, pivots, vec, p):
    """Row-by-row elimination, the loop that reduce_block replaces."""
    v = np.array(vec, dtype=np.int64) % p
    for row, c in zip(rows, pivots):
        if v[c]:
            v = (v - v[c] * row) % p
    return v


@st.composite
def bases(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    ncols = draw(st.integers(1, 24))
    nrows = draw(st.integers(0, 12))
    # sparse draws give near-monomial bases, dense ones give non-monomial
    density = draw(st.sampled_from([0.1, 0.5, 1.0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    mat = rng.integers(0, p, (nrows, ncols)) * (rng.random((nrows, ncols)) < density)
    block = rng.integers(0, p, (draw(st.integers(1, 6)), ncols))
    # mix in members of the span, whose residual must vanish
    block[::2] = rng.integers(0, p, (block[::2].shape[0], nrows)) @ mat % p
    return p, mat, block


@settings(max_examples=200, deadline=None)
@given(bases())
def test_reduce_block_matches_row_loop(case):
    p, mat, block = case
    rows, pivots = rref(mat, p)
    got = reduce_block(rows, pivots, block, p)
    for v, res in zip(block, got):
        want = residual_by_rows(rows, pivots, v, p)
        assert np.array_equal(res, want)
        assert np.array_equal(reduce_against(rows, pivots, v, p), want)


@settings(max_examples=100, deadline=None)
@given(bases())
def test_row_space_is_canonical_rref(case):
    p, mat, block = case
    vectors = list(mat) + list(block)
    space = RowSpace(p, mat.shape[1])
    for v in vectors:
        space.add(v)
    rows, pivots = rref(np.array(vectors), p)
    assert np.array_equal(space.matrix(), rows)
    assert space.pivots == pivots
    assert space.dim == len(pivots)
    assert all(space.contains(v) for v in vectors)
