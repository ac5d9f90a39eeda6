"""Elimination over F_p: the sparse residual kernel, the incremental span
and `rref`, each checked against the column scan and the block residuals
of `oracles`."""

import tracemalloc

import numpy as np
from hypothesis import given, settings, strategies as st

from iwacalc.linalg import RowSpace, intersect_coordinate_subspace, reduce_sparse, rref

from oracles import reduce_block, rref_reference


def residual_by_rows(rows, pivots, vec, p):
    """Row-by-row elimination in Python ints, exact for any p."""
    v = np.array(vec, dtype=object) % p
    for row, c in zip(rows, pivots):
        if v[c]:
            v = (v - v[c] * row.astype(object)) % p
    return v


def as_dict(vec):
    return {int(c): int(vec[c]) for c in np.flatnonzero(vec)}


def sparse_rows(rows, pivots):
    return {int(c): as_dict(row) for row, c in zip(rows, pivots)}


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
    rows, pivots = rref_reference(mat, p)
    got = reduce_block(rows, pivots, block, p)
    for v, res in zip(block, got):
        want = residual_by_rows(rows, pivots, v, p)
        assert np.array_equal(res, want)
        assert reduce_sparse(as_dict(v), sparse_rows(rows, pivots), p) == as_dict(want)


@settings(max_examples=100, deadline=None)
@given(bases())
def test_row_space_is_canonical_rref(case):
    p, mat, block = case
    vectors = list(mat) + list(block)
    space = RowSpace(p, mat.shape[1])
    grew = [space.add({c: int(x) for c, x in enumerate(v) if x}) for v in vectors]
    rows, pivots = rref_reference(np.array(vectors), p)
    assert np.array_equal(space.matrix(), rows)
    assert space.pivots == pivots
    assert space.dim == len(pivots) == sum(grew)
    # every vector now lies in the span, so a second add never grows it
    assert not any(space.add({c: int(x) for c, x in enumerate(v)}) for v in vectors)
    assert space.dim == len(pivots)


def test_row_space_allocates_no_square_array():
    tracemalloc.start()
    try:
        space = RowSpace(3, 4000)
        for v in ({0: 1, 3999: 2}, {5: 1}, {0: 2, 5: 1}, {3999: 1}):
            space.add(v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.pivots == [0, 5, 3999]
    assert peak < 1 << 20


def test_rref_is_exact_past_int64_products():
    # (p - 1)^2 > 2^63: one product of two residues no longer fits in int64
    p = 4294967311
    mat = [[p - 1, p - 2, 3], [p - 3, 5, p - 7], [1, 2, p - 3]]
    rows, pivots = rref(mat, p)
    assert pivots == sorted(set(pivots)) and len(pivots) == 2
    got = [[int(x) for x in r] for r in rows]
    for r, c in zip(got, pivots):
        assert all(0 <= x < p for x in r)
        assert r[c] == 1 and all(r2[c] == 0 for r2 in got if r2 is not r)
        assert not any(r[:c])
    # each input row is the combination of the rows by its pivot entries
    for v in mat:
        v = [x % p for x in v]
        assert all((sum(v[c] * r[k] for r, c in zip(got, pivots)) - v[k]) % p == 0
                   for k in range(3))


# 1518500213 is the largest prime with 4 * (p - 1)^2 < 2^63: past 4 rows,
# one int64 sum of products of residues would overflow
PRIMES = [2, 3, 5, 7, 101, 65521, 1518500213]


@st.composite
def matrices(draw):
    p = draw(st.sampled_from(PRIMES))
    nrows = draw(st.integers(0, 12))
    ncols = draw(st.integers(0, 12))  # tall, square and wide shapes
    density = draw(st.sampled_from([0.0, 0.2, 1.0]))  # 0.0: all zero
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # entries outside [0, p) too, which both routes reduce first
    mat = rng.integers(-p, 2 * p, (nrows, ncols)) * (rng.random((nrows, ncols)) < density)
    if nrows > 1:
        # a dependent row, combined with Python ints so large p cannot wrap
        mix = rng.integers(0, p, nrows - 1).astype(object)
        mat[-1] = (mix @ mat[:-1].astype(object)) % p
    if draw(st.booleans()) and nrows:
        mat = mat[0]  # 1-D input is one row
    return p, mat


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_column_scan(case):
    p, mat = case
    rows, pivots = rref(mat, p)
    want_rows, want_pivots = rref_reference(mat, p)
    assert rows.dtype == np.int64
    assert rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)
    assert pivots == want_pivots


def test_rref_edge_shapes():
    for mat, shape in [([], (0, 0)), ([0, 0, 0], (0, 3)),
                       (np.zeros((0, 4), dtype=np.int64), (0, 4)),
                       (np.zeros((3, 2), dtype=np.int64), (0, 2))]:
        rows, pivots = rref(mat, 5)
        assert rows.shape == shape and pivots == []
    rows, pivots = rref([3, 6, 9], 7)
    assert rows.tolist() == [[1, 2, 3]] and pivots == [0]


@settings(max_examples=100, deadline=None)
@given(matrices(), st.data())
def test_intersect_coordinate_subspace(case, data):
    p, mat = case
    mat = np.atleast_2d(mat)
    ncols = mat.shape[1]
    keep = sorted(data.draw(st.sets(st.integers(0, max(ncols - 1, 0)),
                                    max_size=ncols)))
    got = intersect_coordinate_subspace(mat, p, keep)
    rows, _ = rref_reference(got, p)
    assert np.array_equal(got, rows)
    drop = [c for c in range(ncols) if c not in keep]
    assert not got[:, drop].any()
    if not mat.size:
        return
    # the meet has the dimension rank(A) - rank(A restricted to the dropped
    # columns), and each of its rows lies in the row space of A
    span, _ = rref_reference(mat, p)
    outside, _ = rref_reference(mat[:, drop], p)
    assert got.shape[0] == span.shape[0] - outside.shape[0]
    both, _ = rref_reference(np.vstack([span, got]), p)
    assert both.shape[0] == span.shape[0]


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([PRIMES[-1], 4294967311]), data=st.data())
def test_reduce_block_one_row_matches_block_at_large_p(p, data):
    # at the first prime the block product is taken in chunks past 4 basis
    # rows; at the second one product of two residues passes 2^63, and only
    # the sparse route, in Python ints, is exact
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    nrows = data.draw(st.integers(0, 12))
    ncols = data.draw(st.integers(1, 24))
    density = data.draw(st.sampled_from([0.1, 0.5, 1.0]))
    mat = rng.integers(0, p, (nrows, ncols)) * (rng.random((nrows, ncols)) < density)
    rows, pivots = (rref_reference if p == PRIMES[-1] else rref)(mat, p)
    block = rng.integers(0, p, (data.draw(st.integers(2, 6)), ncols))
    # members of the span, combined with Python ints so they cannot wrap
    mix = rng.integers(0, p, (block[::2].shape[0], rows.shape[0])).astype(object)
    block[::2] = np.array(mix @ rows.astype(object) % p, dtype=np.int64).reshape(
        block[::2].shape)
    sparse = sparse_rows(rows, pivots)
    for k, v in enumerate(block):
        res = reduce_sparse(as_dict(v), sparse, p)
        assert res == as_dict(residual_by_rows(rows, pivots, v, p))
        assert k % 2 or not res
    if p == PRIMES[-1]:
        whole = reduce_block(rows, pivots, block, p)
        assert not whole[::2].any()
        for v, res in zip(block, whole):
            assert np.array_equal(reduce_block(rows, pivots, v[None, :], p)[0], res)
            assert np.array_equal(res, residual_by_rows(rows, pivots, v, p))
