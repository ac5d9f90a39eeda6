"""Elimination over F_p: the residual kernel and the incremental span,
each checked against the column scan and the block residuals of `oracles`,
also through the dense `rref` that `oracles` builds on the span; and past
int64 products, groups' exact elimination against the column scan."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iwacalc.groups import _rref_mod
from iwacalc.linalg import RowSpace, SparseMap, residual, sum_entries

from oracles import (
    DenseRowSpace, apply_entries_reference, intersect_coordinate_subspace, reduce_block, rref,
    rref_reference, space_matrix,
)


def residual_by_rows(rows, pivots, vec, p):
    """Row-by-row elimination in Python ints, exact for any p."""
    v = np.array(vec, dtype=object) % p
    for row, c in zip(rows, pivots):
        if v[c]:
            v = (v - v[c] * row.astype(object)) % p
    return v


def as_dict(vec):
    return {int(c): int(vec[c]) for c in np.flatnonzero(vec)}


def residual_dicts(block, rows, pivots, p):
    """The residual kernel's result for each row of a dense block against
    the dense rref basis rows, as dicts."""
    at, cols = np.nonzero(rows)
    R = SparseMap(p, rows.shape[1], cols, at, rows[at, cols])
    at, cols = np.nonzero(block)
    k, c, x = residual(at, cols, block[at, cols], R, pivots)
    return [dict(zip(c[k == r].tolist(), x[k == r].tolist())) for r in range(len(block))]


def exact_rref(mat, p):
    """`rref` through groups' elimination in Python ints, exact for any p."""
    a = np.array(mat, dtype=object)
    if a.ndim != 2:
        a = a.reshape(1, -1)
    rows, pivots = _rref_mod(a.tolist(), p, p)
    return np.array(rows, dtype=np.int64).reshape(len(rows), a.shape[1]), pivots


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
    for v, res, kernel in zip(block, got, residual_dicts(block, rows, pivots, p)):
        want = residual_by_rows(rows, pivots, v, p)
        assert np.array_equal(res, want)
        assert kernel == as_dict(want)


def entries(mat):
    at, cols = np.nonzero(mat)
    return at, cols, mat[at, cols]


@settings(max_examples=100, deadline=None)
@given(bases())
def test_row_space_is_canonical_rref(case):
    p, mat, block = case
    vectors = np.vstack([mat, block])
    space = RowSpace(p, mat.shape[1])
    # the block split in two halves that share the rows, repeats summed
    at, cols, coefs = entries(vectors)
    half = coefs // 2
    stored = space.add(np.concatenate([at, at]), np.concatenate([cols, cols]),
                       np.concatenate([half, coefs - half]))
    rows, pivots = rref_reference(vectors, p)
    assert np.array_equal(space_matrix(space), rows)
    assert space.pivots == pivots
    assert space.dim == len(pivots) == len(np.unique(stored[0]))
    # each stored row is 1 at its pivot, its least column
    for k in range(space.dim):
        row = stored[0] == k
        c = stored[1][row].min()
        assert c in pivots and stored[2][row][stored[1][row] == c].tolist() == [1]
    # the same rows added one at a time give the same span
    one = RowSpace(p, mat.shape[1])
    for v in vectors:
        one.add(*entries(v[None, :]))
    assert np.array_equal(space_matrix(one), rows) and one.pivots == pivots
    # every vector now lies in the span, so re-adding stores nothing
    assert not space.add(*entries(vectors))[0].size
    assert space.dim == len(pivots)


@settings(max_examples=50, deadline=None)
@given(bases())
def test_row_space_add_with_no_residual_keeps_the_basis(case):
    """A block with nothing outside the span, empty or made of rows already
    in it, stores nothing and leaves `basis` the same object, with equal
    pivots."""
    p, mat, block = case
    space = RowSpace(p, mat.shape[1])
    space.add(*entries(mat))
    basis, pivots = space.basis, space.pivots
    # the even rows of the block are members of the span
    for inside in (block[:0], block[::2]):
        stored = space.add(*entries(inside))
        assert all(a.dtype == np.int64 and not a.size for a in stored)
        assert space.basis is basis and space.pivots == pivots


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_sparse_map_sorts_only_entries_out_of_order(data):
    """A map from shuffled entries, repeats included, holds the arrays of
    the map from the same entries sorted by (source, target), which keeps
    them as given; a repeated pair may hold its coefficients in any order."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    n = data.draw(st.integers(0, 40))
    tgt, src, coef = rng.integers(0, 6, (3, n))
    order = np.lexsort((tgt, src))
    shuffle = rng.permutation(n)
    want = SparseMap(7, 6, tgt[order], src[order], coef[order])
    got = SparseMap(7, 6, tgt[shuffle], src[shuffle], coef[shuffle])
    assert got == want
    for m in (want, got):
        assert m.tgt.dtype == m.src.dtype == m.coef.dtype == np.int64
        assert np.array_equal(m.tgt, tgt[order]) and np.array_equal(m.src, src[order])
    assert np.array_equal(want.coef, coef[order])
    if len(set(zip(src.tolist(), tgt.tolist()))) == n:
        assert np.array_equal(got.coef, want.coef)
    assert sorted(zip(got.src.tolist(), got.tgt.tolist(), got.coef.tolist())) == \
        sorted(zip(want.src.tolist(), want.tgt.tolist(), want.coef.tolist()))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 4294967311]), data=st.data())
def test_apply_entries_through_offsets_matches_binary_searches(p, data):
    """`apply_entries` reads the entries of each column through the offsets
    of the map's sources and gives the arrays of two binary searches per
    column (`oracles.apply_entries_reference`), in the same order: on empty
    maps, sources without entries, stacked maps whose sources reach past
    `size`, and columns repeated, unsorted, at the last source, past it and
    past `size`."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    size = data.draw(st.integers(1, 6))

    def drawn_map():
        # sources below `top`, so some of them, or all, have no entries
        n, top = data.draw(st.integers(0, 12)), data.draw(st.integers(1, size))
        return SparseMap(p, size, rng.integers(0, size, n), rng.integers(0, top, n),
                         rng.integers(0, p, n))
    maps = [drawn_map() for _ in range(data.draw(st.integers(1, 3)))]
    m = SparseMap.stack(maps) if len(maps) > 1 else maps[0]
    last = int(m.src[-1]) if m.src.size else 0
    cols = np.concatenate([rng.integers(0, len(maps) * size + 3, data.draw(st.integers(0, 12))),
                           data.draw(st.lists(st.sampled_from(
                               [last, last + 1, size, size + 1, len(maps) * size + 2])))])
    cols = rng.permutation(cols).astype(np.int64)
    rows, coefs = rng.integers(0, 5, cols.size), rng.integers(0, p, cols.size)
    for _ in range(2):  # the first apply builds the offsets, the second reads them
        got = m.apply_entries(rows, cols, coefs)
        want = apply_entries_reference(m, rows, cols, coefs)
        assert all(a.dtype == b.dtype == np.int64 and np.array_equal(a, b)
                   for a, b in zip(got, want, strict=True))


def test_sparse_map_builds_its_offsets_once():
    """A map holds no offsets until its first `apply_entries`, which builds
    them; the second apply reads the same array."""
    m = SparseMap(5, 4, [0, 1, 2], [3, 0, 0], [1, 2, 3])
    stacked = SparseMap.stack([m, m])
    for a in (m, stacked):
        assert a._starts is None
    rows, cols, coefs = np.array([0, 1, 1]), np.array([0, 3, 9]), np.array([1, 2, 4])
    first = m.apply_entries(rows, cols, coefs)
    starts = m._starts
    # source s has entries starts[s]:starts[s + 1], and every column past
    # the last source reads the empty slice at its end
    assert starts.tolist() == [0, 2, 2, 2, 3, 3]
    again = m.apply_entries(rows, cols, coefs)
    assert m._starts is starts and stacked._starts is None
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert [a.tolist() for a in first] == [[0, 0, 1], [1, 2, 0], [2, 3, 2]]
    stacked.apply_entries(rows, cols + 4, coefs)
    assert stacked._starts.tolist() == [0, 2, 2, 2, 3, 5, 5, 5, 6, 6]


def stored_matrix(stored, ncols):
    """The rows an `add` returned as a dense array, row k at index k."""
    rows, cols, coefs = stored
    out = np.zeros((int(rows.max(initial=-1)) + 1, ncols), dtype=np.int64)
    out[rows, cols] = coefs
    return out


def add_counting_passes(space, monkeypatch, block):
    """space.add(block) and the number of its passes, one `_echelon` each."""
    passes = []
    echelon = RowSpace._echelon
    monkeypatch.setattr(RowSpace, "_echelon",
                        lambda self, *a: passes.append(1) or echelon(self, *a))
    stored = space.add(*entries(block))
    monkeypatch.undo()
    return stored, len(passes)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_row_space_lead_passes_on_scaled_copies(monkeypatch, k):
    """k scaled copies of one row share their lead: one pass stores the
    first, and the residual of the others against it is 0."""
    p, ncols = 7, 9
    row = np.array([0, 3, 0, 5, 1, 0, 0, 2, 6])
    block = np.array([c * row % p for c in range(1, k + 1)])
    space = RowSpace(p, ncols)
    stored, passes = add_counting_passes(space, monkeypatch, block)
    want, pivots = rref_reference(block, p)
    assert passes == 1
    assert np.array_equal(space_matrix(space), want) and space.pivots == pivots == [1]
    assert np.array_equal(stored_matrix(stored, ncols), want)


@pytest.mark.parametrize("k", [2, 5, 9])
def test_row_space_lead_passes_on_rows_sharing_a_lead(monkeypatch, k):
    """k rows with one lead and distinct tails, the first row's past the
    others: the first pass stores it, the second the other k - 1 rows'
    residuals, which lead at their own tails."""
    p, ncols = 11, 12
    block = np.zeros((k, ncols), dtype=np.int64)
    block[:, 1] = np.arange(1, k + 1)
    block[np.arange(k), np.arange(k) + 2] = 3
    block[0, 2], block[0, -1] = 0, 3
    space = RowSpace(p, ncols)
    stored, passes = add_counting_passes(space, monkeypatch, block)
    want, pivots = rref_reference(block, p)
    assert passes == 2 and len(pivots) == k
    assert np.array_equal(space_matrix(space), want) and space.pivots == pivots
    assert np.array_equal(stored_matrix(stored, ncols), want)


@pytest.mark.parametrize("k", [1, 2, 6, 30])
def test_row_space_lead_passes_on_a_chained_block(monkeypatch, k):
    """e_0 + e_i, i = 1..k: every row leads at 0, and each pass leaves a
    single lead in the rest, so the block takes k passes."""
    p, ncols = 5, k + 1
    block = np.zeros((k, ncols), dtype=np.int64)
    block[:, 0] = 1
    block[np.arange(k), np.arange(1, k + 1)] = 1
    space = RowSpace(p, ncols)
    stored, passes = add_counting_passes(space, monkeypatch, block)
    want, pivots = rref_reference(block, p)
    assert passes == k
    assert np.array_equal(space_matrix(space), want) and space.pivots == pivots
    assert np.array_equal(stored_matrix(stored, ncols), want)
    dense = DenseRowSpace(p, ncols)
    for v in block:
        dense.add(v)
    assert np.array_equal(dense.matrix(), want)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 3037000493]), data=st.data())
def test_row_space_block_and_its_splits_agree(p, data):
    """A random block added whole and in random splits: the same R and
    pivots as the column scan, and every add returns the rows it stored,
    each 1 at its least column, a new pivot, numbered in pivot order and
    equal to the rows of R at those pivots.  3037000493 is the largest prime
    with (p - 1)^2 < 2^63, which `RowSpace` takes."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    nrows, ncols = data.draw(st.integers(0, 40)), data.draw(st.integers(1, 30))
    density = data.draw(st.sampled_from([0.05, 0.2, 1.0]))
    block = rng.integers(0, p, (nrows, ncols)) * (rng.random((nrows, ncols)) < density)
    if nrows > 2:
        # repeated leads: rows moved onto the lead of row 0
        lead = block[0].astype(object)
        mix = rng.integers(1, p, nrows // 2).astype(object)
        block[1:1 + nrows // 2] = np.array(
            (mix[:, None] * lead[None, :] + block[1:1 + nrows // 2]) % p, dtype=np.int64)
    want, pivots = rref_reference(block, p)
    cuts = sorted(data.draw(st.lists(st.integers(0, nrows), max_size=4)))
    for bounds in ([0, nrows], [0, *cuts, nrows]):
        space = RowSpace(p, ncols)
        for lo, hi in zip(bounds, bounds[1:]):
            before = space.pivots
            stored = stored_matrix(space.add(*entries(block[lo:hi])), ncols)
            new = [c for c in space.pivots if c not in before]
            assert len(stored) == len(new)
            for row, c in zip(stored, new):
                assert row[c] == 1 and not row[:c].any()
            at = [space.pivots.index(c) for c in new]
            assert np.array_equal(stored, space_matrix(space)[at])
        assert np.array_equal(space_matrix(space), want) and space.pivots == pivots


def test_sum_entries_sums_repeats_and_drops_zeros():
    got = sum_entries(np.array([2, 0, 2, 0, 1]), np.array([1, 3, 1, 0, 2]),
                      np.array([3, 4, 2, 1, 5]), 5)
    # (2, 1) sums to 5 = 0 and (1, 2) is 5 = 0; the rest sorted by row, column
    assert [a.tolist() for a in got] == [[0, 0], [0, 3], [1, 4]]
    assert all(a.size == 0 for a in sum_entries(*(np.zeros(0, dtype=np.int64),) * 3, 7))


def test_row_space_allocates_no_square_array():
    tracemalloc.start()
    try:
        space = RowSpace(3, 4000)
        # the rows {0: 1, 3999: 2}, {5: 1}, {0: 2, 5: 1}, {3999: 1}
        space.add(np.array([0, 0, 1, 2, 2, 3]), np.array([0, 3999, 5, 0, 5, 3999]),
                  np.array([1, 2, 1, 2, 1, 1]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert space.pivots == [0, 5, 3999]
    assert peak < 1 << 20


def test_row_space_refuses_wrapping_products():
    # past (p - 1)^2 = 2^63 a product of two residues wraps in int64, and an
    # uncancelled lead would keep the echelon rounds going
    for p in (3037000501, 4294967311):
        with pytest.raises(ValueError, match="2\\^63"):
            RowSpace(p, 3)
    # the largest prime below the bound: 2 * x + (p - 1) * y, lead scaled to 1
    p = 3037000493
    space = RowSpace(p, 3)
    space.add(np.array([0, 0]), np.array([1, 2]), np.array([2, p - 1]))
    assert space.pivots == [1]
    assert space.basis.coef.tolist() == [1, (p - 1) // 2]


def test_rref_is_exact_past_int64_products():
    # (p - 1)^2 > 2^63: one product of two residues no longer fits in int64,
    # where groups' exact elimination picks the pivots of a model
    p = 4294967311
    mat = [[p - 1, p - 2, 3], [p - 3, 5, p - 7], [1, 2, p - 3]]
    rows, pivots = exact_rref(mat, p)
    assert pivots == rref_reference(mat, p)[1]
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
def matrices(draw, primes=PRIMES):
    p = draw(st.sampled_from(primes))
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
@given(matrices(primes=PRIMES + [4294967311]))  # past it (p - 1)^2 passes 2^63
def test_rref_matches_column_scan(case):
    p, mat = case
    # `RowSpace` refuses the last prime, where groups' exact elimination runs
    rows, pivots = (rref if p in PRIMES else exact_rref)(mat, p)
    want_rows, want_pivots = rref_reference(mat, p)
    assert rows.dtype == np.int64
    assert rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)
    assert pivots == want_pivots


def test_rref_reference_is_exact_past_int64_products():
    # an int64 column scan wrapped here and returned three rows, not echelon
    p = 4294967311
    mat = [[p - 1, p - 2, 3], [p - 3, 5, p - 7], [1, 2, p - 3]]
    rows, pivots = rref_reference(mat, p)
    want_rows, want_pivots = exact_rref(mat, p)
    assert pivots == want_pivots == [0, 1]
    assert np.array_equal(rows, want_rows)


def test_rref_rejects_non_integers():
    # [[0.5, 1.7]] was cut to [[0, 1]]
    for mat in ([[0.5, 1.7]], [[1 + 2j, 0]], [[True, False]]):
        with pytest.raises(ValueError, match="integers"):
            rref(mat, 3)
    rows, pivots = rref(np.array([[3 ** 50 + 2, 4]], dtype=object), 3)
    assert rows.tolist() == [[1, 2]] and pivots == [0]


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
    # the routes in Python ints are exact: groups' elimination, whose
    # pivots must match the column scan's, and the row loop
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    nrows = data.draw(st.integers(0, 12))
    ncols = data.draw(st.integers(1, 24))
    density = data.draw(st.sampled_from([0.1, 0.5, 1.0]))
    mat = rng.integers(0, p, (nrows, ncols)) * (rng.random((nrows, ncols)) < density)
    rows, pivots = (rref_reference if p == PRIMES[-1] else exact_rref)(mat, p)
    if p != PRIMES[-1]:
        assert pivots == rref_reference(mat, p)[1]
    block = rng.integers(0, p, (data.draw(st.integers(2, 6)), ncols))
    # members of the span, combined with Python ints so they cannot wrap
    mix = rng.integers(0, p, (block[::2].shape[0], rows.shape[0])).astype(object)
    block[::2] = np.array(mix @ rows.astype(object) % p, dtype=np.int64).reshape(
        block[::2].shape)
    want = [as_dict(residual_by_rows(rows, pivots, v, p)) for v in block]
    assert not any(want[::2])
    if p == PRIMES[-1]:
        # the residual kernel needs (p - 1)^2 < 2^63
        assert residual_dicts(block, rows, pivots, p) == want
        whole = reduce_block(rows, pivots, block, p)
        assert not whole[::2].any()
        for v, res in zip(block, whole):
            assert np.array_equal(reduce_block(rows, pivots, v[None, :], p)[0], res)
            assert np.array_equal(res, residual_by_rows(rows, pivots, v, p))
