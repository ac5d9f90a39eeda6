import functools
import tracemalloc

import numpy as np
import pytest

from iwacalc import (
    ModelError, TruncationSpec, control, groups, load_abelian, load_unitriangular,
    moore, operators,
)
from iwacalc.linalg import SparseMap, sum_entries

from oracles import (
    apply_entries_reference, compiled_laws_reference, deg_omega_reference,
    divided_power_block_reference, embed_rows_reference, group_columns_reference,
    laws_or_message,
)


@pytest.fixture(scope="session", autouse=True)
def deg_omega_matches_reference():
    """Every degree estimate of the session, the checks of every
    automorphism that a test or a golden config run in process builds
    included, equals the `Val` route of `oracles.deg_omega_reference`."""
    estimate = groups.deg_omega

    def checked(phi):
        got, want = estimate(phi), deg_omega_reference(phi)
        assert got == want and type(got) is type(want), (got, want)
        return got
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "deg_omega", checked)
        yield


@pytest.fixture(scope="session", autouse=True)
def compiled_laws_match_reference():
    """Every unitriangular law compiled in the session, those of the golden
    configs run in process included, equals the two-peel route of
    `oracles.compiled_laws_reference`, and a model that one route rejects
    the other rejects with the same message."""
    compile_laws = groups.UnitriangularModel._compile_laws

    @functools.wraps(compile_laws)
    def checked(model):
        got = laws_or_message(compile_laws, model)
        assert got == laws_or_message(compiled_laws_reference, model)
        if isinstance(got, str):
            raise ModelError(got)
        return got
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups.UnitriangularModel, "_compile_laws", checked)
        yield


@pytest.fixture(scope="session", autouse=True)
def sparse_applies_match_reference():
    """Every `SparseMap.apply_entries` of the session, through the offsets
    that the map keeps, gives the arrays of the two binary searches of
    `oracles.apply_entries_reference`, entry for entry in the same order."""
    apply_entries = SparseMap.apply_entries

    @functools.wraps(apply_entries)
    def checked(m, rows, cols, coefs):
        got = apply_entries(m, rows, cols, coefs)
        want = apply_entries_reference(m, rows, cols, coefs)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(got, want, strict=True))
        return got
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SparseMap, "apply_entries", checked)
        yield


@pytest.fixture(scope="session", autouse=True)
def divided_power_passes_match_reference():
    """Every pass of the divided-power kernel `_divided_power_slices` in the
    session, the whole-basis builds of `divided_power_maps` included, and
    every `divided_power_block` that `control`, `moore` and `operators`
    call, equals the maps of `oracles.divided_powers_reference` applied to
    its block, repeats summed.  A pass is checked slice by slice, each
    against the maps of its own alphas, and not while tracemalloc traces,
    since the check's arrays would count in the peak that the memory tests
    bound; the golden configs build the same maps in process, checked."""
    kernel, block_of = operators._divided_power_slices, operators.divided_power_block

    def same(got, want):
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(got, want, strict=True))

    def checked_pass(trunc, alphas, block=None):
        if tracemalloc.is_tracing():
            yield from kernel(trunc, alphas, block)
            return
        # no block is the identity block, entry s being b^s in row s
        ident = np.arange(trunc.size)
        given = (ident, ident, np.ones_like(ident)) if block is None else block
        rows = given[0]
        n = int(rows.max()) + 1 if rows.size else 1
        lo = 0
        for cuts, at, tgt, coef in kernel(trunc, alphas, block):
            hi = lo + len(cuts) - 1
            k = np.repeat(np.arange(hi - lo), np.diff(cuts))
            same(sum_entries(k * n + rows[at], tgt, coef, trunc.model.p),
                 divided_power_block_reference(trunc, alphas[lo:hi], given, n))
            lo = hi
            yield cuts, at, tgt, coef
        assert lo == len(alphas)

    def checked_block(trunc, alphas, block, n):
        got = block_of(trunc, alphas, block, n)
        same(sum_entries(*got, trunc.model.p),
             divided_power_block_reference(trunc, alphas, block, n))
        return got
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(operators, "_divided_power_slices", checked_pass)
        for module in (operators, control, moore):
            patch.setattr(module, "divided_power_block", checked_block)
        yield


@pytest.fixture(scope="session", autouse=True)
def group_columns_match_reference():
    """Every `TruncationSpec._group_columns` call of the session, the right
    maps, aut maps and Mahler rows of the golden configs run in process
    included, gives the entries of the nonzeros of the dense blocks of
    `oracles.group_columns_reference`, array for array."""
    group_columns = TruncationSpec._group_columns

    @functools.wraps(group_columns)
    def checked(t, exps, image, start=None, labels=None):
        got = group_columns(t, exps, image, start, labels)
        dense = group_columns_reference(t, exps, image, start, labels)
        rows, cols = np.nonzero(dense)
        assert all(a.dtype == b.dtype and np.array_equal(a, b)
                   for a, b in zip(got, (rows, cols, dense[rows, cols]), strict=True))
        return got
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TruncationSpec, "_group_columns", checked)
        yield


@pytest.fixture(scope="session", autouse=True)
def embed_entries_match_reference():
    """Every `TruncationSpec._embed_entries` call of the session whose dense
    rows hold at most 2^20 entries, those of the group kernel, the dagger,
    the zeta directions and the golden configs run in process included,
    gives int64 entries sorted by row that are, sorted by column within a
    row, the nonzeros of `oracles.embed_rows_reference`.  Not checked while
    tracemalloc traces, since the dense rows would count in the peak that
    the memory tests bound."""
    embed_entries = TruncationSpec._embed_entries

    @functools.wraps(embed_entries)
    def checked(t, coords):
        got = embed_entries(t, coords)
        if tracemalloc.is_tracing() or np.size(coords) // t.model.rank * t.size > 1 << 20:
            return got
        rows, cols, coefs = got
        assert all(a.dtype == np.int64 for a in got) and (np.diff(rows) >= 0).all()
        order = np.lexsort((cols, rows))
        dense = embed_rows_reference(t, coords)
        want = np.nonzero(dense)
        assert all(np.array_equal(a, b) for a, b in zip(
            (rows[order], cols[order], coefs[order]), (*want, dense[want]), strict=True))
        return got
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TruncationSpec, "_embed_entries", checked)
        yield


def heisenberg_generators(p):
    def elementary(i, j, c):
        rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        rows[i][j] = c
        return rows
    return [elementary(0, 1, p), elementary(1, 2, p), elementary(0, 2, p)]


def u4_generators(p):
    """1 + p E_ij for (i, j) = 01, 12, 23, 02, 13, 03: the 4 x 4
    unitriangular group, ordered along its lower central series."""
    def elementary(i, j):
        rows = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
        rows[i][j] = p
        return rows
    return [elementary(i, j) for i, j in
            [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]]


@pytest.fixture(scope="session")
def abelian2():
    return load_abelian(3, 2, 4, ["1", "1"], centre_exponents=[0, 4])


@pytest.fixture(scope="session")
def trunc2(abelian2):
    return TruncationSpec(abelian2, 8)


@pytest.fixture(scope="session")
def heis():
    return load_unitriangular(5, 3, 3, heisenberg_generators(5),
                              ["1", "1", "2"], centre_exponents=[3, 3, 0])


@pytest.fixture(scope="session")
def trunc_heis(heis):
    return TruncationSpec(heis, 6)


@pytest.fixture(scope="session")
def trunc_heis_wide(heis):
    # wide enough for the commutator correction 4*b3^5 (weight 10) to show
    return TruncationSpec(heis, 11)


@pytest.fixture(scope="session")
def u4():
    # rank 6, nilpotency class 3
    return load_unitriangular(5, 4, 6, u4_generators(5),
                              ["1", "1", "1", "3/2", "3/2", "2"], e=2)


@pytest.fixture(scope="session")
def abelian3():
    return load_abelian(3, 3, 4, ["1", "1", "1"], centre_exponents=[0, 0, 4])


@pytest.fixture(scope="session")
def trunc3(abelian3):
    return TruncationSpec(abelian3, 8)


@pytest.fixture(scope="session")
def zmodel():
    return load_abelian(3, 1, 6, ["1"])


@pytest.fixture(scope="session")
def tzeta(zmodel):
    return TruncationSpec(zmodel, 60)


@pytest.fixture(scope="session")
def trunc_e4():
    # e > 1: weights in (1/4)Z, cutoff W/e = 5
    return TruncationSpec(load_abelian(5, 2, 3, ["1/2", "3/4"], 4), 20)
