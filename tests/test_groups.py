"""Group models, subgroups and automorphisms on the two main corpora."""

import inspect
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from iwacalc import (
    AtLeast, Automorphism, ModelError, PrecisionError, SubgroupSpec,
    deg_omega, eq_compatible, groups, gt_provable, load_abelian, load_model,
    load_unitriangular, subgroup_from_exponents, val_min,
)
from iwacalc.groups import (
    _VALIDATION_SEED, AbelianModel, GroupElement, UnitriangularModel,
)
from iwacalc.rng import Pcg32

from conftest import heisenberg_generators, u4_generators
from oracles import (
    MatrixRoute, compiled_laws_reference, ge_refuted, is_trivial_mod_centre,
    mat_pow, omega_of, omega_of_reference, residue_vp, rref_reference,
    sample_element, val_add, z_of_automorphism,
)


def test_abelian_arithmetic(abelian2):
    m = abelian2
    x = m.element([5, 7])
    y = m.element([2, 80])
    assert (x * y).coords == (7, 6)  # mod 3^4 = 81
    assert m.inv(x).coords == (76, 74)
    assert m.pow(x, 3).coords == (15, 21)
    assert (x * m.inv(x)).coords == (0, 0)


def test_abelian_omega(abelian2):
    m = abelian2
    assert omega_of(m, m.element([3, 0])) == 2
    assert omega_of(m, m.element([1, 9])) == 1
    w = omega_of(m, m.identity())
    assert isinstance(w, AtLeast) and w.bound == 5  # min omega + precision


def test_omega_validation():
    with pytest.raises(ModelError):
        load_abelian(3, 1, 4, ["1/2"], e=2)  # at the 1/(p-1) floor
    with pytest.raises(ModelError):
        load_abelian(3, 1, 4, ["1/2"])  # not a multiple of 1/e
    with pytest.raises(ModelError):
        load_abelian(3, 2, 4, ["1"])  # wrong length


def test_omega_validation_names_precision_when_undecided():
    # in U_4 the generators p*E_02 and p*E_03 commute, so their commutator
    # is the identity, whose valuation min(omega) + M = 5 at M = 4 is only a
    # lower bound equal to omega(g_4) + omega(g_6)
    gens = u4_generators(5)
    omega = ["1", "1", "1", "2", "2", "3"]
    with pytest.raises(ModelError) as err:
        load_unitriangular(5, 4, 4, gens, omega)
    message = str(err.value)
    assert message.startswith("omega([g_4, g_6]) is not provably above "
                              "omega(g_4) + omega(g_6) = 5")
    assert "only known to be >=5" in message
    assert "precision M=4" in message and "a larger M would decide it" in message
    model = load_unitriangular(5, 4, 8, gens, omega)
    assert model.rank == 6


def test_abelian_models_load_at_low_precision():
    # an abelian commutator is the identity, whose valuation reads only as
    # AtLeast(omega_i + M): at M = 1 and omega = (1, 1) that is >= 2, and at
    # M = 2 and omega = (1, 2) it is >= 3, neither provably above the sum
    assert load_abelian(3, 2, 1, ["1", "1"]).precision == 1
    assert load_abelian(3, 2, 2, ["1", "2"]).precision == 2


def test_abelian_model_with_empty_basis_is_rejected():
    with pytest.raises(ModelError, match="basis is empty"):
        load_abelian(3, 0, 4, [])


def test_unitriangular_model_with_empty_basis_is_rejected():
    with pytest.raises(ModelError, match="basis is empty"):
        load_unitriangular(5, 3, 3, [], [])
    # a 1 x 1 model has no generators either, and fails the same way
    with pytest.raises(ModelError, match="basis is empty"):
        load_unitriangular(3, 1, 3, [], [])


def test_coordinate_range_validation():
    # 3^40 > 2^63: rejected before any coordinate is sampled
    with pytest.raises(ModelError, match="2\\^63"):
        load_abelian(3, 1, 40, ["1"])
    with pytest.raises(ModelError, match="2\\^63"):
        load_unitriangular(5, 3, 28, heisenberg_generators(5), ["1", "1", "2"])
    assert load_abelian(2, 1, 63, ["2"]).precision == 63  # 2^63 itself is in range


def test_heisenberg_native_matrices(heis):
    route = MatrixRoute(heis)
    g1, g2, g3 = heis.basis()
    assert route.native(g1.coords) == ((1, 5, 0), (0, 1, 0), (0, 0, 1))
    assert route.native(g3.coords) == ((1, 0, 5), (0, 1, 0), (0, 0, 1))
    sq = heis.pow(g1, 2)
    assert route.native(sq.coords) == ((1, 10, 0), (0, 1, 0), (0, 0, 1))


def test_heisenberg_theta_round_trip(heis):
    route = MatrixRoute(heis)
    rng = Pcg32(21)
    box = 5 ** 3
    for _ in range(10):
        coords = tuple(rng.below(box) for _ in range(3))
        assert route.theta_coords(route.native(coords)) == coords


def test_heisenberg_commutator(heis):
    g1, g2, _ = heis.basis()
    assert heis.commutator(g1, g2).coords == (0, 0, 5)
    assert heis.commutator(g2, g1).coords == (0, 0, 120)


def test_heisenberg_mul_against_matrices(heis):
    route = MatrixRoute(heis)
    rng = Pcg32(22)
    box = 5 ** 3
    mod = 5 ** 4
    for _ in range(8):
        x = heis.element([rng.below(box) for _ in range(3)])
        y = heis.element([rng.below(box) for _ in range(3)])
        prod = heis.mul(x, y)
        nx, ny = route.native(x.coords), route.native(y.coords)
        want = tuple(
            tuple(sum(nx[i][k] * ny[k][j] for k in range(3)) % mod
                  for j in range(3))
            for i in range(3))
        assert route.native(prod.coords) == want


@pytest.fixture(scope="module", params=["heis", "u4"])
def law(request):
    model = request.getfixturevalue(request.param)
    return model, MatrixRoute(model)


def _coords(model):
    box = st.integers(0, model.p ** model.precision - 1)
    return st.lists(box, min_size=model.rank, max_size=model.rank).map(tuple)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_compiled_law_matches_matrix_route(law, data):
    model, route = law
    pm = model.p ** model.precision
    x, y = data.draw(_coords(model)), data.draw(_coords(model))
    s = data.draw(st.integers(-2 * pm, 2 * pm))
    ex, ey = model.element(x), model.element(y)
    assert model.mul(ex, ey).coords == route.mul(x, y)
    assert model.inv(ex).coords == route.inv(x)
    assert model.pow(ex, s).coords == route.pow(x, s)


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_compiled_first_kind_matches_matrix_route(law, data):
    model, route = law
    x, mu = data.draw(_coords(model)), data.draw(_coords(model))
    first = model.first_kind_coords(model.element(x))
    assert first == route.first_kind_coords(x)
    assert model.from_first_kind(first).coords == x
    assert model.from_first_kind(model.element(mu).coords).coords == \
        route.from_first_kind(mu)


@pytest.fixture(scope="module", params=["abelian3", "heis", "u4"])
def int_model(request):
    return request.getfixturevalue(request.param)


def test_element_and_pow_take_integers_only(abelian2, heis):
    """Coordinates and exponents are Python or numpy integers; a float or a
    bool is refused, not cut down to an integer."""
    for model in (abelian2, heis):
        ones = [1] * model.rank
        assert model.element([np.int64(2)] + ones[1:]).coords == (2, *ones[1:])
        for c in (1.7, True, np.float64(2.0), np.bool_(True), "1"):
            with pytest.raises(ValueError, match="coordinate 1 "):
                model.element([c] + ones[1:])
        g = model.element(ones)
        assert model.pow(g, np.int64(2)).coords == model.pow(g, 2).coords
        for lam in (2.9, True, 2.0):
            with pytest.raises(ValueError, match="exponent"):
                model.pow(g, lam)


def _digits(v: int, p: int, M: int) -> list[int]:
    """The M base-p digits of v, least significant first."""
    out = []
    for _ in range(M):
        v, d = divmod(v, p)
        out.append(d)
    return out


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_int_coordinates_match_digit_routes(int_model, data):
    """Coordinates are ints in [0, p^M): the readers that once took base-p
    digits agree with the digit form, and every result stays in range."""
    model = int_model
    p, M = model.p, model.precision
    pm = p ** M
    rank = model.rank
    x, y = data.draw(_coords(model)), data.draw(_coords(model))
    shifts = data.draw(st.lists(st.integers(0, M), min_size=rank, max_size=rank))
    exps = data.draw(st.lists(st.integers(0, M + 1), min_size=rank, max_size=rank))
    spec = SubgroupSpec(model, tuple(exps))
    divisible = tuple(v * p ** k % pm for v, k in zip(x, shifts))
    for c in (x, divisible, (0,) * rank):
        el = model.element(c)
        digits = [_digits(v, p, M) for v in c]
        # vp read off the digits, apart from residue_vp
        vps = [next((i for i, v in enumerate(d) if v), AtLeast(Fraction(M)))
               for d in digits]
        assert [residue_vp(v, p, M) for v in c] == vps
        assert omega_of(model, el) == val_min(
            [val_add(w, v) for w, v in zip(model.omega.values, vps)])
        assert spec.contains(el) == all(
            not any(d[:min(n, M)]) for d, n in zip(digits, exps))
        assert el.coords == c
        assert model.element([v - pm for v in c]).coords == c
    ex, ey = model.element(x), model.element(y)
    s = data.draw(st.integers(-2 * pm, 2 * pm))
    mu = data.draw(st.lists(st.integers(-2 * pm, 2 * pm), min_size=rank,
                            max_size=rank))
    for out in (model.mul(ex, ey), model.inv(ex), model.pow(ex, s),
                model.from_first_kind(mu)):
        assert all(type(v) is int and 0 <= v < pm for v in out.coords)
    assert all(0 <= v < pm for v in model.first_kind_coords(ex))


def test_compiled_law_checks_run_at_load():
    def elementary(i, j):
        rows = [[1 if a == b else 0 for b in range(3)] for a in range(3)]
        rows[i][j] = 5
        return rows
    # the central g3 first: g3^c g1^a g2^b is not reached by peeling g3 off
    # the log of a product, since log(g1^a g2^b) has a g3 part
    with pytest.raises(ModelError, match="do not exhaust the matrix"):
        load_unitriangular(5, 3, 3, [elementary(0, 2), elementary(0, 1),
                                     elementary(1, 2)], ["2", "1", "1"])
    # without g3, the commutator of g1 and g2 leaves the span of the logs
    with pytest.raises(ModelError, match="not in the span of the basis logs"):
        load_unitriangular(5, 3, 3, heisenberg_generators(5)[:2], ["1", "1"])


def _big_prime_model():
    p = 4294967311
    # log g = g - 1 = p ((p - 1) E_02 + 2 E_12): no entry at position (0, 1)
    return load_unitriangular(p, 3, 1, [[[1, 0, (p - 1) * p], [0, 1, 2 * p],
                                         [0, 0, 1]]], ["1"])


def _one_log_route():
    """`UnitriangularModel._compile_laws` without the session check of
    conftest, which runs the two-peel route beside it."""
    return inspect.unwrap(UnitriangularModel._compile_laws)


def test_compiled_laws_match_the_two_peel_route(heis, u4):
    """The product law from one log and a substitution, and the two
    first-kind laws, equal the two-peel route's polynomials as tuples."""
    models = [heis, u4, _big_prime_model()]
    for name in ("heisenberg", "u4"):
        doc = json.loads((Path(__file__).parent / "cli_golden" / f"{name}.json")
                         .read_text(encoding="utf-8"))
        cfg, trunc = doc["model"], doc["truncation"]
        models.append(load_unitriangular(doc["p"], cfg["size"], trunc["M"],
                                         cfg["generators"], doc["omega"],
                                         trunc.get("e", 1), cfg.get("centre")))
    for model in models:
        laws = model._mul_law, model._first_kind_law, model._from_first_kind_law
        assert laws == _one_log_route()(model) == compiled_laws_reference(model)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([5, 7]), st.integers(1, 3), st.data())
def test_heisenberg_type_draws_load_alike_on_both_routes(p, M, data):
    """Generators 1 + p(a E_01 + b E_12 + c E_02): both compile routes load
    the same draws, with equal laws, and reject the others with the same
    message, from the solver, the compile or the validation after it."""
    multiple = st.integers(0, p ** M - 1).map(lambda k: p * k)
    gens = [[[1, a, c], [0, 1, b], [0, 0, 1]] for a, b, c in data.draw(
        st.lists(st.tuples(multiple, multiple, multiple), min_size=1, max_size=3))]
    omega = data.draw(st.lists(st.sampled_from(["1", "2"]), min_size=len(gens),
                               max_size=len(gens)))

    def load(compile_laws):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(UnitriangularModel, "_compile_laws", compile_laws)
            try:
                model = load_unitriangular(p, 3, M, gens, omega)
            except ModelError as err:
                return str(err)
        return model._mul_law, model._first_kind_law, model._from_first_kind_law
    assert load(_one_log_route()) == load(compiled_laws_reference)


def test_load_builds_one_normal_form_and_one_peel(monkeypatch):
    """A load builds the normal form once and peels once, both on d
    symbols: the product law is one log of NF(x) NF(y), not a peel of a
    matrix in 2d symbols."""
    monkeypatch.setattr(UnitriangularModel, "_compile_laws", _one_log_route())
    calls = []
    for name in ("_normal_form", "_peel"):
        def counted(self, *args, _name=name, _method=getattr(UnitriangularModel, name)):
            calls.append((_name, len(args[-1])))
            return _method(self, *args)
        monkeypatch.setattr(UnitriangularModel, name, counted)
    for load, d in [
            (lambda: load_unitriangular(5, 3, 3, heisenberg_generators(5),
                                        ["1", "1", "2"], centre_exponents=[3, 3, 0]), 3),
            (lambda: load_unitriangular(5, 4, 6, u4_generators(5),
                                        ["1", "1", "1", "3/2", "3/2", "2"], e=2), 6)]:
        calls.clear()
        load()
        assert sorted(calls) == [("_normal_form", d), ("_peel", d)]


def test_load_rejects_generators_whose_logs_are_dependent_mod_p():
    """Two equal generators, and two whose logs p E_01 and p(1 + p) E_01
    are independent over Z_p but not mod p, are no ordered basis."""
    g = heisenberg_generators(5)[0]
    h = [[1, 5 * 6, 0], [0, 1, 0], [0, 0, 1]]
    for gens in ([g, g], [g, h]):
        with pytest.raises(ModelError, match="generator logs are dependent mod p; "
                                             "not an ordered basis"):
            load_unitriangular(5, 3, 3, gens, ["1", "1"])
    # the boundary: h in place of g is an ordered basis of the group
    model = load_unitriangular(5, 3, 3, [h] + heisenberg_generators(5)[1:],
                               ["1", "1", "2"])
    assert model._pivot_rows == [0, 1, 2]


def test_first_kind_of_log_rejects_an_entry_not_divisible_by_p(heis):
    """A load cannot reach this rejection: every generator is 1 mod p, so
    every matrix the compile builds is 1 mod p and its log is 0 mod p.  A
    hand-built log matrix reaches it; an entry divisible by p passes."""
    def log_matrix(entry):
        return tuple(tuple({(): entry} if (i, j) == (0, 1) else {} for j in range(3))
                     for i in range(3))
    assert heis._first_kind_of_log(log_matrix(5)) == [{(): 1}, {}, {}]
    with pytest.raises(ModelError, match="log entry not divisible by p; "
                                         "element outside the group"):
        heis._first_kind_of_log(log_matrix(6))


def test_p_valuation_axioms(heis):
    rng = Pcg32(23)
    for _ in range(12):
        x = sample_element(heis, rng)
        y = sample_element(heis, rng)
        wx, wy = omega_of(heis, x), omega_of(heis, y)
        assert not ge_refuted(
            omega_of(heis, x * heis.inv(y)), val_min([wx, wy]))
        assert not ge_refuted(omega_of(heis, heis.commutator(x, y)), val_add(wx, wy))
        if not isinstance(wx, AtLeast):
            assert eq_compatible(omega_of(heis, heis.pow(x, 5)), Fraction(wx) + 1)


def test_pivot_rows_are_exact_past_int64_products(heis, u4):
    """The d pivot rows of the logs, picked in Python ints: the same rows as
    the column scan, also at a prime whose products of residues pass 2^63."""
    assert heis._pivot_rows == [0, 1, 2] and u4._pivot_rows == [0, 1, 2, 3, 4, 5]
    model = _big_prime_model()
    p = model.p
    assert model._pivot_rows == [1]
    for m in (heis, u4, model):
        v = np.array(m._vmatrix, dtype=object).T
        assert m._pivot_rows == rref_reference(v, m.p)[1]
    x, y = model.element((p - 2,)), model.element((5,))
    assert (x * y).coords == (3,) and model.pow(x, 3).coords == (p - 6,)


def test_unitriangular_validation():
    with pytest.raises(ModelError):
        load_unitriangular(3, 3, 3, heisenberg_generators(3), ["1", "1", "2"])
    bad = [[[1, 1, 0], [0, 1, 0], [0, 0, 1]]]  # off-diagonal not divisible by p
    with pytest.raises(ModelError):
        load_unitriangular(5, 3, 3, bad, ["1"])


def test_centre_declaration(heis):
    centre = heis.centre
    assert centre.exponents == (3, 3, 0)
    gens = centre.generators()
    assert len(gens) == 1 and gens[0].coords == (0, 0, 1)
    assert centre.contains(heis.element([0, 0, 7]))
    assert not centre.contains(heis.element([0, 1, 0]))


def test_declared_centre_must_be_central(heis):
    assert heis.centre.is_central()
    g1_only = subgroup_from_exponents(heis, (0, 3, 3))
    assert not g1_only.is_central()
    with pytest.raises(ModelError, match="declared centre does not commute"):
        load_unitriangular(5, 3, 3, heisenberg_generators(5), ["1", "1", "2"],
                           centre_exponents=[0, 3, 3])
    # every subgroup of an abelian model is central
    assert load_abelian(3, 2, 4, ["1", "1"], centre_exponents=[1, 0]).centre.is_central()


def test_subgroup_spec(heis):
    H = subgroup_from_exponents(heis, (1, 1, 0))
    assert H.contains(heis.element([5, 10, 3]))
    assert not H.contains(heis.element([1, 0, 0]))
    with pytest.raises(ModelError):
        subgroup_from_exponents(heis, (1, 1))
    with pytest.raises(ModelError):
        subgroup_from_exponents(heis, (-1, 0, 0))


def _tamper(monkeypatch, cls, name, table):
    """Replace the method `name` of a model class by the true law, except
    that a call whose arguments (coordinates, or an exponent) are a key of
    `table` returns the element with the coordinates stored there."""
    real = getattr(cls, name)

    def law(self, a, *rest):
        hit = table.get((a.coords,) + tuple(getattr(r, "coords", r) for r in rest))
        return real(self, a, *rest) if hit is None else GroupElement(self, hit)
    monkeypatch.setattr(cls, name, law)


def _omega_pairs(model):
    """The 8 sample pairs (x, y) of the omega checks at load, drawn one
    element at a time."""
    rng = Pcg32(_VALIDATION_SEED, stream=17)
    return [(sample_element(model, rng), sample_element(model, rng)) for _ in range(8)]


def _heis_args(precision, omega, e=1):
    """Arguments of `load_unitriangular` for the Heisenberg model at p = 5,
    without a declared centre."""
    return (5, 3, precision, heisenberg_generators(5), omega, e)


@pytest.mark.parametrize("image, loads", [((1, 0, 0), True), ((0, 0, 1), False),
                                          ((0, 0, 0), True)])
def test_load_rejects_a_sample_that_breaks_the_quotient_axiom(monkeypatch, image, loads):
    # omega = (5/8, 5/8, 1/2): pair 2 has both valuations 5/8, above the
    # least omega, and x y^-1 is tampered to omega 5/8 (the bound itself),
    # 1/2 (below it) or the identity, only known to be >= 7/2 and never a
    # refutation
    args = _heis_args(3, ["5/8", "5/8", "1/2"], 8)
    model = load_unitriangular(*args)
    x, y = _omega_pairs(model)[2]
    assert (x.coords, y.coords) == ((28, 61, 60), (86, 34, 10))
    assert omega_of(model, x) == omega_of(model, y) == Fraction(5, 8)
    _tamper(monkeypatch, UnitriangularModel, "mul",
            {(x.coords, model.inv(y).coords): image})
    if loads:
        load_unitriangular(*args)
    else:
        with pytest.raises(ModelError, match=r"omega\(x y\^-1\) >= min fails on "
                                             r"x=\(28, 61, 60\), y=\(86, 34, 10\)"):
            load_unitriangular(*args)


@pytest.mark.parametrize("image, loads", [((5, 0, 0), True), ((1, 0, 0), False),
                                          ((0, 0, 0), True)])
def test_load_rejects_a_sample_that_breaks_the_commutator_axiom(monkeypatch, image,
                                                                loads):
    # pair 0 is ((79, 40, 22), (34, 73, 99)), both of valuation 1: [x, y] is
    # tampered to omega 2 = omega(x) + omega(y), to 1, or to the identity,
    # >= 4
    args = _heis_args(3, ["1", "1", "2"])
    model = load_unitriangular(*args)
    x, y = _omega_pairs(model)[0]
    assert omega_of(model, x) == omega_of(model, y) == 1
    outer = (model.mul(model.inv(x), model.inv(y)).coords, model.mul(x, y).coords)
    _tamper(monkeypatch, UnitriangularModel, "mul", {outer: image})
    if loads:
        load_unitriangular(*args)
    else:
        with pytest.raises(ModelError, match=r"omega\(\[x, y\]\) >= omega\(x\) \+ "
                                             r"omega\(y\) fails on a sample"):
            load_unitriangular(*args)


@pytest.mark.parametrize("precision, image, loads", [
    (4, (5, 0, 0), True),    # omega 3/2 = omega(x) + 1
    (4, (1, 0, 0), False),   # 1/2, below it
    (4, (25, 0, 0), False),  # 5/2, above it: the claim is an equality
    (2, (0, 0, 0), False),   # the identity, >= 5/2 at M = 2: above the claim
    (1, None, True),         # the true x^5, the identity, >= 3/2 at M = 1: compatible
    (1, (1, 0, 0), False),
])
def test_load_rejects_a_sample_that_breaks_the_power_axiom(monkeypatch, precision,
                                                           image, loads):
    # omega = 1/2 on every generator: the least omega plus M = 1 is omega(x)
    # + 1, so at M = 1 every x^5, the identity, is a marker at the claim
    args = _heis_args(precision, ["1/2", "1/2", "1/2"], 2)
    model = load_unitriangular(*args)
    x, _ = _omega_pairs(model)[0]
    assert omega_of(model, x) == Fraction(1, 2)
    if image is None:
        assert model.pow(x, 5) == model.identity()
    else:
        _tamper(monkeypatch, UnitriangularModel, "pow", {(x.coords, 5): image})
    if loads:
        load_unitriangular(*args)
    else:
        with pytest.raises(ModelError, match=r"omega\(x\^p\) = omega\(x\) \+ 1 fails "
                                             "on a sample"):
            load_unitriangular(*args)


@pytest.mark.parametrize("image, ok", [((25, 1, 0), True), ((5, 4, 5), True),
                                       ((1, 1, 0), False), ((5, 1, 1), False)])
def test_subgroup_rejects_a_generator_product_that_escapes(monkeypatch, heis, image,
                                                           ok):
    # generators g1^5, g2 and g3^5: a product must have its first and third
    # coordinates divisible by 5
    _tamper(monkeypatch, UnitriangularModel, "mul", {((5, 0, 0), (0, 1, 0)): image})
    if ok:
        assert subgroup_from_exponents(heis, (1, 0, 1)).exponents == (1, 0, 1)
    else:
        with pytest.raises(ModelError, match=r"exponents \(1, 0, 1\) do not span a "
                                             "subgroup: generator product escapes"):
            subgroup_from_exponents(heis, (1, 0, 1))


@pytest.mark.parametrize("image, ok", [((5, 3, 50), True), ((1, 0, 0), False),
                                       ((0, 0, 1), False)])
def test_subgroup_rejects_a_commutator_that_escapes(monkeypatch, heis, image, ok):
    # the commutator of g1^5 and g2, g3^25, is the product of (g2 g1^5)^-1
    # and g1^5 g2; that outer product is tampered, the generator products not
    a, b = heis.element((5, 0, 0)), heis.element((0, 1, 0))
    assert heis.commutator(a, b).coords == (0, 0, 25)
    outer = (heis.mul(heis.inv(a), heis.inv(b)).coords, heis.mul(a, b).coords)
    _tamper(monkeypatch, UnitriangularModel, "mul", {outer: image})
    if ok:
        subgroup_from_exponents(heis, (1, 0, 1))
    else:
        with pytest.raises(ModelError, match=r"exponents \(1, 0, 1\) do not span a "
                                             "subgroup: commutator escapes"):
            subgroup_from_exponents(heis, (1, 0, 1))


def _closure_pairs(model, exps):
    """The 6 sample pairs (x, y) of the closure check of
    `subgroup_from_exponents`, drawn one coordinate at a time."""
    p, M = model.p, model.precision
    rng = Pcg32(_VALIDATION_SEED, stream=23)

    def draw():
        return model.element([rng.below(p ** M) * p ** min(n, M) for n in exps])
    return [(draw(), draw()) for _ in range(6)]


@pytest.mark.parametrize("name, image, ok", [
    ("mul", (5, 89, 45), True), ("mul", (1, 89, 45), False),
    ("mul", (100, 89, 1), False),
    ("inv", (0, 69, 95), True), ("inv", (5, 0, 5), True), ("inv", (1, 0, 0), False),
])
def test_subgroup_rejects_a_sampled_product_or_inverse_that_escapes(
        monkeypatch, heis, name, image, ok):
    x, y = _closure_pairs(heis, (1, 0, 1))[0]
    assert (x.coords, y.coords) == ((0, 56, 30), (100, 33, 15))
    key = (x.coords, y.coords) if name == "mul" else (x.coords,)
    _tamper(monkeypatch, UnitriangularModel, name, {key: image})
    if ok:
        subgroup_from_exponents(heis, (1, 0, 1))
    else:
        with pytest.raises(ModelError, match=r"exponents \(1, 0, 1\) do not span a "
                                             "subgroup at precision"):
            subgroup_from_exponents(heis, (1, 0, 1))


def _count_calls(monkeypatch, cls, names) -> dict:
    """Wrap the methods `names` of a model class to record the arguments of
    each call (coordinates for elements) under its name."""
    calls = {name: [] for name in names}
    for name in names:
        def counted(self, *args, _name=name, _real=getattr(cls, name)):
            calls[_name].append(tuple(getattr(a, "coords", a) for a in args))
            return _real(self, *args)
        monkeypatch.setattr(cls, name, counted)
    return calls


def test_abelian_loads_and_subgroups_make_no_product_and_draw_no_sample(monkeypatch):
    """An abelian model, its declared centre and its exponent subgroups are
    accepted by proof; the Heisenberg model still draws its 8 pairs for the
    omega axioms and 6 for its centre."""
    calls = _count_calls(monkeypatch, AbelianModel,
                         ["mul", "inv", "pow", "commutator", "_samples"])
    for centre in (None, [0, 4]):
        model = load_abelian(3, 2, 4, ["1", "1"], centre_exponents=centre)
    H = subgroup_from_exponents(model, (2, 1))
    assert H.is_central() and model.centre.is_central()
    assert H.exponents == (2, 1) and model.centre.exponents == (0, 4)
    assert all(not c for c in calls.values()), calls
    samples = _count_calls(monkeypatch, UnitriangularModel, ["_samples"])["_samples"]
    heis = load_unitriangular(*_heis_args(3, ["1", "1", "2"]), centre_exponents=[3, 3, 0])
    assert samples == [(17, 16), (23, 12, [125, 125, 1])]
    subgroup_from_exponents(heis, (1, 0, 1))
    assert samples[2:] == [(23, 12, [5, 1, 5])]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_abelian_omega_axioms_never_refute(data):
    """The three checks that abelian loads no longer run never refute, on
    drawn pairs of small abelian models read through the `Val` route."""
    p = data.draw(st.sampled_from([2, 3, 5]))
    rank = data.draw(st.integers(1, 3))
    e = data.draw(st.integers(1, 2))
    M = data.draw(st.integers(1, 4))
    # omega_i in (1/e)Z, above 1/(p - 1)
    low = e // (p - 1) + 1
    omega = [Fraction(u, e) for u in data.draw(st.lists(
        st.integers(low, low + 3 * e), min_size=rank, max_size=rank))]
    model = load_abelian(p, rank, M, omega, e)
    coordinate = st.one_of(st.just(0), st.integers(0, p ** M - 1), st.builds(
        lambda k, u: p ** k * u % p ** M, st.integers(0, M - 1), st.integers(1, p ** M - 1)))
    for _ in range(4):
        x, y = (model.element(data.draw(st.lists(coordinate, min_size=rank,
                                                  max_size=rank))) for _ in range(2))
        wx, wy = omega_of(model, x), omega_of(model, y)
        assert not ge_refuted(omega_of(model, x * model.inv(y)), val_min([wx, wy]))
        assert not ge_refuted(omega_of(model, model.commutator(x, y)), val_add(wx, wy))
        if not isinstance(wx, AtLeast):
            assert eq_compatible(omega_of(model, model.pow(x, p)), Fraction(wx) + 1)


def test_linear_automorphism_degree_guard(heis):
    # g1 -> g1 g2 moves g1 by a weight-1 factor: degree 0, below the floor
    with pytest.raises(ModelError):
        Automorphism.linear_on_log(heis, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    # raising the displacement into the p^2-layer fixes it
    phi = Automorphism.linear_on_log(heis, [[1, 0, 0], [25, 1, 0], [0, 0, 1]])
    moved = heis.mul(phi.apply(heis.basis()[0]), heis.inv(heis.basis()[0]))
    assert moved.coords[1] == 25


def test_linear_automorphism_bracket_guard(heis):
    # swapping g1 and the central g3 cannot preserve brackets
    with pytest.raises(ModelError):
        Automorphism.linear_on_log(heis, [[0, 0, 1], [0, 1, 0], [1, 0, 0]])


def test_trivial_mod_centre(heis):
    g1 = heis.basis()[0]
    inner = Automorphism.inner(heis, g1)
    assert is_trivial_mod_centre(inner, heis.centre)
    shear = Automorphism.linear_on_log(heis, [[1, 0, 0], [25, 1, 0], [0, 0, 1]])
    assert not is_trivial_mod_centre(shear, heis.centre)
    central = Automorphism.linear_on_log(heis, [[1, 0, 0], [0, 1, 0], [25, 0, 1]])
    assert is_trivial_mod_centre(central, heis.centre)


def test_identity_and_inner(abelian2, heis):
    ident = Automorphism.identity(abelian2)
    x = abelian2.element([4, 7])
    assert ident.apply(x).coords == (4, 7)
    # abelian conjugation is trivial
    inner = Automorphism.inner(abelian2, abelian2.element([1, 1]))
    assert inner.apply(x).coords == (4, 7)
    g1, g2, _ = heis.basis()
    conj = Automorphism.inner(heis, g1)
    assert conj.apply(g2).coords != g2.coords
    assert conj.apply(g2).coords[2] % 5 == 0


def test_inner_automorphisms_skip_the_degree_estimate(monkeypatch, abelian2, heis, u4):
    """`Automorphism.inner` and `Automorphism.identity` pass the degree
    check by proof, so they run no `deg_omega`.  On these models the
    estimate, run apart, is provably above 1/(p-1) as the proof says; at too
    low a precision it is only a marker, and both still construct."""
    calls = []
    monkeypatch.setattr(groups, "deg_omega", calls.append)
    low = load_abelian(3, 2, 1, ["1", "2"])
    conjugators = [(m, h) for m in (abelian2, heis, u4)
                   for h in m.basis() + [m.element(range(1, m.rank + 1))]]
    inners = [Automorphism.inner(m, h) for m, h in conjugators + [(low, low.basis()[0])]]
    lows = [low, load_abelian(3, 2, 2, ["1", "3"])]
    identities = [Automorphism.identity(m) for m in lows + [abelian2, heis, u4]]
    assert calls == []
    monkeypatch.undo()
    for phi in inners[:-1]:
        assert gt_provable(deg_omega(phi), Fraction(1, phi.model.p - 1))
    assert deg_omega(inners[-1]) == AtLeast(0)
    for m in lows:
        assert not gt_provable(deg_omega(Automorphism.identity(m)), Fraction(1, 2))
    # the identity fixes every basis and sample element
    rng = Pcg32(3)
    for phi in identities:
        model = phi.model
        for g in model.basis() + [sample_element(model, rng) for _ in range(8)]:
            assert phi.apply(g).coords == g.coords


def test_automorphism_power(abelian2, zmodel):
    phi = Automorphism.linear_on_log(zmodel, [[10]])
    assert phi.power(3).matrix[0][0] == 1000 % 729
    g = zmodel.basis()[0]
    assert phi.power(3).apply(g).coords == (1000 % 729,)
    h = abelian2.element([1, 2])
    inner = Automorphism.inner(abelian2, h)
    assert inner.power(2).conjugator.coords == (2, 4)
    assert inner.power(2).conjugator_inv.coords == abelian2.element([-2, -4]).coords
    with pytest.raises(ValueError):
        phi.power(-1)


def test_automorphism_power_is_exact_past_word_size():
    # entries mod 3^39 > 2^32, so products of two entries overflow int64
    model = load_abelian(3, 3, 39, ["1", "1", "1"])
    pm = 3 ** 39
    rng = Pcg32(8)
    for _ in range(5):
        rows = [[(i == j) + 3 * rng.below(3 ** 38) for j in range(3)]
                for i in range(3)]
        phi = Automorphism.linear_on_log(model, rows)
        k = 1 + rng.below(40)
        want = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(k):
            want = [[sum(want[i][m] * rows[m][j] for m in range(3)) % pm
                     for j in range(3)] for i in range(3)]
        assert [list(r) for r in phi.power(k).matrix] == want


@settings(max_examples=40, deadline=None)
@given(p=st.sampled_from([3, 5, 7]), rank=st.integers(1, 3),
       precision=st.integers(3, 22), k=st.integers(0, 70), data=st.data())
def test_automorphism_power_matches_mat_pow(p, rank, precision, k, data):
    # up to 7^22 < 2^63, where products of two entries overflow int64
    model = load_abelian(p, rank, precision, ["1"] * rank)
    pm = p ** precision
    # 1 + p*(anything) on the diagonal and p*(anything) off it: degree >= 1
    rows = [[(i == j) + p * data.draw(st.integers(0, pm)) for j in range(rank)]
            for i in range(rank)]
    phi = Automorphism.linear_on_log(model, rows)
    want = mat_pow(np.array(rows, dtype=object), k, pm).tolist()
    assert [list(r) for r in phi.power(k).matrix] == want
    # the checks that `power` skips hold for the power
    Automorphism.linear_on_log(model, want)


def test_deg_omega(abelian2):
    phi = Automorphism.linear_on_log(abelian2, [[10, 0], [0, 10]])
    # every basis element moves by its 9th power, a displacement of degree 2
    for i, g in enumerate(abelian2.basis()):
        moved = phi.apply(g) * abelian2.inv(g)
        assert omega_of(abelian2, moved) == abelian2.omega.values[i] + 2
    # the sampled estimate keeps markers from elements whose displacement
    # falls past precision, so it is only compatible with the true value
    assert eq_compatible(deg_omega(phi), 2)


def test_z_of_automorphism(zmodel):
    phi = Automorphism.linear_on_log(zmodel, [[10]])
    z1 = z_of_automorphism(phi, 1)
    assert len(z1) == 1
    assert z1[0].model.precision == 5
    assert z1[0].coords == (90,)  # (10^3 - 1)/3 mod 3^5
    z2 = z_of_automorphism(phi, 2)
    assert z2[0].model.precision == 4
    assert z2[0].coords == (9,)  # (10^9 - 1)/9 mod 3^4
    z0 = z_of_automorphism(phi, 0)
    assert z0[0].coords == (9,)  # 10 - 1 at full precision
    with pytest.raises(PrecisionError):
        z_of_automorphism(phi, 6)


def test_z_of_automorphism_rejects_indivisible_coordinates(zmodel, monkeypatch):
    # x -> x^2 has degree 0 and is refused at construction; with that check
    # off, phi^3(g) g^-1 = g^7 and 7 is not divisible by 3
    monkeypatch.setattr(Automorphism, "_check_degree", lambda self: None)
    phi = Automorphism.linear_on_log(zmodel, [[2]])
    with pytest.raises(PrecisionError, match=r"not divisible by p\^1"):
        z_of_automorphism(phi, 1)


def test_load_model_config(heis):
    cfg = {"kind": "abelian", "p": 3, "rank": 2, "precision": 4,
           "omega": ["1", "1"], "centre": [0, 4]}
    m = load_model(cfg)
    assert m.kind == "abelian" and m.centre.exponents == (0, 4)
    cfg2 = {"kind": "unitriangular", "p": 5, "size": 3, "precision": 3,
            "generators": heisenberg_generators(5), "omega": ["1", "1", "2"],
            "centre": [3, 3, 0]}
    m2 = load_model(cfg2)
    assert m2.commutator(m2.basis()[0], m2.basis()[1]).coords == \
        (0, 0, 5)
    with pytest.raises(ModelError):
        load_model({"kind": "mystery", "p": 3, "precision": 2, "omega": ["1"]})


@pytest.fixture(scope="module", params=["abelian3", "e4", "p2", "heis", "u4"])
def omega_model(request):
    if request.param == "e4":
        return request.getfixturevalue("trunc_e4").model
    if request.param == "p2":
        return load_abelian(2, 2, 6, ["2", "3/2"], e=2)
    return request.getfixturevalue(request.param)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_omega_units_match_the_val_route(omega_model, data):
    """omega on integers in units of 1/e is the `Val` of the reference route,
    on coordinates of every valuation, zeros and the identity included."""
    model = omega_model
    p, M = model.p, model.precision
    coordinate = st.one_of(st.just(0), st.builds(
        lambda k, u: p ** k * u % p ** M,
        st.integers(0, M - 1), st.integers(1, p ** M - 1)))
    coords = data.draw(st.lists(coordinate, min_size=model.rank, max_size=model.rank))
    for el in (model.element(coords), model.identity()):
        got, want = omega_of(model, el), omega_of_reference(model, el)
        assert got == want and type(got) is type(want)
        value, exact = model._omega_units(el.coords)
        assert exact == (not isinstance(want, AtLeast))
        assert Fraction(value, model.omega.e) == (want if exact else want.bound)


@pytest.mark.parametrize("load", [
    lambda: load_abelian(3, 2, 4, ["1", "1"]),
    lambda: load_abelian(2, 3, 40, ["2", "3", "2"]),  # p^M past 2^32: two words a draw
    lambda: load_unitriangular(5, 3, 3, heisenberg_generators(5), ["1", "1", "2"]),
    lambda: load_unitriangular(5, 4, 6, u4_generators(5),
                               ["1", "1", "1", "3/2", "3/2", "2"], e=2),
], ids=["abelian", "wide", "heis", "u4"])
def test_block_samples_are_successive_draws(load):
    """The samples of the load checks, drawn by one `below_many` call, are
    the elements of successive one-at-a-time draws on the same stream."""
    model = load()
    for stream, count in [(17, 16), (29, 24)]:
        rng = Pcg32(_VALIDATION_SEED, stream=stream)
        want = [sample_element(model, rng).coords for _ in range(count)]
        assert [g.coords for g in model._samples(stream, count)] == want
    M = model.precision
    exps = [(0, M + 1, 1, 2, M, 1)[i % 6] for i in range(model.rank)]
    scale = [model.p ** min(n, M) for n in exps]
    want = [g.coords for pair in _closure_pairs(model, exps) for g in pair]
    assert [g.coords for g in model._samples(23, 12, scale)] == want
    assert all(type(c) is int for g in model._samples(23, 12, scale) for c in g.coords)
