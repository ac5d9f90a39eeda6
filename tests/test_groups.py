"""Group models, subgroups and automorphisms on the two main corpora."""

from fractions import Fraction

import pytest

from iwacalc import (
    AtLeast, Automorphism, ModelError, PrecisionError, deg_omega,
    eq_compatible, ge_refuted, is_trivial_mod_centre, load_abelian,
    load_model, load_unitriangular, subgroup_from_exponents, val_add,
    val_min, z_of_automorphism,
)
from iwacalc.rng import Pcg32

from conftest import heisenberg_generators


def test_abelian_arithmetic(abelian2):
    m = abelian2
    x = m.element([5, 7])
    y = m.element([2, 80])
    assert (x * y).coord_values() == (7, 6)  # mod 3^4 = 81
    assert x.inverse().coord_values() == (76, 74)
    assert x.power(3).coord_values() == (15, 21)
    assert (x * x.inverse()).is_identity()


def test_abelian_omega(abelian2):
    m = abelian2
    assert m.element([3, 0]).omega() == 2
    assert m.element([1, 9]).omega() == 1
    w = m.identity().omega()
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
    def elementary(i, j):
        rows = [[1 if a == b else 0 for b in range(4)] for a in range(4)]
        rows[i][j] = 5
        return rows
    gens = [elementary(i, j) for i, j in
            [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]]
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


def test_coordinate_range_validation():
    # 3^40 > 2^63: rejected before any coordinate is sampled
    with pytest.raises(ModelError, match="2\\^63"):
        load_abelian(3, 1, 40, ["1"])
    with pytest.raises(ModelError, match="2\\^63"):
        load_unitriangular(5, 3, 28, heisenberg_generators(5), ["1", "1", "2"])
    assert load_abelian(2, 1, 63, ["2"]).precision == 63  # 2^63 itself is in range


def test_heisenberg_native_matrices(heis):
    g1, g2, g3 = heis.basis()
    assert heis.native(g1) == ((1, 5, 0), (0, 1, 0), (0, 0, 1))
    assert heis.native(g3) == ((1, 0, 5), (0, 1, 0), (0, 0, 1))
    sq = heis.pow(g1, 2)
    assert heis.native(sq) == ((1, 10, 0), (0, 1, 0), (0, 0, 1))


def test_heisenberg_theta_round_trip(heis):
    rng = Pcg32(21)
    box = 5 ** 3
    for _ in range(10):
        coords = [rng.below(box) for _ in range(3)]
        el = heis.element(coords)
        assert heis.theta_coords(heis.native(el)).coord_values() == \
            el.coord_values()


def test_heisenberg_commutator(heis):
    g1, g2, _ = heis.basis()
    assert heis.commutator(g1, g2).coord_values() == (0, 0, 5)
    assert heis.commutator(g2, g1).coord_values() == (0, 0, 120)


def test_heisenberg_mul_against_matrices(heis):
    rng = Pcg32(22)
    box = 5 ** 3
    mod = 5 ** 4
    for _ in range(8):
        x = heis.element([rng.below(box) for _ in range(3)])
        y = heis.element([rng.below(box) for _ in range(3)])
        prod = heis.mul(x, y)
        want = tuple(
            tuple(sum(heis.native(x)[i][k] * heis.native(y)[k][j]
                      for k in range(3)) % mod for j in range(3))
            for i in range(3))
        assert heis.native(prod) == want


def test_p_valuation_axioms(heis):
    rng = Pcg32(23)
    for _ in range(12):
        x = heis.sample_element(rng)
        y = heis.sample_element(rng)
        wx, wy = x.omega(), y.omega()
        assert not ge_refuted(
            (x * y.inverse()).omega(), val_min([wx, wy]))
        assert not ge_refuted(heis.commutator(x, y).omega(), val_add(wx, wy))
        if not isinstance(wx, AtLeast):
            assert eq_compatible(x.power(5).omega(), Fraction(wx) + 1)


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
    assert len(gens) == 1 and gens[0].coord_values() == (0, 0, 1)
    assert centre.contains(heis.element([0, 0, 7]))
    assert not centre.contains(heis.element([0, 1, 0]))


def test_subgroup_spec(heis):
    H = subgroup_from_exponents(heis, (1, 1, 0))
    assert H.direction_mask() == [0, 1]
    assert H.contains(heis.element([5, 10, 3]))
    assert not H.contains(heis.element([1, 0, 0]))
    with pytest.raises(ModelError):
        subgroup_from_exponents(heis, (1, 1))
    with pytest.raises(ModelError):
        subgroup_from_exponents(heis, (-1, 0, 0))


def test_linear_automorphism_degree_guard(heis):
    # g1 -> g1 g2 moves g1 by a weight-1 factor: degree 0, below the floor
    with pytest.raises(ModelError):
        Automorphism.linear_on_log(heis, [[1, 0, 0], [1, 1, 0], [0, 0, 1]])
    # raising the displacement into the p^2-layer fixes it
    phi = Automorphism.linear_on_log(heis, [[1, 0, 0], [25, 1, 0], [0, 0, 1]])
    moved = heis.mul(phi.apply(heis.basis()[0]), heis.basis()[0].inverse())
    assert moved.coord_values()[1] == 25


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
    assert ident.apply(x).coord_values() == (4, 7)
    # abelian conjugation is trivial
    inner = Automorphism.inner(abelian2, abelian2.element([1, 1]))
    assert inner.apply(x).coord_values() == (4, 7)
    g1, g2, _ = heis.basis()
    conj = Automorphism.inner(heis, g1)
    assert conj.apply(g2).coord_values() != g2.coord_values()
    assert conj.apply(g2).coord_values()[2] % 5 == 0


def test_automorphism_power(abelian2, zmodel):
    phi = Automorphism.linear_on_log(zmodel, [[10]])
    assert phi.power(3).matrix[0][0] == 1000 % 729
    g = zmodel.basis()[0]
    assert phi.power(3).apply(g).coord_values() == (1000 % 729,)
    h = abelian2.element([1, 2])
    inner = Automorphism.inner(abelian2, h)
    assert inner.power(2).conjugator.coord_values() == (2, 4)
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


def test_deg_omega(abelian2):
    phi = Automorphism.linear_on_log(abelian2, [[10, 0], [0, 10]])
    # every basis element moves by its 9th power, a displacement of degree 2
    for i, g in enumerate(abelian2.basis()):
        moved = phi.apply(g) * g.inverse()
        assert moved.omega() == abelian2.omega.values[i] + 2
    # the sampled estimate keeps markers from elements whose displacement
    # falls past precision, so it is only compatible with the true value
    assert eq_compatible(deg_omega(phi), 2)


def test_z_of_automorphism(zmodel):
    phi = Automorphism.linear_on_log(zmodel, [[10]])
    z1 = z_of_automorphism(phi, 1)
    assert len(z1) == 1
    assert z1[0].coords[0].precision == 5
    assert z1[0].coord_values() == (90,)  # (10^3 - 1)/3 mod 3^5
    z2 = z_of_automorphism(phi, 2)
    assert z2[0].coords[0].precision == 4
    assert z2[0].coord_values() == (9,)  # (10^9 - 1)/9 mod 3^4
    z0 = z_of_automorphism(phi, 0)
    assert z0[0].coord_values() == (9,)  # 10 - 1 at full precision
    with pytest.raises(PrecisionError):
        z_of_automorphism(phi, 6)


def test_load_model_config(heis):
    cfg = {"kind": "abelian", "p": 3, "rank": 2, "precision": 4,
           "omega": ["1", "1"], "centre": [0, 4]}
    m = load_model(cfg)
    assert m.kind == "abelian" and m.centre.exponents == (0, 4)
    cfg2 = {"kind": "unitriangular", "p": 5, "size": 3, "precision": 3,
            "generators": heisenberg_generators(5), "omega": ["1", "1", "2"],
            "centre": [3, 3, 0]}
    m2 = load_model(cfg2)
    assert m2.commutator(m2.basis()[0], m2.basis()[1]).coord_values() == \
        (0, 0, 5)
    with pytest.raises(ModelError):
        load_model({"kind": "mystery", "p": 3, "precision": 2, "omega": ["1"]})
