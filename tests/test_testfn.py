import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from body_reference import (Body, body_of, bump_body, mono_body, monomial_body, multiplied,
                            poly_body)
from expansion_reference import add, expansion_of, multiply, strength_defect
from thickcalc import expansion as xp
from thickcalc.checks import mixed_suite
from thickcalc.errors import PointMismatchError
from thickcalc.expansion import from_taylor
from thickcalc.quadrature import integrate
from thickcalc.sphere import SpherePair
from thickcalc.testfn import (
    Multiplier,
    _jet_exp,
    _jet_mul,
    _jet_recip,
    derivative,
    dilate,
    from_polynomial,
    heaviside_multiplier,
    multiply_by,
    plateau_bump,
    power_multiplier,
    seminorm,
    smoothstep_deriv,
    thick_monomial,
    translate,
)


def fd5(f, x, h):
    return (-f(x + 2 * h) + 8 * f(x + h) - 8 * f(x - h) + f(x - 2 * h)) / (12 * h)


# -- smooth step ----------------------------------------------------------------


def test_smoothstep_endpoints():
    assert smoothstep_deriv(-0.5, 0) == 0.0
    assert smoothstep_deriv(0.0, 0) == 0.0
    assert smoothstep_deriv(1.0, 0) == 1.0
    assert smoothstep_deriv(2.0, 0) == 1.0
    assert smoothstep_deriv(1.5, 3) == 0.0


def test_smoothstep_derivative_is_zero_where_exp_of_minus_one_over_t_underflows():
    # (1/t)^(n+1) overflows there, and the jet of exp(-1/t) would multiply it by 0
    assert smoothstep_deriv(1e-40, 7) == 0.0
    assert smoothstep_deriv(1e-200, 1) == 0.0


def test_smoothstep_monotone_and_symmetric():
    ts = [i / 20 for i in range(1, 20)]
    vals = [smoothstep_deriv(t, 0) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for t in ts:
        assert smoothstep_deriv(t, 0) + smoothstep_deriv(1 - t, 0) == pytest.approx(1.0)


def test_smoothstep_value_is_the_jet_value_bit_for_bit():
    def jet_value(t):
        g1 = _jet_exp([-c for c in _jet_recip([t])])
        g2 = _jet_exp([-c for c in _jet_recip([1.0 - t])])
        return _jet_mul(g1, _jet_recip([g1[0] + g2[0]]))[0]

    ts = [k / 997 for k in range(1, 997)] + [1e-300, 1e-3, 0.5, 1 - 1e-3, 1 - 2.0 ** -52]
    assert [smoothstep_deriv(t, 0) for t in ts] == [jet_value(t) for t in ts]


def test_smoothstep_derivative_matches_finite_differences():
    for t in (0.2, 0.5, 0.8):
        for n in (1, 2, 3):
            fd = fd5(lambda u: smoothstep_deriv(u, n - 1), t, 1e-4)
            assert smoothstep_deriv(t, n) == pytest.approx(fd, rel=1e-6, abs=1e-6)


# -- plateau bump ----------------------------------------------------------------


def test_plateau_values():
    phi = plateau_bump(1.0)
    assert phi.evaluate(0.0) == 1.0          # limit value from both sides
    assert phi.evaluate(0.25) == 1.0         # inner plateau
    assert phi.evaluate(1.0) == 0.0          # support edge
    assert phi.evaluate(2.0) == 0.0
    assert phi.expansion == expansion_of(0, [(1, 1)])


def test_plateau_rejects_bad_radius():
    with pytest.raises(ValueError):
        plateau_bump(0.0)
    with pytest.raises(ValueError):
        thick_monomial(1, (1, 1), -2.0)


def test_plateau_integral_bounds():
    R = 1.3
    phi = plateau_bump(R)
    value, _ = integrate(phi.evaluate, -R, R, abs_tol=1e-12)
    assert R < value < 2 * R


# -- thick monomials -------------------------------------------------------------


def test_cutoff_heaviside():
    phi = thick_monomial(0, (1, 0), 1.0)
    assert phi.evaluate(0.3) == 1.0
    assert phi.evaluate(-0.3) == 0.0
    assert phi.expansion == expansion_of(0, [(1, 0)])


def test_linear_monomial_is_x():
    phi = thick_monomial(1, (1, -1), 1.0)
    assert phi.evaluate(0.2) == pytest.approx(0.2)
    assert phi.evaluate(-0.2) == pytest.approx(-0.2)


def test_negative_order_is_unbounded():
    phi = thick_monomial(-2, (1, 1), 1.0)
    assert phi.evaluate(0.01) == pytest.approx(1e4)
    assert phi.expansion.start == -2
    assert math.isnan(phi.evaluate(0.0))


# -- polynomials -----------------------------------------------------------------


def test_constant_polynomial_is_plateau():
    assert from_polynomial([1], 2.0) == plateau_bump(2.0)


def test_square_polynomial_is_even_monomial():
    assert from_polynomial([0, 0, 1], 2.0) == thick_monomial(2, (1, 1), 2.0)


def test_cubic_polynomial_sign_rule():
    assert from_polynomial([0, 0, 0, 1], 2.0) == thick_monomial(3, (1, -1), 2.0)


def test_polynomial_values_match_horner():
    phi = from_polynomial([1, -2, Fraction(1, 3)], 2.0)
    for x in (0.3, -0.7, 0.9):
        expected = 1 - 2 * x + x * x / 3
        assert phi.evaluate(x) == pytest.approx(expected, rel=1e-12)


# -- derivatives -----------------------------------------------------------------


def test_derivative_of_absolute_value_is_sign():
    phi = thick_monomial(1, (1, 1), 2.0)
    d = derivative(phi)
    assert d.expansion == expansion_of(0, [(1, -1)])
    assert d.evaluate(0.4) == pytest.approx(1.0)
    assert d.evaluate(-0.4) == pytest.approx(-1.0)


def test_derivative_of_plateau_has_zero_expansion():
    d = derivative(plateau_bump(1.0))
    assert d.expansion.is_zero()
    assert d.evaluate(0.25) == 0.0
    assert d.evaluate(0.75) < 0  # decreasing through the transition


def test_derivative_matches_finite_differences():
    # 20 sample points in the transition band, where the cutoff is active
    phi = from_polynomial([1, 2, 0, -1], 2.0)
    d = derivative(phi)
    xs = [1.0 + i / 20 for i in range(10)] + [-(1.0 + i / 20) for i in range(10)]
    for x in xs:
        assert d.evaluate(x) == pytest.approx(fd5(phi.evaluate, x, 1e-3), abs=1e-6)


def test_second_derivative_matches_finite_differences():
    phi = plateau_bump(2.0)
    d2 = derivative(derivative(phi))
    for x in (1.2, 1.5, -1.3, -1.7):
        fd = fd5(derivative(phi).evaluate, x, 1e-3)
        assert d2.evaluate(x) == pytest.approx(fd, rel=1e-5, abs=1e-5)


def test_derivative_size_grows_linearly_with_the_order():
    phi = thick_monomial(2, (1, 3), 2.0) * from_polynomial([1, 1], 2.0)
    for k in range(9):
        assert len(phi.terms) <= 4 * k + 2
        phi = derivative(phi)


def test_nested_radii_drop_the_wide_cutoff():
    # bump(2) is 1 wherever bump(1) or its derivatives are nonzero
    inner = thick_monomial(1, (1, 2), 1.0)
    assert (inner * plateau_bump(2.0)).terms == inner.terms
    d6 = inner
    for _ in range(6):
        d6 = derivative(d6)
    assert (d6 * plateau_bump(2.0)).terms == d6.terms
    # ... and its derivatives vanish there, so such a term is zero
    assert (inner * derivative(plateau_bump(2.0))).terms == ()
    assert derivative(inner * plateau_bump(2.0)).terms == derivative(inner).terms
    # overlapping radii keep both factors
    assert [f for f, _, _ in (inner * plateau_bump(1.5)).terms] == [((1.0, 0), (1.5, 0))]
    for x in (0.3, -0.6, 0.9, -0.99):
        assert (d6 * plateau_bump(2.0)).evaluate(x) == d6.evaluate(x)


def test_nested_radii_compare_the_stored_radii_after_dilate():
    # 1.4 - ulp is below 2 * 0.7, so the undilated product keeps both factors;
    # dilating by 3/2 rounds the radii to exactly 1.05 and 2.1, which nest
    wide = math.nextafter(1.4, 0)
    phi = thick_monomial(1, (1, 2), 0.7) * plateau_bump(wide)
    assert [f for f, _, _ in phi.terms] == [((0.7, 0), (wide, 0))]
    for c in (Fraction(3, 2), Fraction(-3, 2)):
        nested = dilate(phi, c)
        assert [f for f, _, _ in nested.terms] == [((1.0499999999999998, 0),)]
        assert 2 * 1.0499999999999998 == 2.0999999999999996 == float(abs(c)) * wide
    kept = dilate(phi, 2)  # exact scaling: still one ulp apart, both factors stay
    assert [f for f, _, _ in kept.terms] == [((1.4, 0), (2 * wide, 0))]
    for c, psi in ((Fraction(3, 2), dilate(phi, Fraction(3, 2))), (2, kept)):
        for x in (0.3, -0.6, 0.9, -1.0, 1.3):
            assert psi.evaluate(x) == pytest.approx(phi.evaluate(x / c), abs=1e-15)


def test_equal_functions_have_equal_bodies():
    phi = from_polynomial([1, 2], 2.0) * thick_monomial(-1, (1, 3), 2.0)
    assert phi + phi == phi.scale(2)
    f, g = thick_monomial(2, (1, 3), 2.0), from_polynomial([1, 1], 1.0)
    assert derivative(f + g) == derivative(f) + derivative(g)


# -- the expansion read off the terms ---------------------------------------------
#
# Each drawn function comes with its expansion composed from the parts by the
# expansion algebra, the reference the one read off the terms must equal.

_RADII = st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(4)])
_PAIRS = st.builds(SpherePair, st.integers(-3, 3), st.integers(-3, 3))
_SMALL = st.integers(-3, 3)
_FACTORS = st.sampled_from([Fraction(c) for c in (2, -2, "3/2", "-3/2", "1/2", -1)])

_LEAVES = st.one_of(
    _RADII.map(lambda R: (plateau_bump(R), from_taylor([1]))),
    st.builds(lambda j, p, R: (thick_monomial(j, p, R), expansion_of(j, [p])),
              st.integers(-2, 3), _PAIRS, _RADII),
    st.builds(lambda cs, R: (from_polynomial(cs, R), from_taylor(cs)),
              st.lists(_SMALL, min_size=1, max_size=4), _RADII),
)

_MULTIPLIERS = st.one_of(
    st.just((heaviside_multiplier(), expansion_of(0, [(1, 0)]))),
    st.integers(0, 3).map(lambda n: (power_multiplier(n), from_taylor([0] * n + [1]))),
    st.builds(lambda j, p: (Multiplier(j, p), expansion_of(j, [p])),
              st.integers(-2, 2), _PAIRS),
    _SMALL.map(lambda v: (Multiplier(0, (v, v)), from_taylor([v]))),
)


def _differentiated(fe, k):
    f, e = fe
    for _ in range(k):
        f, e = derivative(f), xp.differentiate(e)
    return f, e


def _dilated(fe, c):
    # y -> y / c scales the r^j coefficient by |c|^-j and swaps the sides for c < 0
    f, e = fe
    pairs = []
    for j, p in e.terms():
        s = abs(c) ** -j
        pairs.append(SpherePair(p.plus * s, p.minus * s) if c > 0
                     else SpherePair(p.minus * s, p.plus * s))
    return dilate(f, c), expansion_of(e.start, pairs)


def _composed(children):
    two = st.tuples(children, children)
    return st.one_of(
        two.map(lambda ab: (ab[0][0] + ab[1][0], add(ab[0][1], ab[1][1]))),
        two.map(lambda ab: (ab[0][0] * ab[1][0], multiply(ab[0][1], ab[1][1]))),
        st.tuples(children, _SMALL).map(
            lambda fk: (fk[0][0].scale(fk[1]), multiply(fk[0][1], from_taylor([fk[1]])))),
        st.tuples(_MULTIPLIERS, children).map(
            lambda mf: (multiply_by(mf[0][0], mf[1][0]), multiply(mf[0][1], mf[1][1]))),
        st.tuples(children, st.integers(1, 3)).map(lambda fk: _differentiated(*fk)),
        st.tuples(children, _FACTORS).map(lambda fc: _dilated(*fc)),
    )


@settings(max_examples=150, deadline=None)
@given(st.recursive(_LEAVES, _composed, max_leaves=5))
def test_expansion_read_off_the_body_matches_the_composed_one(fe):
    f, composed = fe
    assert f.expansion == composed
    # inside the exact radius every cutoff is 1 and every cutoff derivative 0
    for t in (0.999, 0.7, 0.3, 0.01):
        r = t * f.exact_radius if math.isfinite(f.exact_radius) else t
        for w, got in zip((1, -1), f.radial(r)):
            scale = math.fsum(abs(float(p.at(w))) * r ** j for _, j, p in f.terms)
            assert abs(got - xp.evaluate(f.expansion, w, r)) <= 1e-13 * scale


def test_exact_radius_is_the_smallest_factor_radius_over_two():
    assert plateau_bump(2).exact_radius == 1.0
    assert (plateau_bump(1) * plateau_bump(Fraction(3, 2))).exact_radius == 0.5
    assert dilate(derivative(plateau_bump(3)), Fraction(-1, 2)).exact_radius == 0.75
    assert (plateau_bump(1) + plateau_bump(1).scale(-1)).exact_radius == math.inf
    assert heaviside_multiplier().expansion == expansion_of(0, [(1, 0)])


# -- multipliers -------------------------------------------------------------------


def test_heaviside_times_plateau_is_cutoff_heaviside():
    h = heaviside_multiplier()
    phi = multiply_by(h, plateau_bump(1.0))
    assert phi.expansion == expansion_of(0, [(1, 0)])
    assert phi.evaluate(0.2) == 1.0
    assert phi.evaluate(-0.2) == 0.0


def test_unit_multiplier_is_identity():
    one = Multiplier(0, (1, 1))
    phi = plateau_bump(1.0)
    assert multiply_by(one, phi) == phi


def test_heaviside_is_idempotent_on_cutoff():
    h = heaviside_multiplier()
    once = multiply_by(h, plateau_bump(1.0))
    twice = multiply_by(h, once)
    assert twice.expansion == once.expansion
    for x in (0.4, -0.4, 0.9, -0.9):
        assert twice.evaluate(x) == once.evaluate(x)


def test_multiplier_point_mismatch_rejected():
    h = heaviside_multiplier(point=1)
    with pytest.raises(PointMismatchError):
        multiply_by(h, plateau_bump(1.0))


def test_product_rule_pointwise_and_exact():
    psi = power_multiplier(2)
    phi = from_polynomial([0, 1], 2.0)
    lhs = derivative(multiply_by(psi, phi))
    rhs = multiply_by(derivative(psi), phi) + multiply_by(psi, derivative(phi))
    assert lhs.expansion == rhs.expansion
    for x in (0.3, -0.5, 1.4, -1.7):
        assert lhs.evaluate(x) == pytest.approx(rhs.evaluate(x), abs=1e-10)


def test_heaviside_multiplier_derivative_vanishes():
    d = derivative(heaviside_multiplier())
    assert d.is_zero()


def test_multiplier_evaluation():
    h = heaviside_multiplier()
    assert h.evaluate(5.0) == 1.0          # no support cutoff
    assert h.evaluate(-5.0) == 0.0
    assert math.isnan(h.evaluate(0.0))     # jump: no common limit
    sq = power_multiplier(2)
    assert sq.evaluate(-3.0) == pytest.approx(9.0)
    assert sq.evaluate(0.0) == 0.0


# The multiplier algebra on the (order, pair) record against the bodies the
# multiplier used to be stored as (tests/body_reference.py): every body
# equal and printing the same, so each exact number keeps its type and each
# float its bits.

_TABLE_MULTIPLIERS = {
    "H(x)": (heaviside_multiplier(), monomial_body(0, (1, 0))),
    **{f"x^{n}": (power_multiplier(n), monomial_body(n, (1, (-1) ** n))) for n in range(4)},
    "mult(pair(2,-3), -1)": (Multiplier(-1, (2, -3)), monomial_body(-1, (2, -3))),
    "mult(pair(0,5/2), -2)": (Multiplier(-2, (0, Fraction(5, 2))),
                              monomial_body(-2, (0, Fraction(5, 2)))),
    "mult(pair(1/3,-1), -3)": (Multiplier(-3, (Fraction(1, 3), -1)),
                               monomial_body(-3, (Fraction(1, 3), -1))),
    "zero": (Multiplier(0, (0, 0)), Body()),
    "mult(pair(0,0), 2)": (Multiplier(2, (0, 0)), monomial_body(2, (0, 0))),
    "-3/2 * mult(pair(1,3), 2)": (Multiplier(2, (1, 3)).scale(Fraction(-3, 2)),
                                  monomial_body(2, (1, 3)).scale(Fraction(-3, 2))),
    "0.25 * x^1": (power_multiplier(1).scale(0.25), monomial_body(1, (1, -1)).scale(0.25)),
}


def _table_functions():
    suite = mixed_suite()
    return suite + [
        derivative(suite[3]),
        derivative(derivative(suite[7])),
        derivative(derivative(derivative(suite[9]))),
        dilate(suite[6], -2),
        dilate(derivative(suite[8]), Fraction(1, 2)),
        suite[4] * plateau_bump(Fraction(3, 2)),
        derivative(thick_monomial(2, (1, 3), 2) * from_polynomial([1, 1], 2)),
        multiply_by(heaviside_multiplier(), suite[7]) * suite[5],
    ]


def _same_body(got, expected):
    assert got == expected
    assert repr(got) == repr(expected)


@pytest.mark.parametrize("name", _TABLE_MULTIPLIERS)
def test_multiplier_algebra_gives_the_bodies_of_the_body_route(name):
    psi, old = _TABLE_MULTIPLIERS[name]
    _same_body(body_of(psi), old)
    for phi in _table_functions():
        _same_body(Body(multiply_by(psi, phi).terms), old * Body(phi.terms))
        assert phi * psi == psi * phi == multiply_by(psi, phi)
    d, d_old = psi, old
    for _ in range(4):
        d, d_old = derivative(d), d_old.derivative()
        _same_body(body_of(d), d_old)
    for k in (0, 1, -1, 3, Fraction(-2, 5), 0.5):
        _same_body(body_of(psi.scale(k)), old.scale(k))
    for psi2, old2 in _TABLE_MULTIPLIERS.values():
        _same_body(body_of(psi * psi2), old * old2)
        assert psi * psi2 == psi2 * psi


def test_every_zero_multiplier_is_one_record():
    zeros = [Multiplier(0, (0, 0)), Multiplier(2, (0, 0)),
             derivative(heaviside_multiplier()), power_multiplier(3).scale(0),
             Multiplier(-1, (1, 0)) * Multiplier(2, (0, 1))]
    assert all(z == zeros[0] and hash(z) == hash(zeros[0]) and z.order == 0 for z in zeros)


# A test function holds its terms itself; the same functions built on the body
# it used to wrap (tests/body_reference.py) give equal terms and expansions that
# print the same, so each exact number keeps its type, and bit-equal floats.


def _body_table():
    bump1, bump2 = (plateau_bump(1), bump_body(1)), (plateau_bump(2), bump_body(2))
    mono = (thick_monomial(2, (1, 3), 2), mono_body(2, (1, 3), 2))
    pole = (thick_monomial(-1, (2, -3), Fraction(3, 2)), mono_body(-1, (2, -3), Fraction(3, 2)))
    poly = (from_polynomial([1, -2, Fraction(1, 3)], 2), poly_body([1, -2, Fraction(1, 3)], 2))

    def d(fo, k=1):
        f, old = fo
        for _ in range(k):
            f, old = derivative(f), old.derivative()
        return f, old

    def times(a, b):
        return a[0] * b[0], a[1] * b[1]

    product = times(mono, poly)
    table = {
        "bump(1)": bump1,
        "mono(2, pair(1,3), 2)": mono,
        "mono(-1, pair(2,-3), 3/2)": pole,
        "poly([1,-2,1/3], 2)": poly,
        "bump(1) - bump(1)": (bump1[0] + bump1[0].scale(-1), bump1[1] + bump1[1].scale(-1)),
        "poly + mono": (poly[0] + mono[0], poly[1] + mono[1]),
        "mono * poly": product,
        "mono(-1, 3/2) * poly": times(pole, poly),
        # nested radii: the wide cutoff drops, a derivative of it zeroes the term
        "bump(1) * bump(2)": times(bump1, bump2),
        "D(bump(1)) * bump(2)": times(d(bump1), bump2),
        "bump(1) * D(bump(2))": times(bump1, d(bump2)),
        "D(mono(-1, 3/2) * bump(2) * poly)": d(times(times(pole, bump2), poly)),
    }
    for k in range(1, 5):
        table[f"D^{k}(mono * poly)"] = d(product, k)
    f, old = d(product)
    for c in (2, -1, Fraction(1, 3)):
        table[f"dilate(D(mono * poly), {c})"] = (dilate(f, c), old.dilate(c))
    for k in (0, 1, Fraction(-3, 2)):
        table[f"{k} * D(mono * poly)"] = (f.scale(k), old.scale(k))
    for name, psi, fo in (("H(x) * poly", heaviside_multiplier(), poly),
                          ("x^2 * mono(-1, 3/2)", power_multiplier(2), pole),
                          ("mult(pair(2,-3), -1) * D^2(mono * poly)", Multiplier(-1, (2, -3)),
                           d(product, 2))):
        table[name] = (multiply_by(psi, fo[0]), multiplied(psi, fo[1]))
    return table


_BODY_TABLE = _body_table()


@pytest.mark.parametrize("name", _BODY_TABLE)
def test_terms_give_what_the_body_gave(name):
    f, old = _BODY_TABLE[name]
    assert f.terms == old.terms and repr(f.terms) == repr(old.terms)
    assert f.expansion == old.expansion and repr(f.expansion) == repr(old.expansion)
    assert f.exact_radius == old.exact_radius
    rs = [f.radius * k / 64 for k in range(1, 72)]
    assert [f.radial(r) for r in rs] == [old.radial(r) for r in rs]


def test_the_body_table_reaches_each_nested_radius_case():
    # the plain wide cutoff dropped, and a term zeroed by a wide derivative
    assert [f for f, _, _ in _BODY_TABLE["bump(1) * bump(2)"][0].terms] == [((1.0, 0),)]
    assert _BODY_TABLE["bump(1) * D(bump(2))"][0].terms == ()
    assert _BODY_TABLE["bump(1) - bump(1)"][0].terms == ()


# -- strength and old-style data ----------------------------------------------------


@pytest.mark.parametrize("builder", [
    lambda: plateau_bump(2.0),
    lambda: thick_monomial(0, (1, 0), 2.0),
    lambda: thick_monomial(-2, (1, 1), 2.0),
    lambda: thick_monomial(1, (2, 3), 2.0),
    lambda: from_polynomial([1, 2, 3, 4], 2.0),
])
def test_strong_expansion_defect_vanishes(builder):
    phi = builder()
    top = phi.expansion.top if not phi.expansion.is_zero() else 0
    for p in range(4):
        assert strength_defect(phi, p, top - p, 2.0 ** -12) <= 1e-8


def test_old_style_taylor_data_recovered():
    # a_j(+1) should match the one-sided Taylor coefficients of the function
    phi = from_polynomial([2, -1, Fraction(3, 2), 5], 4.0)
    h = 0.01
    xs = np.array([i * h for i in range(1, 9)])
    ys = np.array([phi.evaluate(x) for x in xs])
    fitted = np.polyfit(xs, ys, 5)[::-1]
    for j in range(3):
        assert fitted[j] == pytest.approx(float(phi.expansion.coefficient(j).plus), abs=1e-5)
    ysm = np.array([phi.evaluate(-x) for x in xs])
    fitted_m = np.polyfit(-xs, ysm, 5)[::-1]
    for j in range(3):
        assert fitted_m[j] == pytest.approx(float(phi.expansion.coefficient(j).minus) * (-1) ** j,
                                            abs=1e-5)


# -- seminorms ------------------------------------------------------------------------


def test_seminorm_exact_monomial_is_zero():
    phi = thick_monomial(2, (1, 1), 1.0)
    assert seminorm(phi, q=3, s=0, k_radius=0.25) == 0.0


def test_seminorm_cubic_equals_one():
    phi = from_polynomial([0, 0, 0, 1], 2.0)
    assert seminorm(phi, q=3, s=0, k_radius=0.5) == pytest.approx(1.0, abs=1e-10)


def test_seminorm_zero_function():
    phi = plateau_bump(1.0).scale(0)
    assert seminorm(phi, q=2, s=1, k_radius=0.25) == 0.0


def test_seminorm_includes_derivative_orders():
    # with s=1 the p=1 remainder of x^3 is 3x^2 - (its own expansion) = 0,
    # so the p=0 term still dominates at exactly 1
    phi = from_polynomial([0, 0, 0, 1], 2.0)
    assert seminorm(phi, q=3, s=1, k_radius=0.5) == pytest.approx(1.0, abs=1e-10)
    # an extra kink contributes through p=1: d|x| = sgn has order-0 pair,
    # whose q=3 remainder over the grid is r^-3 * 0 = 0 after subtraction
    kink = thick_monomial(1, (1, 1), 2.0)
    assert seminorm(kink, q=2, s=1, k_radius=0.25) == 0.0


# -- translation and dilation ----------------------------------------------------------


def test_translate_moves_graph_right():
    phi = thick_monomial(0, (1, 0), 1.0)
    shifted = translate(phi, 2)
    assert shifted.point == 2
    for x in (Fraction(1, 5), Fraction(-1, 5), Fraction(4, 5)):
        assert shifted.evaluate(x + 2) == phi.evaluate(x)


def test_dilate_positive_factor():
    phi = from_polynomial([1, 1], 2.0, point=0)
    psi = dilate(phi, 2)
    assert psi.radius == pytest.approx(4.0)
    for x in (0.5, -0.5, 3.0, 1.7):
        assert psi.evaluate(x) == pytest.approx(phi.evaluate(x / 2), rel=1e-12)


def test_dilate_negative_factor_swaps_sides():
    phi = thick_monomial(0, (1, 0), 1.0)
    psi = dilate(phi, -1)
    assert psi.evaluate(-0.3) == 1.0
    assert psi.evaluate(0.3) == 0.0
    back = dilate(psi, -1)
    assert back.expansion == phi.expansion


def test_dilate_moves_thick_point():
    phi = plateau_bump(1.0, point=3)
    psi = dilate(phi, Fraction(1, 2))
    assert psi.point == Fraction(3, 2)
    assert psi.evaluate(1.5 + 0.1) == phi.evaluate(3 + 0.2)


def test_dilate_rejects_zero_factor():
    with pytest.raises(ValueError):
        dilate(plateau_bump(1.0), 0)


def test_dilate_derivative_chain_rule():
    phi = from_polynomial([0, 0, 1], 2.0)
    c = Fraction(3, 2)
    lhs = derivative(dilate(phi, c))
    rhs = dilate(derivative(phi), c).scale(Fraction(1, c))
    for x in (0.3, -0.8, 1.1):
        assert lhs.evaluate(x) == pytest.approx(rhs.evaluate(x), rel=1e-12, abs=1e-12)


# -- ordinariness -----------------------------------------------------------------------


def test_polynomial_functions_are_ordinary():
    assert plateau_bump(1.0).is_ordinary
    assert from_polynomial([1, 2, 3], 1.0).is_ordinary
    assert thick_monomial(2, (1, 1), 1.0).is_ordinary
    assert derivative(from_polynomial([0, 0, 1], 1.0)).is_ordinary


def test_thick_functions_are_not_ordinary():
    assert not thick_monomial(0, (1, 0), 1.0).is_ordinary      # jump
    assert not thick_monomial(1, (1, 1), 1.0).is_ordinary      # |x| kink
    assert not thick_monomial(-2, (1, 1), 1.0).is_ordinary     # unbounded
    h = heaviside_multiplier()
    assert not multiply_by(h, plateau_bump(1.0)).is_ordinary


def test_sum_point_mismatch():
    with pytest.raises(PointMismatchError):
        plateau_bump(1.0) + plateau_bump(1.0, point=1)


@pytest.mark.parametrize("radius", [math.inf, math.nan])
def test_constructors_reject_a_non_finite_radius(radius):
    with pytest.raises(ValueError):
        plateau_bump(radius)
    with pytest.raises(ValueError):
        thick_monomial(1, (1, 1), radius)
    with pytest.raises(ValueError):
        from_polynomial([1, 2], radius)


def test_product_of_functions_at_two_points_is_refused():
    with pytest.raises(PointMismatchError):
        plateau_bump(1.0) * plateau_bump(1.0, point=1)


def test_function_times_a_number_is_not_defined():
    with pytest.raises(TypeError):
        plateau_bump(1.0) * 3


def test_seminorm_needs_a_positive_radius():
    with pytest.raises(ValueError, match="k_radius"):
        seminorm(plateau_bump(1.0), q=1, s=0, k_radius=0)


def test_cutoff_constructors_check_the_radius_first():
    for build in (lambda r: thick_monomial(0, (1, 0), r), lambda r: from_polynomial([1], r)):
        for radius in (0, -1, math.inf, math.nan):
            with pytest.raises(ValueError, match="support radius"):
                build(radius)
    with pytest.raises(ValueError, match="support radius"):
        from_polynomial([math.inf], 0)
    assert thick_monomial(3, (0, 0), 1.0).terms == from_polynomial([0, 0], 1.0).terms == ()
