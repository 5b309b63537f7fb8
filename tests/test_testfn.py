import math
from fractions import Fraction

import numpy as np
import pytest

from thickcalc.errors import InsufficientOrderError, PointMismatchError
from thickcalc.expansion import Expansion, expansion_of
from thickcalc.quadrature import integrate
from thickcalc.sphere import SpherePair
from thickcalc.testfn import (
    Monomial,
    _jet_exp,
    _jet_mul,
    _jet_recip,
    _jet_var,
    ThickTestFunction,
    constant_multiplier,
    derivative,
    dilate,
    from_polynomial,
    heaviside_multiplier,
    multiply_by,
    plateau_bump,
    power_multiplier,
    seminorm,
    smoothstep_deriv,
    strength_defect,
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


def test_smoothstep_monotone_and_symmetric():
    ts = [i / 20 for i in range(1, 20)]
    vals = [smoothstep_deriv(t, 0) for t in ts]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    for t in ts:
        assert smoothstep_deriv(t, 0) + smoothstep_deriv(1 - t, 0) == pytest.approx(1.0)


def test_smoothstep_value_is_the_jet_value_bit_for_bit():
    def jet_value(t):
        g1 = _jet_exp([-c for c in _jet_recip(_jet_var(t, 0))])
        g2 = _jet_exp([-c for c in _jet_recip(_jet_var(1.0 - t, 0))])
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
    assert phi.expansion == expansion_of(0, [(1, 1)], exact=True)


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
    assert phi.expansion == expansion_of(0, [(1, 0)], exact=True)


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
    assert d.expansion == expansion_of(0, [(1, -1)], exact=True)
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
        assert len(phi.body.terms) <= 4 * k + 2
        phi = derivative(phi)


def test_equal_functions_have_equal_bodies():
    phi = from_polynomial([1, 2], 2.0) * thick_monomial(-1, (1, 3), 2.0)
    assert phi + phi == phi.scale(2)
    f, g = thick_monomial(2, (1, 3), 2.0), from_polynomial([1, 1], 1.0)
    assert derivative(f + g) == derivative(f) + derivative(g)


# -- multipliers -------------------------------------------------------------------


def test_heaviside_times_plateau_is_cutoff_heaviside():
    h = heaviside_multiplier()
    phi = multiply_by(h, plateau_bump(1.0))
    assert phi.expansion == expansion_of(0, [(1, 0)], exact=True)
    assert phi.evaluate(0.2) == 1.0
    assert phi.evaluate(-0.2) == 0.0


def test_unit_multiplier_is_identity():
    one = constant_multiplier(1)
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


def test_seminorm_insufficient_order():
    weak = ThickTestFunction(
        body=Monomial(0, SpherePair(1, 1)),
        expansion=Expansion(0, (SpherePair(1, 1),), exact=False),
        point=0, radius=1.0, exact_radius=0.0,
    )
    with pytest.raises(InsufficientOrderError):
        seminorm(weak, q=4, s=0, k_radius=0.25)


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
