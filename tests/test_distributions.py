import warnings
from fractions import Fraction

import pytest

from thickcalc.distributions import (
    ClassicalDistributionView,
    Derivative,
    Dilate,
    LinearCombination,
    MultiplierProduct,
    PfDensity,
    ThickDelta,
    Translate,
    ZERO_DISTRIBUTION,
    delta_star,
    density_derivative,
    g_lambda_delta,
    is_heaviside_pf,
    pf_heaviside,
    pf_power,
    pf_sign_power,
    project,
    simplify,
)
from thickcalc.errors import MisclassifiedPowerError, PointMismatchError
from thickcalc.pairing import pair
from thickcalc.sphere import SpherePair, SphereDistribution, g_lambda
from thickcalc.testfn import (
    derivative,
    from_polynomial,
    heaviside_multiplier,
    plateau_bump,
    power_multiplier,
    thick_monomial,
)


# -- constructors and structure ---------------------------------------------------


def test_delta_star_weights():
    d = delta_star()
    assert d.weights.weights == SpherePair(1, 1)
    assert d.degree == 0


def test_g_lambda_weights_convention():
    d = g_lambda_delta(Fraction(1, 4), 2)
    assert d.weights.weights == SpherePair(Fraction(1, 2), Fraction(3, 2))


def test_g_lambda_warns_outside_unit_interval():
    with pytest.warns(UserWarning):
        g_lambda_delta(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g_lambda_delta(Fraction(1, 2))  # no warning


def test_power_classification():
    assert pf_power(-2).integral_power
    assert pf_power(Fraction(-4, 2)).integral_power  # integral Fraction demotes
    assert not pf_power(Fraction(-3, 2)).integral_power
    assert not pf_power(-2.0).integral_power  # floats stay non-integer


def test_heaviside_pattern():
    assert is_heaviside_pf(pf_heaviside())
    assert not is_heaviside_pf(pf_power(0))
    assert not is_heaviside_pf(delta_star())
    assert pf_sign_power(1).pair == SpherePair(1, -1)


def test_translate_moves_point():
    f = Translate(delta_star(), 3)
    assert f.point == -3
    g = Translate(pf_heaviside(point=1), Fraction(1, 2))
    assert g.point == Fraction(1, 2)


def test_dilate_moves_point():
    f = Dilate(delta_star(point=3), 2)
    assert f.point == Fraction(3, 2)
    with pytest.raises(ValueError):
        Dilate(delta_star(), 0)


def test_combination_point_consistency():
    with pytest.raises(PointMismatchError):
        LinearCombination(((1, delta_star()), (1, delta_star(point=1))))
    with pytest.raises(PointMismatchError):
        MultiplierProduct(heaviside_multiplier(point=1), delta_star())


# -- simplify ----------------------------------------------------------------------


def test_step_times_its_own_pf_collapses():
    f = MultiplierProduct(heaviside_multiplier(), pf_heaviside())
    assert simplify(f) == pf_heaviside()


def test_derivative_of_pf_step_is_one_sided_delta():
    f = simplify(Derivative(pf_heaviside()))
    assert f == ThickDelta(g_lambda(1), 0)


def test_paskusz_chain_normalizes_to_the_same_form():
    lhs = simplify(Derivative(MultiplierProduct(heaviside_multiplier(), pf_heaviside())))
    rhs = simplify(Derivative(pf_heaviside()))
    assert lhs == rhs == ThickDelta(g_lambda(1), 0)


def test_product_rule_expansion():
    psi = power_multiplier(2)
    f = simplify(Derivative(MultiplierProduct(psi, delta_star())))
    assert isinstance(f, LinearCombination)
    assert len(f.terms) == 2
    (c1, t1), (c2, t2) = f.terms
    assert c1 == c2 == 1
    assert isinstance(t1, MultiplierProduct) and t1.inner == delta_star()
    assert isinstance(t2, MultiplierProduct) and isinstance(t2.inner, Derivative)


def test_unit_multiplier_vanishes():
    from thickcalc.testfn import constant_multiplier
    f = MultiplierProduct(constant_multiplier(1), delta_star())
    assert simplify(f) == delta_star()
    z = MultiplierProduct(constant_multiplier(0), delta_star())
    assert simplify(z) == ZERO_DISTRIBUTION


def test_nested_combinations_flatten():
    inner = LinearCombination(((2, delta_star()), (3, pf_heaviside())))
    outer = LinearCombination(((Fraction(1, 2), inner), (1, delta_star())))
    flat = simplify(outer)
    assert flat == LinearCombination((
        (Fraction(1), delta_star()),
        (Fraction(3, 2), pf_heaviside()),
        (Fraction(1), delta_star()),
    ))


def test_translations_merge():
    f = Translate(Translate(delta_star(), 1), Fraction(3, 2))
    assert simplify(f) == Translate(delta_star(), Fraction(5, 2))
    assert simplify(Translate(delta_star(), 0)) == delta_star()


def test_simplify_fixed_points():
    for f in (delta_star(), pf_power(Fraction(-5, 2)), g_lambda_delta(1, 3)):
        assert simplify(f) == f
        assert simplify(simplify(f)) == simplify(f)


def test_simplify_preserves_pairing():
    phi = thick_monomial(0, (3, 1), 2.0) + thick_monomial(-1, (1, 2), 2.0)
    cases = [
        Derivative(pf_heaviside()),
        Derivative(MultiplierProduct(heaviside_multiplier(), pf_heaviside())),
        MultiplierProduct(heaviside_multiplier(), pf_heaviside()),
        LinearCombination(((2, delta_star()), (Fraction(-1, 3), pf_heaviside()))),
    ]
    for f in cases:
        before = pair(f, phi)
        after = pair(simplify(f), phi)
        assert float(before.value) == pytest.approx(float(after.value), abs=1e-8)


# -- paskusz pairing level ------------------------------------------------------------


def test_step_times_one_sided_delta_is_idempotent():
    # multiplying the one-sided delta by the step again must NOT halve it
    phi = thick_monomial(0, (3, 1), 2.0)
    g1d = ThickDelta(g_lambda(1), 0)
    lhs = pair(MultiplierProduct(heaviside_multiplier(), g1d), phi)
    rhs = pair(g1d, phi)
    assert lhs.value == rhs.value == 3


# -- projection ------------------------------------------------------------------------


def test_projected_delta_is_classical_delta():
    view = project(delta_star())
    assert isinstance(view, ClassicalDistributionView)
    res = pair(view, plateau_bump(1.0))
    assert res.value == 1


def test_projected_step_derivative_is_classical_delta():
    view = project(Derivative(pf_heaviside()))
    for phi in (plateau_bump(2.0), from_polynomial([5, 3, 1], 2.0)):
        expected = float(phi.expansion.coefficient(0).plus)
        assert float(pair(view, phi).value) == pytest.approx(expected, abs=1e-8)


def test_projected_odd_delta_annihilates_ordinary_functions():
    odd = ThickDelta(SphereDistribution(SpherePair(1, -1)), 0)
    view = project(odd)
    for phi in (plateau_bump(1.0), from_polynomial([2, 1, 1], 2.0),
                from_polynomial([-7], 1.0)):
        assert pair(view, phi).value == 0


def test_delta_pairing_is_linear_in_the_argument():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    rationals = st.fractions(max_denominator=30)

    @settings(max_examples=40, deadline=None)
    @given(rationals, rationals, rationals, rationals)
    def inner(a, b, alpha, beta):
        phi1 = thick_monomial(0, (a, b), 2.0)
        phi2 = from_polynomial([b, a], 2.0)
        combo = phi1.scale(alpha) + phi2.scale(beta)
        lhs = pair(delta_star(), combo).value
        rhs = alpha * pair(delta_star(), phi1).value + beta * pair(delta_star(), phi2).value
        assert lhs == rhs

    inner()


def test_projection_commutes_with_derivative():
    fs = [delta_star(), pf_heaviside(), pf_power(-2)]
    phis = [plateau_bump(2.0), from_polynomial([1, 2], 2.0),
            from_polynomial([0, 0, 3], 2.0), from_polynomial([1, -1, 0, 2], 2.0),
            from_polynomial([Fraction(1, 3), 0, 0, 0, 1], 2.0)]
    for f in fs:
        for phi in phis:
            lhs = pair(project(Derivative(f)), phi)
            rhs = pair(project(f), derivative(phi))
            assert float(lhs.value) == pytest.approx(-float(rhs.value), abs=1e-8)


# -- the density derivative rule -----------------------------------------------------


def test_density_derivative_at_an_integer_power_adds_a_delta():
    f = simplify(Derivative(pf_power(-2)))
    assert f == LinearCombination((
        (Fraction(1), PfDensity(SpherePair(-2, 2), -3)),
        (Fraction(1), ThickDelta(SpherePair(2, -2), 2)),
    ))


def test_density_derivative_at_a_fractional_power_is_one_density():
    f = density_derivative(PfDensity(SpherePair(3, -2), Fraction(-1, 2), point=1))
    assert f == PfDensity(SpherePair(Fraction(-3, 2), -1), Fraction(-3, 2), point=1)


def test_density_derivative_drops_the_zero_pf_term():
    assert density_derivative(pf_power(0)) == ThickDelta(SpherePair(2, -2), 0)
    assert density_derivative(pf_heaviside(point=2)) == ThickDelta(g_lambda(1), 0, point=2)


@pytest.mark.parametrize("lam", [0.0, -1.0, -3.0])
def test_density_derivative_of_an_integral_float_power_is_misclassified(lam):
    with pytest.raises(MisclassifiedPowerError):
        density_derivative(pf_power(lam))


def test_float_power_reaching_an_integer_raises_at_that_step():
    assert density_derivative(pf_power(1.0)) == PfDensity(SpherePair(1, -1), 0.0)
    with pytest.raises(MisclassifiedPowerError):
        simplify(Derivative(Derivative(pf_power(1.0))))
    with pytest.raises(MisclassifiedPowerError):
        pair(Derivative(Derivative(pf_power(1.0))), plateau_bump(1.0))
