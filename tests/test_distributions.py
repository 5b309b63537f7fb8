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
    delta_derivative,
    delta_star,
    density_derivative,
    derivative_rule,
    g_lambda_delta,
    multiplier_rule,
    pf_heaviside,
    pf_power,
    pf_sign_power,
    project,
    simplify,
)
from thickcalc.dsl import Parser, print_distribution
from thickcalc.errors import MisclassifiedPowerError, NonFiniteError, PointMismatchError
from thickcalc.pairing import pair
from thickcalc.sphere import SpherePair, g_lambda
from thickcalc.testfn import (
    Multiplier,
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
    assert d.weights == SpherePair(1, 1)
    assert d.degree == 0


def test_g_lambda_weights_convention():
    d = g_lambda_delta(Fraction(1, 4), 2)
    assert d.weights == SpherePair(Fraction(1, 2), Fraction(3, 2))


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
    assert pf_heaviside() == PfDensity(SpherePair(1, 0), 0)
    assert pf_power(0) != pf_heaviside()
    # the step times |x|^0 is the step, by the multiplier rule
    assert simplify(MultiplierProduct(heaviside_multiplier(), pf_power(0))) == pf_heaviside()
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


def test_nested_combination_splices_its_scaled_terms():
    inner = LinearCombination(((2, delta_star()), (Fraction(-1, 3), pf_heaviside())))
    outer = LinearCombination(((Fraction(3, 2), inner), (5, pf_power(-2))))
    assert outer.terms == ((3, delta_star()), (Fraction(-1, 2), pf_heaviside()),
                           (5, pf_power(-2)))
    assert type(outer.terms[0][0]) is int  # 3/2 * 2 is kept as the int 3


def test_zero_coefficient_drops_its_term():
    f = LinearCombination(((0, delta_star()), (2, pf_heaviside()), (Fraction(0), pf_power(-1))))
    assert f.terms == ((2, pf_heaviside()),)
    nested = LinearCombination(((0, LinearCombination(((1, delta_star()),))),))
    assert nested == ZERO_DISTRIBUTION


def test_empty_combination_takes_no_point():
    f = LinearCombination(((1, LinearCombination(())), (1, delta_star(point=1))))
    assert f.terms == ((1, delta_star(point=1)),)
    assert f.point == 1


def test_combination_of_two_points_still_raises():
    at_zero = LinearCombination(((1, delta_star()),))
    with pytest.raises(PointMismatchError):
        LinearCombination(((1, at_zero), (2, delta_star(point=1))))
    with pytest.raises(PointMismatchError):
        LinearCombination(((1, pf_heaviside()), (0, delta_star(point=1)), (1, pf_power(-1, 1))))


def test_nested_combination_prints_as_text_that_parses_back():
    inner = LinearCombination(((2, MultiplierProduct(power_multiplier(2), delta_star())),
                               (-1, pf_heaviside())))
    f = LinearCombination(((Fraction(-1, 2), inner), (1, Derivative(inner))))
    parser = Parser()
    parser.start(print_distribution(f))
    assert parser.parse_value() == f
    parser.expect_end()


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
    # over a dilate, which no multiplier rule reaches, d* takes the product
    # rule psi'·g + psi·d*g
    g = Dilate(delta_star(), 2)
    f = simplify(Derivative(MultiplierProduct(psi, g)))
    assert f == LinearCombination(((1, MultiplierProduct(Multiplier(1, (2, -2)), g)),
                                   (1, MultiplierProduct(psi, Derivative(g)))))
    # over dstar the multiplier moves onto the delta first: x^2·dstar is
    # delta_(-2), and d* raises its degree
    moved = ThickDelta(SpherePair(1, 1), -2)
    assert simplify(MultiplierProduct(psi, delta_star())) == moved
    assert simplify(Derivative(MultiplierProduct(psi, delta_star()))) \
        == delta_derivative(moved) == ThickDelta(SpherePair(1, -1), -1)


def test_unit_multiplier_vanishes():
    f = MultiplierProduct(Multiplier(0, (1, 1)), delta_star())
    assert simplify(f) == delta_star()
    z = MultiplierProduct(Multiplier(0, (0, 0)), delta_star())
    assert simplify(z) == ZERO_DISTRIBUTION


def test_nested_combinations_flatten():
    inner = LinearCombination(((2, delta_star()), (3, pf_heaviside())))
    outer = LinearCombination(((Fraction(1, 2), inner), (1, delta_star())))
    flat = simplify(outer)
    # the two deltas of degree 0 merge into one, their weights added
    assert flat == LinearCombination((
        (Fraction(1), ThickDelta(SpherePair(2, 2), 0)),
        (Fraction(3, 2), pf_heaviside()),
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
    odd = ThickDelta(SpherePair(1, -1), 0)
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


def test_density_derivative_of_a_decimal_power_keeps_the_decimal():
    assert density_derivative(pf_power(1.6)) == PfDensity(SpherePair(Fraction(8, 5),
                                                                     Fraction(-8, 5)), 0.6)
    f = simplify(Derivative(Derivative(pf_power(1.6))))
    assert f == PfDensity(SpherePair(Fraction(24, 25), Fraction(24, 25)), -0.4)
    for phi in (plateau_bump(2.0), from_polynomial([1, 2, -1, 3], 2.0)):
        transferred = float(pair(f, phi).value)
        direct = float(pair(pf_power(1.6), derivative(derivative(phi))).value)
        assert abs(transferred - direct) <= 1e-10 * max(abs(direct), 1.0)


def test_like_terms_merge_and_zero_terms_drop():
    x2_dstar = MultiplierProduct(power_multiplier(2), delta_star())
    x2_dilate = MultiplierProduct(power_multiplier(2), Dilate(delta_star(), 2))
    f = LinearCombination((
        (2, pf_power(-2)), (1, PfDensity(SpherePair(1, -1), -2)), (1, pf_power(-2.0)),
        (3, x2_dstar), (-1, x2_dstar), (3, x2_dilate), (-1, x2_dilate),
        (1, ThickDelta(SpherePair(1, 0), 2)), (-1, ThickDelta(SpherePair(1, 0), 2)),
    ))
    # densities of one power add their pairs, but 2 and 2.0 stay apart; the
    # products over dstar move onto it and add their weights, equal terms
    # add their coefficients; the cancelled deltas drop out
    assert simplify(f) == LinearCombination((
        (1, PfDensity(SpherePair(3, 1), -2)), (1, pf_power(-2.0)),
        (1, ThickDelta(SpherePair(2, 2), -2)), (2, x2_dilate),
    ))


def test_delta_derivative_raises_the_degree():
    assert delta_derivative(delta_star(point=1)) == ThickDelta(SpherePair(-1, 1), 1, point=1)
    assert delta_derivative(ThickDelta(SpherePair(3, -2), 2)) == ThickDelta(SpherePair(-9, -6), 3)
    assert simplify(Derivative(Derivative(pf_power(-2)))) == LinearCombination((
        (Fraction(1), PfDensity(SpherePair(6, 6), -4)),
        (Fraction(1), ThickDelta(SpherePair(-10, -10), 3)),
    ))


def test_density_derivative_drops_the_zero_pf_term():
    assert density_derivative(pf_power(0)) == ThickDelta(SpherePair(2, -2), 0)
    assert density_derivative(pf_heaviside(point=2)) == ThickDelta(g_lambda(1), 0, point=2)


@pytest.mark.parametrize("lam", [0.0, -1.0, -3.0])
def test_density_derivative_of_an_integral_float_power_is_misclassified(lam):
    f = pf_power(lam)
    with pytest.raises(MisclassifiedPowerError):
        density_derivative(f)
    for _ in range(2):  # a move that raised is not kept
        with pytest.raises(MisclassifiedPowerError):
            derivative_rule(f)


def test_float_power_reaching_an_integer_raises_at_that_step():
    assert density_derivative(pf_power(1.0)) == PfDensity(SpherePair(1, -1), 0.0)
    with pytest.raises(MisclassifiedPowerError):
        simplify(Derivative(Derivative(pf_power(1.0))))
    with pytest.raises(MisclassifiedPowerError):
        pair(Derivative(Derivative(pf_power(1.0))), plateau_bump(1.0))


def test_derivative_rule_moves_through_nested_derivatives():
    inner = Derivative(pf_power(-1))
    assert derivative_rule(Derivative(inner)) == Derivative(derivative_rule(inner))
    # d* of d*Pf is d* of the moved Pf
    assert derivative_rule(inner) == Derivative(density_derivative(pf_power(-1)))


@pytest.mark.parametrize("node", [
    Dilate(pf_heaviside(), 2),
    Translate(delta_star(), 1),
])
def test_derivative_rule_stays_none_over_a_node_without_a_rule(node):
    assert derivative_rule(node) is None
    assert derivative_rule(Derivative(node)) is None
    assert derivative_rule(Derivative(Derivative(node))) is None


def test_a_projected_distribution_has_no_move_and_keeps_none():
    view = project(delta_star())
    for _ in range(2):
        assert derivative_rule(view) is None and multiplier_rule(view) is None
    assert not hasattr(view, "_derivative")


def test_nested_derivative_pairs_as_its_moved_tree():
    phi = from_polynomial([1, 2, 3], 2.0)
    f = pf_power(Fraction(-1, 2))
    moved = derivative_rule(Derivative(Derivative(f)))
    assert moved == Derivative(Derivative(density_derivative(f)))
    assert pair(Derivative(Derivative(Derivative(f))), phi) == pair(moved, phi)


@pytest.mark.parametrize("multiplier, moved", [
    (power_multiplier(3), ThickDelta(SpherePair(1, -2), -2)),
    (power_multiplier(0), ThickDelta(SpherePair(1, 2), 1)),
    (heaviside_multiplier(), ThickDelta(SpherePair(1, 0), 1)),
    (Multiplier(-1, (Fraction(1, 2), -3)), ThickDelta(SpherePair(Fraction(1, 2), -6), 2)),
    (power_multiplier(2).scale(0), ThickDelta(SpherePair(0, 0), 1)),
])
def test_multiplier_rule_shifts_the_degree_and_multiplies_the_weights(multiplier, moved):
    assert multiplier_rule(MultiplierProduct(multiplier, ThickDelta(SpherePair(1, 2), 1))) == moved


@pytest.mark.parametrize("inner", [
    LinearCombination(((2, delta_star()),)),
    Translate(delta_star(), 0),
    Derivative(delta_star()),
], ids=["combination", "translate", "derivative"])
def test_multiplier_rule_is_none_over_any_other_inner_node(inner):
    assert multiplier_rule(MultiplierProduct(power_multiplier(2), inner)) is None
    assert multiplier_rule(inner) is None


@pytest.mark.parametrize("multiplier, density, moved", [
    (power_multiplier(2), pf_power(Fraction(-5, 2)), pf_power(Fraction(-1, 2))),
    (heaviside_multiplier(), pf_power(-1), PfDensity(SpherePair(1, 0), -1)),
    (heaviside_multiplier(), pf_heaviside(), pf_heaviside()),
    (Multiplier(-2, (2, 1)), pf_sign_power(Fraction(1, 2)),
     PfDensity(SpherePair(2, -1), Fraction(-3, 2))),
    (power_multiplier(3), pf_power(-3), PfDensity(SpherePair(1, -1), 0)),
    (power_multiplier(2).scale(0), pf_power(-2), PfDensity(SpherePair(0, 0), -2)),
    # a decimal power shifts as the decimal it prints as
    (power_multiplier(1), pf_power(-0.7), PfDensity(SpherePair(1, -1), 0.3)),
    (power_multiplier(-1), pf_power(0.1), PfDensity(SpherePair(1, -1), -0.9)),
], ids=["half-integer", "step-log", "step-step", "negative-order", "to-zero", "zero",
        "decimal", "decimal-down"])
def test_multiplier_rule_moves_onto_a_density(multiplier, density, moved):
    assert multiplier_rule(MultiplierProduct(multiplier, density)) == moved
    assert type(moved.power) is type(density.power)


def test_a_shifted_decimal_power_out_of_the_float_range_ends_typed():
    psi = power_multiplier(10 ** 400)
    with pytest.raises(NonFiniteError, match="float range"):
        multiplier_rule(MultiplierProduct(psi, pf_power(0.5)))
    with pytest.raises(NonFiniteError):
        simplify(MultiplierProduct(psi, pf_power(0.5)))


def test_derivative_rule_over_a_product_moves_it_or_takes_the_product_rule():
    step = heaviside_multiplier()
    # onto Pf(H), then d*Pf(H) is the one-sided delta
    assert derivative_rule(MultiplierProduct(step, pf_heaviside())) == ThickDelta(g_lambda(1), 0)
    # H' is zero away from the point, so only psi·d*g is left
    g = Dilate(pf_heaviside(), 2)
    assert derivative_rule(MultiplierProduct(step, g)) \
        == LinearCombination(((1, MultiplierProduct(step, Derivative(g))),))


def test_a_product_of_products_is_one_product_moved_at_once():
    inner = MultiplierProduct(power_multiplier(1), delta_star())
    outer = MultiplierProduct(power_multiplier(2), inner)
    assert outer == MultiplierProduct(power_multiplier(3), delta_star())
    assert multiplier_rule(outer) == ThickDelta(SpherePair(1, -1), -3)
    assert multiplier_rule(inner) == ThickDelta(SpherePair(1, -1), -1)


def test_simplify_moves_a_multiplier_onto_a_leaf():
    psi = power_multiplier(2)
    f = MultiplierProduct(psi, ThickDelta(SpherePair(1, 2), 1))
    assert simplify(f) == multiplier_rule(f) == ThickDelta(SpherePair(1, 2), -1)
    f = MultiplierProduct(psi, Derivative(pf_power(Fraction(-1, 2))))
    # onto d*Pf(|x|^-1/2) = Pf((-1/2, 1/2) r^-3/2), once simplify has moved d*
    assert simplify(f) == PfDensity(SpherePair(Fraction(-1, 2), Fraction(1, 2)), Fraction(1, 2))
    # over any other node the product stays
    f = MultiplierProduct(psi, Translate(delta_star(1), 1))
    assert simplify(f) == f


def test_a_multiplier_over_a_cancelling_combination_simplifies_to_zero():
    # at a point other than 0: the zero distribution's point reads 0, and the
    # product is not rebuilt over it
    cancel = LinearCombination(((1, delta_star(1)), (-1, delta_star(1))))
    assert simplify(MultiplierProduct(power_multiplier(2, point=1), cancel)) == ZERO_DISTRIBUTION
    assert simplify(Derivative(MultiplierProduct(heaviside_multiplier(1), cancel))) \
        == ZERO_DISTRIBUTION
    cancel = LinearCombination(((1, delta_star()), (-1, delta_star())))
    assert simplify(MultiplierProduct(heaviside_multiplier(), cancel)) == ZERO_DISTRIBUTION


@pytest.mark.parametrize("f", [
    ThickDelta(SpherePair(0, 0), 2),
    PfDensity(SpherePair(0, 0), Fraction(-1, 2)),
    # a multiplier moved onto a leaf, to zero weights or then differentiated to them
    MultiplierProduct(Multiplier(1, (1, 0)), PfDensity(SpherePair(0, 1), Fraction(-1, 2))),
    Derivative(MultiplierProduct(power_multiplier(1), delta_star())),
    Derivative(MultiplierProduct(power_multiplier(2), ThickDelta(SpherePair(1, 2), 1))),
    Derivative(PfDensity(SpherePair(0, 0), 3)),
])
def test_a_zero_leaf_simplifies_to_the_zero_distribution(f):
    # one normal form for the zero distribution, as in a combination
    assert simplify(f) == ZERO_DISTRIBUTION


def test_simplify_refuses_a_non_node():
    with pytest.raises(TypeError, match="not a distribution node"):
        simplify(plateau_bump(1.0))


@pytest.mark.parametrize("power, error", [
    (True, TypeError), (float("inf"), ValueError), (-float("inf"), ValueError), ("1", TypeError),
])
def test_density_power_must_be_a_finite_number(power, error):
    with pytest.raises(error):
        PfDensity(SpherePair(1, 1), power)
