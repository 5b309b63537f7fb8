import math
import time
from fractions import Fraction

import pytest

from thickcalc.distributions import (
    Derivative,
    Dilate,
    LinearCombination,
    MultiplierProduct,
    PfDensity,
    Translate,
    delta_star,
    g_lambda_delta,
    pf_heaviside,
    pf_power,
    pf_sign_power,
    project,
)
from thickcalc.errors import (
    InsufficientOrderError,
    MisclassifiedPowerError,
    NonFiniteError,
    OrdinaryFunctionRequiredError,
    PointMismatchError,
    QuadratureError,
)
from thickcalc.expansion import Expansion, from_taylor
from thickcalc import pairing
from thickcalc.checks import run_suite
from thickcalc.pairing import (
    PairingResult,
    QuadratureConfig,
    axis_integral,
    fp_limit,
    fp_pair_oracle,
    pair,
    radial_integral,
)
from thickcalc.quadrature import integrate
from thickcalc.sphere import SpherePair
from thickcalc.testfn import (
    Monomial,
    ThickTestFunction,
    derivative,
    from_polynomial,
    heaviside_multiplier,
    plateau_bump,
    thick_monomial,
    translate,
)


# -- thick delta ---------------------------------------------------------------


def test_delta_star_averages_order_zero():
    phi = thick_monomial(0, (3, 1), 2.0)
    res = pair(delta_star(), phi)
    assert res.value == 2
    assert isinstance(res.value, Fraction)
    assert res.quad_error == 0.0


def test_delta_star_on_ordinary_function_is_point_value():
    phi = from_polynomial([Fraction(7, 3), 1, 4], 2.0)
    res = pair(delta_star(), phi)
    assert res.value == Fraction(7, 3)
    assert float(res.value) == pytest.approx(phi.evaluate(1e-9), abs=1e-8)


def test_delta_star_vanishing_coefficient():
    phi = thick_monomial(1, (1, 1), 2.0)  # a_0 = 0
    assert pair(delta_star(), phi).value == 0


def test_weighted_delta_degree_two():
    phi = thick_monomial(2, (4, 8), 2.0)
    res = pair(g_lambda_delta(Fraction(1, 4), 2), phi)
    assert res.value == 7  # 1/4 * 4 + 3/4 * 8


def test_one_sided_delta():
    phi = thick_monomial(0, (3, 1), 2.0)
    assert pair(g_lambda_delta(1), phi).value == 3
    assert pair(g_lambda_delta(0), phi).value == 1


def unit_delta_of_degree(q):
    from thickcalc.distributions import ThickDelta
    from thickcalc.sphere import SphereDistribution
    return ThickDelta(SphereDistribution(SpherePair(1, 1)), q)


def test_delta_degree_above_window_raises():
    weak = ThickTestFunction(
        body=Monomial(0, SpherePair(1, 1)),
        expansion=Expansion(0, (SpherePair(1, 1),), exact=False),
        point=0, radius=1.0, exact_radius=0.0,
    )
    with pytest.raises(InsufficientOrderError):
        pair(unit_delta_of_degree(2), weak)


def test_delta_degree_below_start_is_zero():
    phi = thick_monomial(2, (1, 1), 2.0)
    assert pair(unit_delta_of_degree(-1), phi).value == 0


def test_point_mismatch_rejected():
    with pytest.raises(PointMismatchError):
        pair(delta_star(point=1), plateau_bump(1.0))


# -- step-function derivative ----------------------------------------------------


def test_step_derivative_on_plateau_is_one():
    res = pair(Derivative(pf_heaviside()), plateau_bump(2.0))
    assert res.value == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("phi_builder", [
    lambda: plateau_bump(2.0),
    lambda: thick_monomial(0, (5, 2), 2.0),
    lambda: thick_monomial(-1, (1, 1), 2.0),
    lambda: thick_monomial(-2, (2, 5), 2.0),
    lambda: thick_monomial(1, (1, -1), 2.0),
    lambda: thick_monomial(2, (1, 1), 2.0),
    lambda: from_polynomial([3, 1, -2], 2.0),
    lambda: thick_monomial(0, (5, 2), 2.0) + thick_monomial(-2, (1, 4), 2.0),
])
def test_step_derivative_extracts_order_zero_plus(phi_builder):
    phi = phi_builder()
    expected = float(phi.expansion.coefficient(0).plus)
    res = pair(Derivative(pf_heaviside()), phi)
    assert res.value == pytest.approx(expected, abs=1e-8)


# -- finite-part densities ----------------------------------------------------------


def test_inverse_square_on_plateau_split_half():
    cfg = QuadratureConfig(split_radius=0.5)
    phi = plateau_bump(1.0)
    res = pair(pf_power(-2), phi, cfg)
    assert res.split_radius == 0.5
    assert res.series_terms == ((0, -4.0),)  # 2 * A^-1 / (-1)
    assert res.log_term == 0
    far, _ = integrate(lambda r: r ** -2 * (phi.evaluate(r) + phi.evaluate(-r)),
                       0.5, 1.0, 1e-12)
    assert res.value == pytest.approx(far - 4.0, abs=1e-9)
    oracle = fp_pair_oracle(pf_power(-2), phi)
    assert res.value == pytest.approx(oracle.finite_part, abs=1e-5)


def test_split_radius_clamped_to_support():
    res = pair(pf_power(-2), plateau_bump(1.0))  # default A = 1.0 hits the edge
    assert res.split_radius == 0.5


def test_integer_branch_log_term():
    phi = plateau_bump(2.0)
    res = pair(pf_power(-1), phi)
    # subtracting the constant leaves a log A series term with weight 2
    assert res.log_term == pytest.approx(2 * math.log(1.0))
    assert res.value == pytest.approx(fp_pair_oracle(pf_power(-1), phi).finite_part,
                                      abs=1e-5)


def test_convergent_case_matches_direct_quadrature():
    # for powers above -1 and a function smooth at the point, the finite part
    # reconstructs the plain absolutely convergent integral
    phi = from_polynomial([1, -1, Fraction(1, 2)], 2.0)
    for lam in (Fraction(-1, 2), Fraction(1, 2), 0, 1, Fraction(3, 2)):
        res = pair(pf_power(lam), phi)
        direct, _ = integrate(lambda r: r ** float(lam) * (phi.evaluate(r) + phi.evaluate(-r)),
                              0.0, 2.0, 1e-11, max_panels=4000)
        assert res.value == pytest.approx(direct, abs=1e-8)


def test_sign_density():
    # odd density against an even function integrates to zero
    phi = plateau_bump(2.0)
    res = pair(PfDensity(SpherePair(1, -1), 1), phi)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_float_integer_power_is_rejected():
    with pytest.raises(MisclassifiedPowerError):
        pair(pf_power(-2.0), plateau_bump(2.0))


def test_insufficient_expansion_window():
    weak = ThickTestFunction(
        body=Monomial(0, SpherePair(1, 1)),
        expansion=from_taylor([1]),  # non-exact, window 0
        point=0, radius=1.0, exact_radius=0.0,
    )
    with pytest.raises(InsufficientOrderError):
        pair(pf_power(-3), weak)


def test_quadrature_failure_surfaces():
    cfg = QuadratureConfig(abs_tol=1e-14, max_subdivisions=3)
    with pytest.raises(QuadratureError):
        pair(pf_power(Fraction(-5, 2)), thick_monomial(3, (1, 2), 2.0), cfg)


# -- A independence -------------------------------------------------------------------


@pytest.mark.parametrize("lam", [Fraction(-5, 2), -2, -1, Fraction(3, 2)])
def test_split_radius_independence(lam):
    phi = from_polynomial([2, 1, 1], 3.0) + thick_monomial(-1, (1, 2), 3.0)
    values = [pair(pf_power(lam), phi, QuadratureConfig(split_radius=A)).value
              for A in (0.3, 0.5, 1.0)]
    for a in values:
        for b in values:
            assert a == pytest.approx(b, abs=1e-7)


# -- oracle ---------------------------------------------------------------------------


def test_fp_limit_power_ladder():
    # F(eps) = integral of r^alpha from eps to 1, known in closed form
    for alpha in (Fraction(-1, 2), Fraction(-3, 2), Fraction(-5, 2)):
        fa = float(alpha)
        samples = [(0.5 ** k, (1.0 - (0.5 ** k) ** (fa + 1)) / (fa + 1))
                   for k in range(1, 21)]
        expected = 1.0 / (fa + 1)
        fit = fp_limit(samples)
        assert fit.finite_part == pytest.approx(expected, abs=1e-6)


def test_fp_limit_log_case():
    A = 2.0
    samples = [(0.5 ** k, math.log(A) - math.log(0.5 ** k)) for k in range(1, 21)]
    fit = fp_limit(samples)
    assert fit.finite_part == pytest.approx(math.log(2.0), abs=1e-6)
    assert fit.log_coefficient == pytest.approx(-1.0, abs=1e-6)


def test_fp_limit_already_finite():
    samples = [(0.5 ** k, 5.0 + 3.0 * 0.5 ** k) for k in range(1, 21)]
    assert fp_limit(samples).finite_part == pytest.approx(5.0, abs=1e-9)


def test_fp_limit_needs_enough_samples():
    with pytest.raises(ValueError):
        fp_limit([(0.5, 1.0), (0.25, 1.0)])


def test_oracle_heaviside_is_one_sided_integral():
    phi = plateau_bump(2.0)
    fit = fp_pair_oracle(pf_heaviside(), phi)
    one_sided, _ = integrate(lambda r: phi.evaluate(r), 0.0, 2.0, 1e-12)
    assert fit.finite_part == pytest.approx(one_sided, abs=1e-8)
    assert pair(pf_heaviside(), phi).value == pytest.approx(one_sided, abs=1e-8)


def test_zero_expansion_function_pairs_plainly():
    # the derivative of the cutoff vanishes identically near the point, so
    # the singular density sees only the far transition band
    phi = derivative(plateau_bump(2.0))
    assert phi.expansion.is_zero()
    res = pair(pf_power(-2), phi)
    assert res.series_terms == ()
    fit = fp_pair_oracle(pf_power(-2), phi)
    assert res.value == pytest.approx(fit.finite_part, abs=1e-6)


def test_oracle_log_coefficient_diagnostic():
    phi = plateau_bump(2.0)
    fit = fp_pair_oracle(PfDensity(SpherePair(1, 0), -1), phi)
    assert fit.log_coefficient == pytest.approx(-1.0, abs=1e-4)


@pytest.mark.parametrize("lam", [Fraction(-5, 2), -2, -1, Fraction(-1, 2), 0, Fraction(3, 2)])
def test_oracle_agrees_with_pair(lam):
    phi = from_polynomial([1, 2, 1], 3.0)
    res = pair(pf_power(lam), phi)
    fit = fp_pair_oracle(pf_power(lam), phi)
    assert res.value == pytest.approx(fit.finite_part, abs=1e-5)


# -- duality and transforms ---------------------------------------------------------


def test_delta_derivatives_reproduce_classical_moments():
    x = thick_monomial(1, (1, -1), 2.0)
    x2 = from_polynomial([0, 0, 1], 2.0)
    assert pair(Derivative(delta_star()), x).value == -1
    assert pair(Derivative(delta_star()), x2).value == 0
    assert pair(Derivative(Derivative(delta_star())), x2).value == 2


def test_double_derivative_duality():
    f = pf_power(Fraction(-3, 2))
    phi = from_polynomial([1, 1, 1, 1], 2.0)
    lhs = pair(Derivative(Derivative(f)), phi)
    rhs = pair(f, derivative(derivative(phi)))
    assert lhs.value == pytest.approx(rhs.value, abs=1e-8)


def test_multiplier_product_routes_through_test_function():
    h = heaviside_multiplier()
    phi = thick_monomial(0, (3, 1), 2.0)
    res = pair(MultiplierProduct(h, delta_star()), phi)
    assert res.value == Fraction(3, 2)  # only the plus side survives


def test_multiplier_fold_equals_density_fold():
    # H(x) applied as a multiplier must match the step baked into the density:
    # one route modifies the test function, the other the density coefficient
    from thickcalc.testfn import monomial_multiplier
    phi = from_polynomial([1, 2, 1], 2.0) + thick_monomial(-1, (1, 2), 2.0)
    for lam in (-2, Fraction(-3, 2), -1, 1):
        via_mult = pair(MultiplierProduct(heaviside_multiplier(), pf_power(lam)), phi)
        via_density = pair(PfDensity(SpherePair(1, 0), lam), phi)
        assert float(via_mult.value) == pytest.approx(float(via_density.value), abs=1e-9)
    sgn = monomial_multiplier(0, SpherePair(1, -1))
    via_mult = pair(MultiplierProduct(sgn, pf_power(Fraction(-5, 2))), phi)
    via_density = pair(PfDensity(SpherePair(1, -1), Fraction(-5, 2)), phi)
    assert float(via_mult.value) == pytest.approx(float(via_density.value), abs=1e-9)


def test_linear_combination_pairing():
    phi = thick_monomial(0, (3, 1), 2.0)
    f = LinearCombination(((Fraction(2), delta_star()), (Fraction(-1, 2), g_lambda_delta(1)),))
    assert pair(f, phi).value == 2 * 2 - Fraction(1, 2) * 3


def test_translation_against_direct_quadrature():
    c = Fraction(3, 2)
    f = Translate(pf_power(1), c)          # |x + c| as a distribution at -c
    phi = plateau_bump(2.0, point=-c)
    res = pair(f, phi)
    direct, _ = integrate(lambda x: abs(x + 1.5) * phi.evaluate(x), -3.5, 0.5, 1e-12)
    assert res.value == pytest.approx(direct, abs=1e-8)


def test_translation_round_trip_on_singular_density():
    # shifting the distribution and the test function together changes nothing
    f = pf_power(-2)
    phi = plateau_bump(2.0) + thick_monomial(-1, (1, 2), 2.0)
    c = Fraction(7, 3)
    lhs = pair(Translate(f, c), translate(phi, -c))
    rhs = pair(f, phi)
    assert float(lhs.value) == pytest.approx(float(rhs.value), abs=1e-10)


def test_fit_condition_guard():
    from thickcalc.errors import FitConditionError
    samples = [(0.5, 1.0)] * 25  # a degenerate grid has no resolving power
    with pytest.raises(FitConditionError):
        fp_limit(samples)


def test_dilation_scales_convergent_density():
    phi = from_polynomial([1, 0, 1], 2.0)
    lhs = pair(Dilate(pf_power(1), 2), phi)     # |2x|
    rhs = pair(pf_power(1), phi)
    assert lhs.value == pytest.approx(2 * rhs.value, abs=1e-8)


def test_reflection_preserves_even_delta_pairing():
    phi = from_polynomial([4, 1], 2.0)  # a_0 even, a_1 odd
    lhs = pair(Dilate(delta_star(), -1), phi)
    rhs = pair(delta_star(), phi)
    assert lhs.value == rhs.value == 4


def test_reflection_swaps_sides():
    phi = thick_monomial(0, (3, 1), 2.0)
    res = pair(Dilate(g_lambda_delta(1), -1), phi)
    assert res.value == 1  # picks the minus side after reflection


# -- identities -----------------------------------------------------------------------


def test_noninteger_finite_parts_are_homogeneous():
    # F.p. of |x|^lam keeps the scaling law |c|^lam when lam is not an
    # integer; the engine never uses this, so agreement is an independent
    # validation of the dilation path through the singular formulas
    phi = from_polynomial([1, 2, 1], 2.0)
    for lam in (Fraction(-3, 2), Fraction(-5, 2), Fraction(-1, 2)):
        base = float(pair(pf_power(lam), phi).value)
        for c in (2, Fraction(1, 2), -2):
            lhs = float(pair(Dilate(pf_power(lam), c), phi).value)
            assert lhs == pytest.approx(abs(float(c)) ** float(lam) * base, abs=1e-8)


def test_integer_power_dilation_log_anomaly():
    # truncating at eps in the dilated variable shifts the finite part by
    # (a_0 sum) * log|c| before the 1/|c| normalization; the engine must
    # reproduce that exact defect of homogeneity
    phi = from_polynomial([1, 2, 1], 2.0)
    base = float(pair(pf_power(-1), phi).value)
    a0 = phi.expansion.coefficient(0)
    a0sum = float(a0.plus + a0.minus)
    for c in (2, Fraction(1, 2), -3):
        lhs = float(pair(Dilate(pf_power(-1), c), phi).value)
        predicted = (base + a0sum * math.log(abs(float(c)))) / abs(float(c))
        assert lhs == pytest.approx(predicted, abs=1e-10)


def test_projected_step_acts_as_ordinary_step():
    phi = from_polynomial([1, -1, Fraction(1, 2)], 2.0)
    got = float(pair(project(pf_heaviside()), phi).value)
    one_sided, _ = integrate(lambda r: phi.evaluate(r), 0.0, 2.0, 1e-12)
    assert got == pytest.approx(one_sided, abs=1e-9)


def test_radial_equals_axis_integral():
    for phi in (plateau_bump(1.5), from_polynomial([1, 2, 3], 2.0),
                translate(from_polynomial([1, 1], 1.0), Fraction(5, 2))):
        assert radial_integral(phi) == pytest.approx(axis_integral(phi), abs=1e-10)


def test_projection_gates_thick_functions():
    view = project(delta_star())
    assert pair(view, plateau_bump(1.0)).value == 1
    with pytest.raises(OrdinaryFunctionRequiredError):
        pair(view, thick_monomial(0, (1, 0), 1.0))


@pytest.mark.parametrize("field", ["abs_tol", "split_radius"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError):
        QuadratureConfig(**{field: value})


def test_fourth_derivative_of_a_product_pairs_quickly():
    start = time.perf_counter()
    phi = thick_monomial(2, (1, 3), 2.0) * from_polynomial([1, 1], 2.0)
    for _ in range(4):
        phi = derivative(phi)
    value = float(pair(pf_power(Fraction(-3, 2)), phi).value)
    assert value == pytest.approx(6.107447152293391, rel=1e-8)
    assert time.perf_counter() - start < 2.5


# -- closed-form near field and the result algebra -----------------------------------


def counting_integrate(monkeypatch):
    calls = []

    def counted(f, a, b, *args):
        calls.append((a, b))
        return integrate(f, a, b, *args)
    monkeypatch.setattr(pairing, "integrate", counted)
    return calls


def test_plateau_tail_needs_no_quadrature(monkeypatch):
    # R = 2, A = 1 = R/2: [0, A] is all plateau, so only the far field is integrated
    calls = counting_integrate(monkeypatch)
    phi = from_polynomial([1, 2, 1], 2)
    res = pair(pf_power(Fraction(-5, 2)), phi)
    assert calls == [(1.0, 2)]
    assert float(res.value) == pytest.approx(fp_pair_oracle(pf_power(Fraction(-5, 2)), phi)
                                             .finite_part, abs=1e-8)


@pytest.mark.parametrize("lam", [Fraction(-5, 2), -2, Fraction(-1, 2), Fraction(3, 2)])
def test_mixed_near_field_agrees_with_oracle(monkeypatch, lam):
    # exact radius E = 0.5 < A = 1 < R = 2: closed form on [0, E], quadrature on [E, A]
    phi = from_polynomial([1, 2], 2) + plateau_bump(1)
    expected = fp_pair_oracle(pf_power(lam), phi).finite_part
    calls = counting_integrate(monkeypatch)
    res = pair(pf_power(lam), phi)
    assert sorted(calls) == [(0.5, 1.0), (1.0, 2)]
    assert float(res.value) == pytest.approx(expected, abs=1e-8)


def test_split_radius_spread_is_at_rounding_level():
    # four powers x wide_suite() x A in {0.3, 0.5, 1.0}; the suite gate itself is 1e-7
    [outcome] = run_suite("a-independence")
    assert outcome.observed <= 1e-12


def test_result_algebra_keeps_exact_values_exact():
    a = PairingResult(Fraction(1, 3), None, 0.0)
    b = PairingResult(0.5, 1.0, 1e-12, ((-1, 0.25),), 2.0)
    total = a.scaled(Fraction(-3, 2)) + b.scaled(-2)
    assert total == PairingResult(Fraction(-1, 2) - 1.0, 1.0, 2e-12, ((-1, -0.5),), -4.0)
    exact = a + a.scaled(2)
    assert exact.value == 1 and isinstance(exact.value, Fraction)
    assert exact.split_radius is None


def test_non_finite_and_overflowing_pairings_are_typed():
    with pytest.raises(NonFiniteError):
        pair(LinearCombination(((Fraction(1e300), pf_power(Fraction(-1, 2))),)),
             from_polynomial([1e300], 1))
    with pytest.raises(NonFiniteError):
        pair(LinearCombination(((Fraction(1e300), delta_star()),)), from_polynomial([1e300], 1))
    with pytest.raises(NonFiniteError):
        pair(pf_power(Fraction(-1, 2)), from_polynomial([1e308, 1e308], 1))


# -- derivative transfer ---------------------------------------------------------------

TRANSFER_POWERS = [-3, Fraction(-5, 2), -2, -1, Fraction(-1, 2), 0, 1]
TRANSFER_FUNCTIONS = [
    lambda: thick_monomial(2, (1, 3), 2),        # mono(2,pair(1,3),2)
    lambda: from_polynomial([1, 2, -1, 3], 2),   # poly([1,2,-1,3],2)
    lambda: thick_monomial(1, (2, -1), 1),       # mono(1,pair(2,-1),1)
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lam", TRANSFER_POWERS, ids=str)
def test_transfer_agrees_with_the_differentiated_test_function(k, lam):
    """<f, D^k psi> directly and (-1)^k <d*^k f, psi> through the density rule."""
    for sides in ((1, 1), (1, -1), (3, -2)):
        f = PfDensity(SpherePair(*sides), lam)
        for build in TRANSFER_FUNCTIONS:
            psi = build()
            direct = psi
            transferred = f
            for _ in range(k):
                direct = derivative(direct)
                transferred = Derivative(transferred)
            a = float(pair(f, direct).value)
            b = (-1) ** k * float(pair(transferred, psi).value)
            assert abs(a - b) <= 1e-10 * max(abs(a), 1.0), (sides, a, b)


def test_transfer_differentiates_no_test_function(monkeypatch):
    calls = []
    monkeypatch.setattr(pairing, "derivative", lambda phi: calls.append(phi) or derivative(phi))
    psi = thick_monomial(2, (1, 3), 2) * from_polynomial([1, 1], 2)
    f = pf_power(Fraction(-3, 2))
    for _ in range(6):
        f = Derivative(f)
    pair(f, psi)
    pair(Derivative(LinearCombination(((Fraction(2), pf_power(Fraction(-1, 2))),
                                       (Fraction(1), pf_sign_power(Fraction(1, 2)))))), psi)
    assert calls == []


def test_oracle_never_uses_the_density_rule(monkeypatch):
    def forbidden(f):
        raise AssertionError("the oracle must stay independent of the density rule")
    monkeypatch.setattr(pairing, "density_derivative", forbidden)
    fit = fp_pair_oracle(pf_power(Fraction(-3, 2)), from_polynomial([1, 2, 1], 2.0))
    assert math.isfinite(fit.finite_part)


#: <Pf(|x|^-3/2), phi^(6)> for phi = mono(2,pair(1,3),2)*poly([1,1],2), by
#: mpmath at 40 digits (see the test below).
SIXTH_DERIVATIVE_REFERENCE = -59.32838673301046


def test_sixth_derivative_pairing_matches_an_mpmath_reference():
    """Independent of the density rule: mpmath differentiates phi numerically
    and integrates |x|^-3/2 phi^(6).  phi is c(w) x^2 (1 + x) S(2 - |x|)^2
    with the cutoff profile S(t) = g(t) / (g(t) + g(1 - t)), g(t) = exp(-1/t);
    it is cubic on each side of |x| < 1, so phi^(6) vanishes there and the
    finite part is an ordinary integral over 1 < |x| < 2."""
    import mpmath
    saved = mpmath.mp.dps
    mpmath.mp.dps = 40
    try:
        def S(t):
            if t <= 0:
                return mpmath.mpf(0)
            if t >= 1:
                return mpmath.mpf(1)
            g1, g2 = mpmath.exp(-1 / t), mpmath.exp(-1 / (1 - t))
            return g1 / (g1 + g2)

        def phi(x):
            return (1 if x > 0 else 3) * x ** 2 * (1 + x) * S(2 - abs(x)) ** 2

        def integrand(x):
            return abs(x) ** mpmath.mpf(-1.5) * mpmath.diff(phi, x, 6)

        reference = float(mpmath.quad(integrand, [1, 2]) + mpmath.quad(integrand, [-2, -1]))
    finally:
        mpmath.mp.dps = saved
    assert reference == pytest.approx(SIXTH_DERIVATIVE_REFERENCE, rel=1e-14)

    psi = thick_monomial(2, (1, 3), 2) * from_polynomial([1, 1], 2)
    f = pf_power(Fraction(-3, 2))
    for _ in range(6):
        f = Derivative(f)
    assert float(pair(f, psi).value) == pytest.approx(reference, rel=1e-8)
