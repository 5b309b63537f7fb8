import functools
import math
import re
import time
from fractions import Fraction

import pytest

from thickcalc.distributions import (
    Derivative,
    Dilate,
    LinearCombination,
    MultiplierProduct,
    PfDensity,
    ThickDelta,
    Translate,
    delta_star,
    g_lambda_delta,
    pf_heaviside,
    pf_power,
    pf_sign_power,
    project,
)
from thickcalc.errors import (
    MisclassifiedPowerError,
    NonFiniteError,
    OrdinaryFunctionRequiredError,
    PointMismatchError,
    QuadratureError,
)
from thickcalc import distributions, dsl, pairing
from thickcalc.checks import run_suite
from thickcalc.pairing import (
    _RAMP_H,
    _RAMP_K,
    MOMENT_RANGE,
    _ramp_shape,
    PairingResult,
    QuadratureConfig,
    fit_columns,
    fp_limit,
    fp_pair_oracle,
    pair,
    ramp_derivative_moment,
    ramp_moment,
    ramp_square_moment,
)
from thickcalc.quadrature import integrate
from thickcalc.sphere import SpherePair
from thickcalc.testfn import (
    derivative,
    dilate,
    from_polynomial,
    heaviside_multiplier,
    multiply_by,
    plateau_bump,
    power_multiplier,
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


def test_quadrature_failure_surfaces():
    # a product of cutoffs of overlapping radii takes no ramp moment, so its
    # far field is integrated
    cfg = QuadratureConfig(abs_tol=1e-14, max_subdivisions=3)
    with pytest.raises(QuadratureError):
        pair(pf_power(Fraction(-5, 2)), thick_monomial(3, (1, 2), 2.0) * plateau_bump(1.5), cfg)


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


@pytest.mark.parametrize("bad", [(0.0, 1.0), (-0.5, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                                 (0.5, math.nan), (0.5, -math.inf)])
def test_fp_limit_rejects_non_finite_samples(bad):
    samples = [(0.5 ** k, 5.0 + 3.0 * 0.5 ** k) for k in range(1, 21)]
    with pytest.raises(ValueError, match="finite"):
        fp_limit(samples[:7] + [bad] + samples[8:])


def _check_all_fits(monkeypatch):
    """The (samples, fit, R, bound) of every fit ``check all`` makes: R is the
    triangular factor the gate took its condition bound of."""
    from thickcalc import checks
    fits, gates = [], []
    condition_bound = pairing._condition_bound

    def recording_fp_limit(samples, *args, **kwargs):
        fits.append((samples, fp_limit(samples, *args, **kwargs)))
        return fits[-1][1]

    def recording_bound(R):
        gates.append((R, condition_bound(R)))
        return gates[-1][1]
    monkeypatch.setattr(pairing, "fp_limit", recording_fp_limit)
    monkeypatch.setattr(checks, "fp_limit", recording_fp_limit)
    monkeypatch.setattr(pairing, "_condition_bound", recording_bound)
    assert all(o.passed for o in run_suite("all"))
    assert len(fits) == len(gates) == 28
    return [fit + gate for fit, gate in zip(fits, gates)]


def test_fp_limit_matches_numpy_on_the_check_suite_fits(monkeypatch):
    """numpy is the reference here only: the least-squares residual of every
    fit ``check all`` makes, and the gate's bound, which lies between the
    2-norm condition kappa_2 of the scaled design matrix and n kappa_2, and
    on these fits within 1.5 kappa_2."""
    np = pytest.importorskip("numpy")
    for samples, fit, R, bound in _check_all_fits(monkeypatch):
        eps = np.array([e for e, _ in samples])
        F = np.array([v for _, v in samples])
        M = np.column_stack([eps ** float(p) * np.log(eps) ** q
                             for p, q in fit.coefficients])  # the fit's column order
        weights = 1.0 / np.maximum(1.0, np.abs(F))
        Mw, Fw = M * weights[:, None], F * weights
        norms = np.linalg.norm(Mw, axis=0)
        scaled = Mw / norms
        sol = np.linalg.lstsq(scaled, Fw, rcond=None)[0] / norms
        kappa = np.linalg.cond(scaled)
        assert len(R) == len(fit.coefficients)
        assert kappa * (1 - 1e-3) <= bound <= len(R) * kappa
        assert bound <= 1.5 * kappa
        assert fit.residual == pytest.approx(np.linalg.norm(Mw @ sol - Fw), abs=1e-9)


def test_check_all_fits_pass_on_the_bound_alone(monkeypatch):
    """Every fit ``check all`` makes is gated once, by the condition bound of
    its unit-column triangular factor, and lies far below the limit."""
    for _, fit, R, bound in _check_all_fits(monkeypatch):
        n = len(R)
        assert n == len(fit.coefficients)
        for col in R:
            assert math.hypot(*col) == pytest.approx(1.0, abs=1e-12)
        # ||R||_F = sqrt(n) for unit columns, and ||R^-1||_F >= 1
        assert math.sqrt(n) * (1 - 1e-12) <= bound <= pairing.FIT_CONDITION_LIMIT / 10


def test_fit_columns_ladder_and_powers():
    ladder = fit_columns()
    assert len(ladder) == 18
    assert ladder.count((0, 0)) == 1 and (0, 1) in ladder
    assert [e for e, q in ladder if q] == [e for e, q in ladder if not q and e <= 0]
    for powers in ([Fraction(-3, 2), Fraction(-1, 2), Fraction(1, 2)], [-1, 0, 1, 2],
                   [-2.0, -1.0, 0.0, 1.0], [-0.5, 0.5], [1, 2, 2]):
        columns = fit_columns(powers)
        constants = [e for e, q in columns if e == 0 and q == 0]
        assert len(constants) == 1 and type(constants[0]) is Fraction
        assert ((0, 1) in columns) == (0 in powers)
        assert {e for e, q in columns if not q} == set(powers) | {0}
        assert columns == sorted(columns, key=lambda c: (float(c[0]), c[1]))


def test_oracle_grid_is_eight_samples_over_the_columns(monkeypatch):
    lengths = []
    monkeypatch.setattr(pairing, "fp_limit",
                        lambda samples, *args: (lengths.append(len(samples)),
                                                fp_limit(samples, *args))[1])
    phi = from_polynomial([1, 2, 1], 3.0) + thick_monomial(-1, (1, 2), 3.0)
    for lam in (Fraction(-3, 2), 0, -1, -1.0, Fraction(-5, 2)):
        fp_pair_oracle(pf_power(lam), phi)
    fp_pair_oracle(pf_power(-2), plateau_bump(2.0))
    assert lengths == [13, 13, 13, 13, 13, 10]


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


#: The test functions and powers of the pairing suite's oracle agreement.
ORACLE_SUITE_PHIS = [plateau_bump(2.0), from_polynomial([1, 2, 1], 2.0),
                     thick_monomial(-1, (1, 2), 2.0), thick_monomial(0, (3, 1), 2.0)]
ORACLE_SUITE_POWERS = [Fraction(-5, 2), -2, -1, Fraction(-1, 2), 0, Fraction(3, 2)]


@pytest.mark.parametrize("phi", ORACLE_SUITE_PHIS, ids=range(len(ORACLE_SUITE_PHIS)))
def test_oracle_sequence_form_equals_one_call_per_density(phi):
    densities = ([pf_power(lam) for lam in ORACLE_SUITE_POWERS]
                 + [pf_heaviside(), PfDensity(SpherePair(1, 0), -1)])
    fits = fp_pair_oracle(densities, phi)
    alone = [fp_pair_oracle(f, phi) for f in densities]
    assert isinstance(fits, list) and len(fits) == len(densities)
    for fit, single in zip(fits, alone):
        assert fit.finite_part == single.finite_part
        assert fit.residual == single.residual
        assert fit.coefficients == single.coefficients
        assert repr(fit) == repr(single)  # bit for bit, signs of zeros included
    assert [repr(fit) for fit in fp_pair_oracle(tuple(densities[:2]), phi)] == \
        [repr(fit) for fit in alone[:2]]


def test_oracle_sequence_form_checks_every_density():
    with pytest.raises(TypeError):
        fp_pair_oracle([pf_power(-1), delta_star()], plateau_bump(2.0))
    with pytest.raises(PointMismatchError):
        fp_pair_oracle([pf_power(-1), PfDensity(SpherePair(1, 1), -2, 1)], plateau_bump(2.0))


def test_pairing_suite_samples_each_oracle_node_once(monkeypatch):
    from thickcalc import checks
    from thickcalc.testfn import Body
    radial, oracle = Body.radial, checks.fp_pair_oracle
    nodes = []  # the (body, r) of each Body.radial call, one list per oracle call
    inside = []

    def sampled(body, r):
        if inside:
            nodes[-1].append((id(body), r))
        return radial(body, r)

    def one_oracle_call(*args):
        nodes.append([])
        inside.append(True)
        try:
            return oracle(*args)
        finally:
            inside.pop()
    monkeypatch.setattr(Body, "radial", sampled)
    monkeypatch.setattr(checks, "fp_pair_oracle", one_oracle_call)
    calls, evals = [], []

    def counted(f, *args):
        calls.append(args)
        return integrate(lambda r: evals.append(r) or f(r), *args)
    monkeypatch.setattr(pairing, "integrate", counted)
    assert all(o.passed for o in checks.suite_pairing(pairing.DEFAULT_CONFIG))
    assert len(nodes) == len(ORACLE_SUITE_PHIS)  # one call for the six powers
    assert all(len(set(call)) == len(call) for call in nodes)
    # 1,560 body samples where one call per density took 8,640; the
    # quadrature itself is unchanged
    assert sum(map(len, nodes)) == 1560
    assert len(evals) == 8640 and len(calls) == 252


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


def _ladder_samples():
    # the 18-column power-ladder fit of the pairing suite, alpha = -1/2
    return [(0.5 ** k, (1.0 - (0.5 ** k) ** 0.5) / 0.5) for k in range(1, 21)]


def test_fit_over_the_limit_names_the_condition_bound(monkeypatch):
    from thickcalc.errors import FitConditionError
    bounds = []
    condition_bound = pairing._condition_bound
    monkeypatch.setattr(pairing, "_condition_bound",
                        lambda R: (bounds.append(condition_bound(R)), bounds[-1])[1])
    fit = fp_limit(_ladder_samples())
    assert len(fit.coefficients) == 18
    monkeypatch.setattr(pairing, "FIT_CONDITION_LIMIT", bounds[0])
    assert fp_limit(_ladder_samples()).finite_part == fit.finite_part
    monkeypatch.setattr(pairing, "FIT_CONDITION_LIMIT", bounds[0] * (1 - 1e-9))
    with pytest.raises(FitConditionError,
                       match=re.escape(f"condition bound {bounds[0]:.3g} exceeds")):
        fp_limit(_ladder_samples())


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


@pytest.mark.parametrize("text, exact", [
    ("dilate(dstar, 2), bump(1)", "1/2"),
    ("dilate(delta[1](pair(1,2)), 3), mono(1, pair(1,1), 2)", "1/6"),
    ("dilate(glambda(1/2)·delta[2], -3), poly([1,2,3], 2)", "1/9"),
])
def test_integer_dilation_factor_keeps_the_value_exact(text, exact):
    # 1/|c|, the point a/c and the coefficients |c|^-j stay rational for an
    # integer factor c
    [rec] = dsl.run(dsl.parse_query(f"eval {text}")).records
    assert rec["value_exact"] == exact
    assert rec["value"] == float(Fraction(exact))


def test_dilated_point_is_exact():
    point = Dilate(delta_star(), 3).point
    assert point == 0 and not isinstance(point, float)
    assert Dilate(delta_star(point=2), 3).point == Fraction(2, 3)


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
    # the integral of phi over the line, as the two-sided radial sum and on the x axis
    cfg = pairing.DEFAULT_CONFIG
    for phi in (plateau_bump(1.5), from_polynomial([1, 2, 3], 2.0),
                translate(from_polynomial([1, 1], 1.0), Fraction(5, 2))):
        radial, _ = integrate(pairing._radial(phi.body.radial, phi.radius, SpherePair(1, 1), 0.0),
                              0.0, phi.radius, cfg.abs_tol, cfg.max_subdivisions)
        a = float(phi.point)
        axis, _ = integrate(phi.evaluate, a - phi.radius, a + phi.radius,
                            cfg.abs_tol, cfg.max_subdivisions)
        assert radial == pytest.approx(axis, abs=1e-10)


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
    # R = 2, A = 1 = R/2: [0, A] is all plateau, and the far field of the
    # plain cutoff terms is their ramp moment, so nothing is integrated
    calls = counting_integrate(monkeypatch)
    phi = from_polynomial([1, 2, 1], 2)
    res = pair(pf_power(Fraction(-5, 2)), phi)
    assert calls == []
    assert float(res.value) == pytest.approx(fp_pair_oracle(pf_power(Fraction(-5, 2)), phi)
                                             .finite_part, abs=1e-8)


@pytest.mark.parametrize("lam", [Fraction(-5, 2), -2, Fraction(-1, 2), Fraction(3, 2)])
def test_mixed_near_field_agrees_with_oracle(monkeypatch, lam):
    # exact radius E = 0.5 < A = 1 < R = 2: closed form on [0, E]; every term
    # has one plain cutoff, so [E, A] and [A, R] take ramp moments
    phi = from_polynomial([1, 2], 2) + plateau_bump(1)
    expected = fp_pair_oracle(pf_power(lam), phi).finite_part
    calls = counting_integrate(monkeypatch)
    res = pair(pf_power(lam), phi)
    assert calls == []
    assert float(res.value) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("lam", [Fraction(-5, 2), -2, Fraction(-1, 2), Fraction(3, 2)])
def test_mixed_near_field_of_a_product_agrees_with_oracle(monkeypatch, lam):
    # the same radii with products of two equal cutoffs, which take the
    # square moment: closed form on [0, E], on [E, A] and on [A, R]
    phi = from_polynomial([1, 2], 2) * plateau_bump(2) + plateau_bump(1) * plateau_bump(1)
    assert phi.radius == 2 and phi.exact_radius == 0.5
    expected = fp_pair_oracle(pf_power(lam), phi).finite_part
    calls = counting_integrate(monkeypatch)
    res = pair(pf_power(lam), phi)
    assert calls == []
    assert float(res.value) == pytest.approx(expected, abs=1e-8)


@pytest.mark.parametrize("lam", [Fraction(-5, 2), -2, Fraction(-1, 2), Fraction(3, 2)])
def test_mixed_near_field_of_an_overlapping_product_agrees_with_oracle(monkeypatch, lam):
    # products of overlapping radii stay on quadrature: closed form on
    # [0, E], quadrature on [E, A] and on [A, R]
    phi = from_polynomial([1, 2], 2) * plateau_bump(3) + plateau_bump(1) * plateau_bump(1.5)
    assert phi.radius == 2 and phi.exact_radius == 0.5
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


def test_delta_transfer_differentiates_no_test_function(monkeypatch):
    """d*^6 Pf(|x|^-2) is a density and deltas of degrees 2..7 after the
    rules; the deltas take the delta rule instead of differentiating psi."""
    calls = []
    monkeypatch.setattr(pairing, "derivative", lambda phi: calls.append(phi) or derivative(phi))
    psi = thick_monomial(2, (1, 3), 2) * from_polynomial([1, 1], 2)
    f = pf_power(-2)
    for _ in range(6):
        f = Derivative(f)
    value = float(pair(f, psi).value)
    assert calls == []
    d6 = psi
    for _ in range(6):
        d6 = derivative(d6)
    # the far field of D^6 psi stops at its roundoff floor below 1e-8
    direct = float(pair(pf_power(-2), d6, QuadratureConfig(abs_tol=1e-7)).value)
    assert abs(value - direct) <= 1e-10 * max(abs(value), 1.0)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("delta", [delta_star(), g_lambda_delta(Fraction(1, 3), 1),
                                   ThickDelta(SpherePair(3, -2), 2)],
                         ids=["dstar", "glambda-degree-1", "pair-degree-2"])
def test_delta_rule_agrees_exactly_with_the_differentiated_test_function(k, delta):
    for build in TRANSFER_FUNCTIONS:
        psi = build()
        direct, transferred = psi, delta
        for _ in range(k):
            direct, transferred = derivative(direct), Derivative(transferred)
        assert pair(transferred, psi).value == (-1) ** k * pair(delta, direct).value


def test_oracle_never_uses_the_density_rule(monkeypatch):
    def forbidden(f):
        raise AssertionError("the oracle must stay independent of the derivative rules")
    monkeypatch.setattr(distributions, "density_derivative", forbidden)
    monkeypatch.setattr(distributions, "delta_derivative", forbidden)
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


# -- closed-form ramp moments ---------------------------------------------------------


def _mp_smoothstep(t):
    import mpmath
    if t <= 0:
        return mpmath.mpf(0)
    if t >= 1:
        return mpmath.mpf(1)
    g1, g2 = mpmath.exp(-1 / t), mpmath.exp(-1 / (1 - t))
    return g1 / (g1 + g2)


def test_embedded_ramp_moments_h_k_match_mpmath():
    import mpmath
    with mpmath.workdps(25):
        for k, h in zip(range(1, 83, 2), _RAMP_H):
            # v = x / 4 keeps the integrand of order one for every k
            ref = 2 * mpmath.quad(lambda x: x ** k * (_mp_smoothstep(0.5 + x / 2) - 0.5),
                                  [0, 0.5, 1]) / mpmath.mpf(4) ** (k + 1)
            assert h == pytest.approx(float(ref), rel=1e-15, abs=0), k


@pytest.mark.parametrize("mu", [-MOMENT_RANGE, -17.5, -9, -4, -2.4, -2, -1 - 1e-9, -1,
                                -1 + 1e-9, -0.7, 0, 0.25, 1, 1.6, 3, 7.5, 12, 18,
                                MOMENT_RANGE])
def test_ramp_moment_matches_mpmath(mu):
    import mpmath
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda u: u ** mu * _mp_smoothstep(2 - 2 * u),
                          [0.5, 0.625, 0.75, 0.875, 1])
        scale = mpmath.quad(lambda u: u ** mu, [0.5, 1])  # the integral of |integrand| / S
    m, tail = ramp_moment(mu)
    # the series cancels against the half moment for large mu, so the error
    # is measured against the integral of u^mu over the ramp
    assert abs(m - float(ref)) <= 1e-15 * float(scale)
    assert 0 <= tail <= 1e-16 * float(scale)


@pytest.mark.parametrize("moment", [ramp_moment, ramp_square_moment])
def test_cached_ramp_moments_equal_the_series(moment):
    # equal exponents of different types or zero signs can share a cache
    # entry, so each must give the same bits as the uncached series
    grid = [0.0, -0.0, 0, 3, 3.0, -2.0, -2, 0.25, -1.3, -1 - 1e-9, 7.5, 23.25,
            float(MOMENT_RANGE), MOMENT_RANGE, -MOMENT_RANGE, Fraction(-5, 2), -2.5]
    moment.cache_clear()
    for mu in grid + grid:  # the second round is served from the cache
        assert [x.hex() for x in moment(mu)] == [x.hex() for x in moment.__wrapped__(mu)], mu
    info = moment.cache_info()
    assert info.maxsize is not None and info.hits >= len(grid) and info.currsize < len(grid)


#: One single-cutoff body of each eval-mix shape: bump, poly, mono, a sum of
#: radii 1 and 2, a dilate, and H(x) and x^k products; and the cutoff
#: derivatives D(...) gives: alone, next to plain terms, second order, and
#: through H(x), x^k and a dilate.
SINGLE_CUTOFF_BODIES = {
    "bump": plateau_bump(2.0),
    "poly": from_polynomial([1, 2, 3], 2.0),
    "mono": thick_monomial(-1, (1, 2), 3.0),
    "radii 1 and 2": thick_monomial(1, (2, -1), 1.0) + from_polynomial([1, 0, -1], 2.0),
    "dilate": dilate(thick_monomial(0, (3, 1), 2.0), Fraction(-3, 2)),
    "H(x) product": multiply_by(heaviside_multiplier(), from_polynomial([1, 2, 3], 2.0)),
    "x^k product": multiply_by(power_multiplier(2), thick_monomial(-1, (1, 2), 2.0)),
    "D(bump)": derivative(plateau_bump(2.0)),
    "D(poly)": derivative(from_polynomial([1, 2, 1], 2.0)),
    "D(mono)": derivative(thick_monomial(1, (2, 0), 3.0)),
    "D(D(bump))": derivative(derivative(plateau_bump(2.0))),
    "H(x) D(poly)": multiply_by(heaviside_multiplier(), derivative(from_polynomial([1, 2], 2.0))),
    "x^1 D(mono)": multiply_by(power_multiplier(1), derivative(thick_monomial(0, (1, -1), 2.0))),
    "dilate D(poly)": dilate(derivative(from_polynomial([1, 2, 1], 2.0)), Fraction(-3, 2)),
}


@pytest.mark.parametrize("name", SINGLE_CUTOFF_BODIES)
def test_single_cutoff_pairings_agree_with_the_oracle(monkeypatch, name):
    phi = SINGLE_CUTOFF_BODIES[name]
    assert all(len(factors) == 1 for factors, _, _ in phi.body.terms)
    assert ("D(" in name) == any(factors[0][1] for factors, _, _ in phi.body.terms)
    powers = (Fraction(-5, 2), -2, -1.3, Fraction(1, 2))
    expected = [fit.finite_part for fit in fp_pair_oracle([pf_power(lam) for lam in powers], phi)]
    calls = counting_integrate(monkeypatch)
    got = [float(pair(pf_power(lam), phi).value) for lam in powers]
    assert calls == []  # the ramp moments replace every quadrature
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_plain_and_product_terms_each_take_their_path(monkeypatch):
    plain = from_polynomial([1, 2], 2.0)
    product = thick_monomial(1, (1, -1), 2.0) * plateau_bump(1.5)
    phi = plain + product  # R = 2, E = 0.75 < A = 1
    f = pf_power(Fraction(-3, 2))
    expected = fp_pair_oracle(f, phi).finite_part
    moments = []
    monkeypatch.setattr(pairing, "ramp_moment",
                        lambda mu: moments.append(mu) or ramp_moment(mu))
    calls = counting_integrate(monkeypatch)
    got = float(pair(f, phi).value)
    assert moments == [-1.5, -0.5]  # the two plain terms, r^0 and r^1
    assert sorted(calls) == [(0.75, 1.0), (1.0, 2)]  # the product's near and far field
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(float(pair(f, plain).value) + float(pair(f, product).value),
                                rel=1e-13)


def test_split_radius_spread_of_single_cutoff_bodies():
    spread = 0.0
    for phi in SINGLE_CUTOFF_BODIES.values():
        for lam in (Fraction(-5, 2), -2, -1, Fraction(-1, 2), 0.25, Fraction(3, 2)):
            values = [float(pair(pf_power(lam), phi, QuadratureConfig(split_radius=A)).value)
                      for A in (0.3, 0.5, 1.0)]
            spread = max(spread, max(values) - min(values))
    assert spread <= 1e-13


def _mp_ramp_derivative(u, n):
    """(d/du)^n S(2 - 2u), from the closed form of S' = g1 g2 (1/t^2 + 1/(1-t)^2) / (g1 + g2)^2."""
    import mpmath

    def first(v):
        t = 2 - 2 * v
        if t <= 0 or t >= 1:
            return mpmath.mpf(0)
        g1, g2 = mpmath.exp(-1 / t), mpmath.exp(-1 / (1 - t))
        return -2 * g1 * g2 * (1 / t ** 2 + 1 / (1 - t) ** 2) / (g1 + g2) ** 2
    return first(u) if n == 1 else mpmath.diff(first, u, n - 1)


@pytest.mark.parametrize("n, mu", [(n, mu) for n in (1, 2) for mu in
                                   (-MOMENT_RANGE + 3, -9, -2.4, -1, -0.5, 0, 1, 1.6, 4, 12,
                                    MOMENT_RANGE)]
                         + [(3, -9), (3, -1.3), (3, 2), (3, MOMENT_RANGE)])
def test_ramp_derivative_moment_matches_mpmath(n, mu):
    import mpmath
    nodes = [0.5, 0.625, 0.75, 0.875, 1]
    with mpmath.workdps(20):
        # both quadratures visit the same nodes, so the second reads the cache
        integrand = functools.lru_cache(maxsize=None)(
            lambda u: u ** mu * _mp_ramp_derivative(u, n))
        ref = mpmath.quad(integrand, nodes)
        scale = mpmath.quad(lambda u: abs(integrand(u)), nodes)
    g, err = ramp_derivative_moment(mu, n, 1.0)
    # the error stays small next to the integral of |integrand| although
    # (1/2)^(mu-n+1) cancels for large negative mu; the bound covers it
    error = abs(g - float(ref))
    assert error <= (1e-12 if mu < -8 else 1e-14) * float(scale)
    assert error <= max(err, 1e-16 * float(scale))
    assert err <= 1e-11 * max(1.0, float(scale))
    # rho scales the moment by rho^(mu - n + 1)
    g2, _ = ramp_derivative_moment(mu, n, 2.0)
    assert g2 == pytest.approx(2.0 ** (mu - n + 1) * g, rel=1e-14)


# -- the square moment of same-radius products -------------------------------------


def test_embedded_square_moments_k_match_mpmath():
    import mpmath
    with mpmath.workdps(25):
        for k, c in zip(range(0, 82, 2), _RAMP_K):
            ref = 2 * mpmath.quad(lambda x: x ** k * (_mp_smoothstep(0.5 + x / 2) - 0.5) ** 2,
                                  [0, 0.5, 1]) / mpmath.mpf(4) ** (k + 1)
            assert c == pytest.approx(float(ref), rel=1e-15, abs=0), k


@pytest.mark.parametrize("mu", [-MOMENT_RANGE, -22.75, -20, -17.5, -13, -9, -4, -2.4, -2,
                                -1 - 1e-9, -1, -0.7, 0, 0.25, 1, 1.6, 3, 7.5, 12, 16,
                                18.5, 20, 23.25, MOMENT_RANGE])
def test_ramp_square_moment_matches_mpmath(mu):
    import mpmath
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda u: u ** mu * _mp_smoothstep(2 - 2 * u) ** 2,
                          [0.5, 0.625, 0.75, 0.875, 1])
        scale = mpmath.quad(lambda u: u ** mu, [0.5, 1])
    m2, tail = ramp_square_moment(mu)
    # measured against the integral of u^mu over the ramp, as for m: the
    # error the pairing reports adds 1e-15 of it
    assert abs(m2 - float(ref)) <= 1e-15 * float(scale)
    assert 0 <= tail <= 1e-16 * float(scale)


#: Same-radius products of each shape the square moment takes: S^2, r^j S^2
#: (the deep-derivative body), sums of radii 1 and 2, a dilate, H(x) and x^k
#: products; and the S S' = (S^2)'/2 terms D(...) gives, next to S^2 terms.
PRODUCT_BODIES = {
    "S^2": plateau_bump(2.0) * plateau_bump(2.0),
    "mono * poly": thick_monomial(2, (1, 3), 2.0) * from_polynomial([1, 1], 2.0),
    "radii 1 and 2": (plateau_bump(1.0) * plateau_bump(1.0)
                      + from_polynomial([1, 2], 2.0) * plateau_bump(2.0)),
    "dilate": dilate(thick_monomial(1, (2, -1), 1.0) * plateau_bump(1.0), Fraction(-3, 2)),
    "H(x) product": multiply_by(heaviside_multiplier(),
                                from_polynomial([1, 2, 3], 2.0) * plateau_bump(2.0)),
    "x^k product": multiply_by(power_multiplier(1), thick_monomial(-1, (1, 2), 2.0)
                               * plateau_bump(2.0)),
    "D(S^2)": derivative(plateau_bump(2.0) * plateau_bump(2.0)),
    "D(mono * poly)": derivative(thick_monomial(2, (1, 3), 2.0) * from_polynomial([1, 1], 2.0)),
    "dilate D(poly * bump)": dilate(derivative(from_polynomial([1, 2], 1.0) * plateau_bump(1.0)),
                                    Fraction(3, 2)),
}


@pytest.mark.parametrize("name", PRODUCT_BODIES)
def test_product_pairings_agree_with_the_oracle(monkeypatch, name):
    phi = PRODUCT_BODIES[name]
    shapes = {tuple(n for _, n in factors) for factors, _, _ in phi.body.terms}
    assert shapes <= {(0, 0), (0, 1)} and ((0, 1) in shapes) == ("D(" in name)
    assert all(factors[0][0] == factors[1][0] for factors, _, _ in phi.body.terms)
    powers = (Fraction(-5, 2), -2, -1.3, Fraction(1, 2))
    expected = [fit.finite_part for fit in fp_pair_oracle([pf_power(lam) for lam in powers], phi)]
    calls = counting_integrate(monkeypatch)
    got = [float(pair(pf_power(lam), phi).value) for lam in powers]
    assert calls == []  # the square moment replaces every quadrature
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_split_radius_spread_of_product_bodies():
    spread = 0.0
    for phi in PRODUCT_BODIES.values():
        for lam in (Fraction(-5, 2), -2, -1, Fraction(-1, 2), 0.25, Fraction(3, 2)):
            values = [float(pair(pf_power(lam), phi, QuadratureConfig(split_radius=A)).value)
                      for A in (0.3, 0.5, 1.0)]
            spread = max(spread, max(values) - min(values))
    assert spread <= 1e-13


def test_square_moment_matches_the_quadrature_it_replaces(monkeypatch):
    # the same products with the square moment switched off
    for phi in PRODUCT_BODIES.values():
        for lam in (Fraction(-3, 2), -1, 0.25):
            closed = pair(pf_power(lam), phi)
            with monkeypatch.context() as m:
                m.setattr(pairing, "_ramp_shape",
                          lambda factors: None if len(factors) == 2 else _ramp_shape(factors))
                quad = pair(pf_power(lam), phi)
            assert closed.value == pytest.approx(quad.value, rel=1e-12, abs=1e-12)
            assert abs(closed.value - quad.value) <= closed.quad_error + quad.quad_error


def test_nested_dilate_pairs_as_the_undilated_product(monkeypatch):
    # the radii 0.7 and 1.4 - ulp overlap by one ulp until a dilate by 3/2
    # rounds them onto 1.05 and 2.1, where the wide factor drops out: one side
    # is closed form, the other quadrature, and <|x|^lam, phi(x/c)> = c^(lam+1)
    # <|x|^lam, phi>
    phi = thick_monomial(1, (1, 2), 0.7) * plateau_bump(math.nextafter(1.4, 0))
    f = pf_power(Fraction(-1, 2))
    calls = counting_integrate(monkeypatch)
    nested = float(pair(f, dilate(phi, Fraction(3, 2))).value)
    assert calls == []
    assert nested == pytest.approx(1.5 ** 0.5 * float(pair(f, phi).value), rel=1e-10)
    assert calls


@pytest.mark.parametrize("dist", ["Pf(abs(x)^-3/2)", "d*(Pf(H(x)))"])
def test_deep_derivative_statements_make_no_quadrature(monkeypatch, dist):
    calls = counting_integrate(monkeypatch)
    fn = "mono(2,pair(1,3),2)*poly([1,1],2)"
    for k in range(4):
        report = dsl.run(dsl.parse_query(f"eval {dist}, {fn}"))
        assert "error" not in report.records[0]
        fn = f"D({fn})"
    assert calls == []
