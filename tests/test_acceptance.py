"""Acceptance gate: every criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (straight to the terminal, bypassing
capture) and then asserts, so the suite both documents and enforces the
contract.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

from thickcalc.checks import mixed_suite, order_span_suite, ordinary_suite, wide_suite
from thickcalc.distributions import (
    Derivative,
    MultiplierProduct,
    ThickDelta,
    delta_star,
    pf_heaviside,
    pf_power,
    project,
    simplify,
)
from thickcalc.expansion import differentiate, from_taylor
from thickcalc.pairing import QuadratureConfig, fp_limit, fp_pair_oracle, pair
from thickcalc.sphere import g_lambda
from thickcalc.testfn import (
    derivative,
    from_polynomial,
    heaviside_multiplier,
    plateau_bump,
    seminorm,
    thick_monomial,
)


def report(capsys, number, passed, detail):
    with capsys.disabled():
        print(f"acceptance {number}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, detail


def test_criterion_1_plain_delta_exact(capsys):
    suite = mixed_suite()
    assert len(suite) == 10
    exact_ok = True
    for phi in suite:
        a0 = phi.expansion.coefficient(0)
        expected = Fraction(a0.plus + a0.minus, 2)
        got = pair(delta_star(), phi).value
        exact_ok = exact_ok and isinstance(got, Fraction) and got == expected
    spot = pair(delta_star(), thick_monomial(0, (3, 1), 2.0)).value
    exact_ok = exact_ok and spot == 2
    worst = max(abs(float(pair(delta_star(), phi).value) - phi.evaluate(phi.point))
                for phi in ordinary_suite())
    passed = exact_ok and worst <= 1e-12
    report(capsys, 1, passed,
           f"plain delta: rational-exact on 10 functions, ordinary worst {worst:.2e} <= 1e-12")


def test_criterion_2_step_derivative(capsys):
    suite = order_span_suite()
    assert len(suite) == 8
    starts = {phi.expansion.start for phi in suite}
    assert starts == {-2, -1, 0, 1, 2}
    worst = 0.0
    for phi in suite:
        expected = float(phi.expansion.coefficient(0).plus)
        got = float(pair(Derivative(pf_heaviside()), phi).value)
        worst = max(worst, abs(got - expected))
    plateau_value = float(pair(Derivative(pf_heaviside()), plateau_bump(2.0)).value)
    passed = worst <= 1e-8 and abs(plateau_value - 1.0) <= 1e-8
    report(capsys, 2, passed,
           f"step derivative equals leading plus-coefficient, worst {worst:.2e} <= 1e-8")


def test_criterion_3_split_radius_independence(capsys):
    worst = 0.0
    for lam in (Fraction(-5, 2), -2, -1, Fraction(3, 2)):
        for phi in wide_suite():
            values = [float(pair(pf_power(lam), phi, QuadratureConfig(split_radius=A)).value)
                      for A in (0.3, 0.5, 1.0)]
            worst = max(worst, max(values) - min(values))
    passed = worst <= 1e-7
    report(capsys, 3, passed,
           f"split-radius independence over 4 powers x 5 functions x 3 radii, "
           f"worst spread {worst:.2e} <= 1e-7")


def test_criterion_4_oracle_equivalence(capsys):
    phis = [plateau_bump(2.0), from_polynomial([1, 2, 1], 2.0),
            thick_monomial(-1, (1, 2), 2.0), thick_monomial(0, (3, 1), 2.0)]
    powers = [Fraction(-5, 2), -2, -1, Fraction(-1, 2), 0, Fraction(3, 2)]
    cases = 0
    worst = 0.0
    for phi in phis:
        fits = fp_pair_oracle([pf_power(lam) for lam in powers], phi)
        for lam, fit in zip(powers, fits):
            engine = float(pair(pf_power(lam), phi).value)
            worst = max(worst, abs(engine - fit.finite_part))
            cases += 1
    assert cases >= 20

    ladder_worst = 0.0
    for alpha in (Fraction(-1, 2), Fraction(-3, 2), Fraction(-5, 2)):
        fa = float(alpha)
        samples = [(0.5 ** k, (1.0 - (0.5 ** k) ** (fa + 1)) / (fa + 1))
                   for k in range(1, 21)]
        ladder_worst = max(ladder_worst, abs(fp_limit(samples).finite_part - 1 / (fa + 1)))
    log_samples = [(0.5 ** k, math.log(2.0) - math.log(0.5 ** k)) for k in range(1, 21)]
    ladder_worst = max(ladder_worst, abs(fp_limit(log_samples).finite_part - math.log(2.0)))

    passed = worst <= 1e-5 and ladder_worst <= 1e-6
    report(capsys, 4, passed,
           f"oracle agreement on {cases} cases worst {worst:.2e} <= 1e-5, "
           f"finite-part ladder worst {ladder_worst:.2e} <= 1e-6")


def test_criterion_5_no_half_quarter_paradox(capsys):
    lhs = simplify(Derivative(MultiplierProduct(heaviside_multiplier(), pf_heaviside())))
    rhs = simplify(Derivative(pf_heaviside()))
    structural = lhs == rhs == ThickDelta(g_lambda(1), 0)

    worst = 0.0
    for phi in wide_suite():
        a = float(pair(Derivative(MultiplierProduct(heaviside_multiplier(),
                                                    pf_heaviside())), phi).value)
        b = float(pair(Derivative(pf_heaviside()), phi).value)
        worst = max(worst, abs(a - b))

    proj_worst = 0.0
    for phi in ordinary_suite():
        got = float(pair(project(lhs), phi).value)
        proj_worst = max(proj_worst, abs(got - phi.evaluate(phi.point)))

    # applying the step again must leave the one-sided delta fixed, not halve it
    g1d = ThickDelta(g_lambda(1), 0)
    idem_worst = 0.0
    for phi in mixed_suite():
        once = float(pair(g1d, phi).value)
        again = float(pair(MultiplierProduct(heaviside_multiplier(), g1d), phi).value)
        a0plus = float(phi.expansion.coefficient(0).plus)
        idem_worst = max(idem_worst, abs(once - again), abs(again - a0plus))

    passed = structural and worst <= 1e-10 and proj_worst <= 1e-10 and idem_worst <= 1e-10
    report(capsys, 5, passed,
           f"normal forms identical, pairings agree within {worst:.2e}, projection "
           f"within {proj_worst:.2e}, step idempotent within {idem_worst:.2e} (all <= 1e-10)")


def test_criterion_6_parity_signs(capsys):
    rng = random.Random(40917)
    failures = 0
    for _ in range(50):
        degree = rng.randint(0, 7)
        coeffs = [Fraction(rng.randint(-12, 12), rng.randint(1, 7))
                  for _ in range(degree + 1)]
        e = from_taylor(coeffs)
        for j, c in e.terms():
            if j % 2 == 0 and not c.is_even():
                failures += 1
            if j % 2 == 1 and not c.is_odd():
                failures += 1
        ddx = [k * c for k, c in enumerate(coeffs)][1:]
        if differentiate(e) != from_taylor(ddx):
            failures += 1
    passed = failures == 0
    report(capsys, 6, passed,
           f"parity signs and derivative transport exact on 50 random polynomials "
           f"({failures} failures)")


def test_criterion_7_projection_commutes_with_derivative(capsys):
    worst = 0.0
    for f in (delta_star(), pf_heaviside(), pf_power(-2)):
        for phi in ordinary_suite():
            lhs = float(pair(project(Derivative(f)), phi).value)
            rhs = float(pair(project(f), derivative(phi)).value)
            worst = max(worst, abs(lhs + rhs))
    passed = worst <= 1e-8
    report(capsys, 7, passed,
           f"projection commutes with derivative on 3 distributions x 5 functions, "
           f"worst {worst:.2e} <= 1e-8")


def test_criterion_8_seminorm_diagnostics(capsys):
    zero = seminorm(thick_monomial(2, (1, 1), 1.0), q=3, s=0, k_radius=0.25)
    cubic = seminorm(from_polynomial([0, 0, 0, 1], 2.0), q=3, s=0, k_radius=0.5)
    passed = zero == 0.0 and abs(cubic - 1.0) <= 1e-10
    report(capsys, 8, passed,
           f"seminorm diagnostics: exact-monomial {zero!r} == 0, cubic {cubic!r} ~ 1")


def test_criterion_9_cli_golden(capsys):
    cmd = [sys.executable, "-m", "thickcalc", "check"]
    run = subprocess.run(cmd, capture_output=True, text=True)
    ok = run.returncode == 0 and "FAIL" not in run.stdout

    first = subprocess.run(cmd + ["--json"], capture_output=True, text=True)
    second = subprocess.run(cmd + ["--json"], capture_output=True, text=True)
    stable = (first.returncode == second.returncode == 0
              and first.stdout == second.stdout and len(first.stdout) > 0)
    record = json.loads(first.stdout)
    passed = ok and stable and record["passed"]
    report(capsys, 9, passed,
           "cli check exits 0 and --json output is byte-identical across runs")
