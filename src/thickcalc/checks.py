"""Named verification suites behind the CLI ``check`` command.

Each suite exercises one family of identities at a pinned tolerance and
reports observed-versus-expected per item.  The suites double as the
acceptance gate: ``check all`` must come back green.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable, Dict, List

from .distributions import (
    Derivative,
    MultiplierProduct,
    ThickDelta,
    delta_star,
    pf_heaviside,
    pf_power,
    project,
    simplify,
)
from .expansion import differentiate, from_taylor
from .pairing import DEFAULT_CONFIG, QuadratureConfig, fp_limit, fp_pair_oracle, pair
from .sphere import FrozenRecord, g_lambda
from .testfn import (
    derivative,
    from_polynomial,
    heaviside_multiplier,
    plateau_bump,
    seminorm,
    thick_monomial,
)


class CheckOutcome(FrozenRecord):
    __slots__ = ("suite", "name", "passed", "observed", "expected", "tolerance")

    def __init__(self, suite: str, name: str, passed: bool, observed: float,
                 expected: float, tolerance: float):
        object.__setattr__(self, "suite", suite)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "observed", observed)
        object.__setattr__(self, "expected", expected)
        object.__setattr__(self, "tolerance", tolerance)

    def line(self) -> str:
        return outcome_line(f"{self.suite}.{self.name}", self.passed, self.observed,
                            self.expected, self.tolerance)


def outcome_line(name, passed, observed, expected, tolerance) -> str:
    """The PASS/FAIL line of one outcome; takes the fields of its record."""
    return (f"{'PASS' if passed else 'FAIL'} {name}: observed={observed!r} "
            f"expected={expected!r} tol={tolerance:g}")


def _outcome(suite, name, observed, expected, tol) -> CheckOutcome:
    observed = float(observed)
    expected = float(expected)
    return CheckOutcome(suite, name, abs(observed - expected) <= tol,
                        observed, expected, tol)


# -- shared test-function suites ---------------------------------------------------


def mixed_suite():
    """Ten functions spanning jumps, kinks, singular orders and smooth cases."""
    return [
        thick_monomial(0, (3, 1), 2.0),
        plateau_bump(2.0),
        thick_monomial(0, (1, 0), 2.0),
        thick_monomial(1, (1, -1), 2.0),
        thick_monomial(2, (1, 1), 2.0),
        thick_monomial(-1, (1, 1), 2.0),
        thick_monomial(-2, (2, 5), 2.0),
        from_polynomial([1, 2, 3], 2.0),
        thick_monomial(0, (5, 2), 2.0) + thick_monomial(-2, (1, 4), 2.0),
        from_polynomial([Fraction(1, 2), 0, 1], 2.0) + thick_monomial(1, (2, 0), 2.0),
    ]


def order_span_suite():
    """Eight functions with leading orders from -2 through 2."""
    return [
        thick_monomial(-2, (2, 5), 2.0),
        thick_monomial(-1, (1, 1), 2.0),
        thick_monomial(0, (5, 2), 2.0),
        plateau_bump(2.0),
        thick_monomial(1, (1, -1), 2.0),
        thick_monomial(2, (1, 1), 2.0),
        from_polynomial([3, 1, -2], 2.0),
        thick_monomial(0, (5, 2), 2.0) + thick_monomial(-2, (1, 4), 2.0),
    ]


def ordinary_suite(radius=2.0):
    """Five functions smooth across the point."""
    return [
        plateau_bump(radius),
        from_polynomial([1, 2], radius),
        from_polynomial([0, 0, 3], radius),
        from_polynomial([1, -1, 0, 2], radius),
        from_polynomial([Fraction(1, 3), 0, 0, 0, 1], radius),
    ]


def wide_suite():
    """Five functions whose plateau covers every split radius used in checks."""
    return [
        plateau_bump(3.0),
        from_polynomial([2, 1, 1], 3.0),
        thick_monomial(0, (3, 1), 3.0),
        thick_monomial(-1, (1, 2), 3.0),
        from_polynomial([1, 0, 2], 3.0) + thick_monomial(-2, (1, 1), 3.0),
    ]


# -- suites -------------------------------------------------------------------------


def suite_expansion(cfg: QuadratureConfig) -> List[CheckOutcome]:
    out = []
    rng = random.Random(1729)
    parity_failures = 0
    chain_failures = 0
    for _ in range(50):
        degree = rng.randint(0, 6)
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(degree + 1)]
        e = from_taylor(coeffs)
        for j, c in e.terms():
            if j % 2 == 0 and not c.is_even():
                parity_failures += 1
            if j % 2 == 1 and not c.is_odd():
                parity_failures += 1
        der = [k * c for k, c in enumerate(coeffs)][1:]
        if differentiate(e) != from_taylor(der):
            chain_failures += 1
    out.append(_outcome("expansion", "taylor-parity-50-random", parity_failures, 0, 0))
    out.append(_outcome("expansion", "derivative-commutes-50-random", chain_failures, 0, 0))

    out.append(_outcome("expansion", "seminorm-even-monomial-zero",
                        seminorm(thick_monomial(2, (1, 1), 1.0), 3, 0, 0.25), 0.0, 0.0))
    out.append(_outcome("expansion", "seminorm-cubic-one",
                        seminorm(from_polynomial([0, 0, 0, 1], 2.0), 3, 0, 0.5),
                        1.0, 1e-10))
    return out


def suite_pairing(cfg: QuadratureConfig) -> List[CheckOutcome]:
    out = []
    worst = 0
    for phi in mixed_suite():
        a0 = phi.expansion.coefficient(0)
        expected = Fraction(a0.plus + a0.minus, 2)
        got = pair(delta_star(), phi, cfg).value
        worst = max(worst, abs(got - expected))
    out.append(_outcome("pairing", "delta-exact-rational", worst, 0, 0))

    worst = 0.0
    for phi in ordinary_suite():
        got = float(pair(delta_star(), phi, cfg).value)
        worst = max(worst, abs(got - phi.evaluate(phi.point)))
    out.append(_outcome("pairing", "delta-ordinary-point-value", worst, 0, 1e-12))

    worst = 0.0
    for phi in order_span_suite():
        expected = float(phi.expansion.coefficient(0).plus)
        got = float(pair(Derivative(pf_heaviside()), phi, cfg).value)
        worst = max(worst, abs(got - expected))
    out.append(_outcome("pairing", "step-derivative-order-zero", worst, 0, 1e-8))

    phis = [plateau_bump(2.0), from_polynomial([1, 2, 1], 2.0),
            thick_monomial(-1, (1, 2), 2.0), thick_monomial(0, (3, 1), 2.0)]
    powers = [Fraction(-5, 2), -2, -1, Fraction(-1, 2), 0, Fraction(3, 2)]
    worst = 0.0
    cases = 0
    for phi in phis:
        # one oracle call for the six powers, so each body sample is taken once
        fits = fp_pair_oracle([pf_power(lam) for lam in powers], phi, cfg)
        for lam, fit in zip(powers, fits):
            engine = float(pair(pf_power(lam), phi, cfg).value)
            worst = max(worst, abs(engine - fit.finite_part))
            cases += 1
    out.append(_outcome("pairing", f"oracle-agreement-{cases}-cases", worst, 0, 1e-5))

    worst = 0.0
    for alpha in (Fraction(-1, 2), Fraction(-3, 2), Fraction(-5, 2)):
        fa = float(alpha)
        samples = [(0.5 ** k, (1.0 - (0.5 ** k) ** (fa + 1)) / (fa + 1))
                   for k in range(1, 21)]
        worst = max(worst, abs(fp_limit(samples).finite_part - 1.0 / (fa + 1)))
    log_samples = [(0.5 ** k, math.log(2.0) - math.log(0.5 ** k)) for k in range(1, 21)]
    worst = max(worst, abs(fp_limit(log_samples).finite_part - math.log(2.0)))
    out.append(_outcome("pairing", "finite-part-power-ladder", worst, 0, 1e-6))
    return out


def suite_paskusz(cfg: QuadratureConfig) -> List[CheckOutcome]:
    out = []
    lhs = simplify(Derivative(MultiplierProduct(heaviside_multiplier(), pf_heaviside())))
    rhs = simplify(Derivative(pf_heaviside()))
    same = lhs == rhs == ThickDelta(g_lambda(1), 0)
    out.append(_outcome("paskusz", "normal-forms-identical", 0 if same else 1, 0, 0))

    worst = 0.0
    for phi in wide_suite():
        a = float(pair(lhs, phi, cfg).value)
        b = float(pair(Derivative(MultiplierProduct(heaviside_multiplier(),
                                                    pf_heaviside())), phi, cfg).value)
        worst = max(worst, abs(a - b))
    out.append(_outcome("paskusz", "pairings-agree", worst, 0, 1e-10))

    worst = 0.0
    for phi in ordinary_suite():
        got = float(pair(project(lhs), phi, cfg).value)
        worst = max(worst, abs(got - phi.evaluate(phi.point)))
    out.append(_outcome("paskusz", "projected-is-point-evaluation", worst, 0, 1e-10))

    # multiplying the one-sided delta by the step again must not halve it
    g1d = ThickDelta(g_lambda(1), 0)
    worst = 0
    for phi in mixed_suite():
        once = pair(g1d, phi, cfg).value
        again = pair(MultiplierProduct(heaviside_multiplier(), g1d), phi, cfg).value
        worst = max(worst, abs(once - again))
        worst = max(worst, abs(once - phi.expansion.coefficient(0).plus))
    out.append(_outcome("paskusz", "step-idempotent-no-halving", worst, 0, 1e-10))
    return out


def suite_projection(cfg: QuadratureConfig) -> List[CheckOutcome]:
    out = []
    worst = 0.0
    for f in (delta_star(), pf_heaviside(), pf_power(-2)):
        for phi in ordinary_suite():
            lhs = float(pair(project(Derivative(f)), phi, cfg).value)
            rhs = float(pair(project(f), derivative(phi), cfg).value)
            worst = max(worst, abs(lhs + rhs))
    out.append(_outcome("projection", "derivative-commutes", worst, 0, 1e-8))

    worst = 0.0
    for phi in ordinary_suite():
        got = float(pair(project(delta_star()), phi, cfg).value)
        worst = max(worst, abs(got - phi.evaluate(phi.point)))
    out.append(_outcome("projection", "delta-projects-to-delta", worst, 0, 1e-12))
    return out


def suite_a_independence(cfg: QuadratureConfig) -> List[CheckOutcome]:
    out = []
    worst = 0.0
    for lam in (Fraction(-5, 2), -2, -1, Fraction(3, 2)):
        for phi in wide_suite():
            values = [float(pair(pf_power(lam), phi,
                                 QuadratureConfig(cfg.abs_tol, cfg.max_subdivisions,
                                                  A)).value)
                      for A in (0.3, 0.5, 1.0)]
            spread = max(values) - min(values)
            worst = max(worst, spread)
    out.append(_outcome("a-independence", "split-radius-invariance", worst, 0, 1e-7))
    return out


SUITES: Dict[str, Callable[[QuadratureConfig], List[CheckOutcome]]] = {
    "expansion": suite_expansion,
    "pairing": suite_pairing,
    "paskusz": suite_paskusz,
    "projection": suite_projection,
    "a-independence": suite_a_independence,
}


def run_suite(name: str, cfg: QuadratureConfig = DEFAULT_CONFIG) -> List[CheckOutcome]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](cfg))
        return out
    if name not in SUITES:
        known = ", ".join(list(SUITES) + ["all"])
        raise KeyError(f"unknown check suite {name!r}; expected one of: {known}")
    return SUITES[name](cfg)
