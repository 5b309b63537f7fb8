"""Named verification suites behind the CLI ``check`` command.

Each suite exercises one family of identities at a pinned tolerance and
returns one outcome record per item: the dict that ``check --json`` prints,
``{"name", "passed", "observed", "expected", "tolerance"}``, built by
``_outcome``; ``outcome_line`` renders one as text.  The suites double as the
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
from .errors import ThickCalcError
from .expansion import differentiate, from_taylor
from .pairing import DEFAULT_CONFIG, QuadratureConfig, fp_limit, fp_pair_oracle, pair
from .sphere import g_lambda
from .testfn import (
    derivative,
    from_polynomial,
    heaviside_multiplier,
    multiply_by,
    plateau_bump,
    seminorm,
    thick_monomial,
)


def outcome_line(name, passed, observed, expected, tolerance) -> str:
    """The PASS/FAIL line of one outcome; takes the fields of its record."""
    return (f"{'PASS' if passed else 'FAIL'} {name}: observed={observed!r} "
            f"expected={expected!r} tol={tolerance:g}")


def _outcome(name, observed, expected, tol) -> dict:
    observed = float(observed)
    expected = float(expected)
    return {"name": name, "passed": abs(observed - expected) <= tol,
            "observed": observed, "expected": expected, "tolerance": tol}


def _worst(name, gaps, tol) -> dict:
    """The outcome that the largest of ``gaps`` is 0 to within ``tol``; a NaN
    gap, wherever it stands, is the largest."""
    return _outcome(name, max(gaps, default=0, key=lambda g: (g != g, g)), 0, tol)


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


def ordinary_suite():
    """Five functions smooth across the point."""
    return [
        plateau_bump(2.0),
        from_polynomial([1, 2], 2.0),
        from_polynomial([0, 0, 3], 2.0),
        from_polynomial([1, -1, 0, 2], 2.0),
        from_polynomial([Fraction(1, 3), 0, 0, 0, 1], 2.0),
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


def suite_expansion(cfg: QuadratureConfig) -> List[dict]:
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
    return [
        _outcome("expansion.taylor-parity-50-random", parity_failures, 0, 0),
        _outcome("expansion.derivative-commutes-50-random", chain_failures, 0, 0),
        _outcome("expansion.seminorm-even-monomial-zero",
                 seminorm(thick_monomial(2, (1, 1), 1.0), 3, 0, 0.25), 0.0, 0.0),
        _outcome("expansion.seminorm-cubic-one",
                 seminorm(from_polynomial([0, 0, 0, 1], 2.0), 3, 0, 0.5), 1.0, 1e-10),
    ]


def suite_pairing(cfg: QuadratureConfig) -> List[dict]:
    gaps = []
    for phi in mixed_suite():
        a0 = phi.expansion.coefficient(0)
        gaps.append(abs(pair(delta_star(), phi, cfg).value - Fraction(a0.plus + a0.minus, 2)))
    out = [_worst("pairing.delta-exact-rational", gaps, 0)]

    out.append(_worst("pairing.delta-ordinary-point-value",
                      (abs(float(pair(delta_star(), phi, cfg).value) - phi.evaluate(phi.point))
                       for phi in ordinary_suite()), 1e-12))

    out.append(_worst("pairing.step-derivative-order-zero",
                      (abs(float(pair(Derivative(pf_heaviside()), phi, cfg).value)
                           - float(phi.expansion.coefficient(0).plus))
                       for phi in order_span_suite()), 1e-8))

    phis = [plateau_bump(2.0), from_polynomial([1, 2, 1], 2.0),
            thick_monomial(-1, (1, 2), 2.0), thick_monomial(0, (3, 1), 2.0)]
    powers = [Fraction(-5, 2), -2, -1, Fraction(-1, 2), 0, Fraction(3, 2)]
    gaps = []
    for phi in phis:
        # one oracle call for the six powers, so each sample of phi is taken once
        fits = fp_pair_oracle([pf_power(lam) for lam in powers], phi, cfg)
        gaps += [abs(float(pair(pf_power(lam), phi, cfg).value) - fit.finite_part)
                 for lam, fit in zip(powers, fits)]
    out.append(_worst(f"pairing.oracle-agreement-{len(gaps)}-cases", gaps, 1e-5))

    gaps = []
    for fa in (-0.5, -1.5, -2.5):
        samples = [(0.5 ** k, (1.0 - (0.5 ** k) ** (fa + 1)) / (fa + 1))
                   for k in range(1, 21)]
        gaps.append(abs(fp_limit(samples).finite_part - 1.0 / (fa + 1)))
    log_samples = [(0.5 ** k, math.log(2.0) - math.log(0.5 ** k)) for k in range(1, 21)]
    gaps.append(abs(fp_limit(log_samples).finite_part - math.log(2.0)))
    out.append(_worst("pairing.finite-part-power-ladder", gaps, 1e-6))
    return out


def suite_paskusz(cfg: QuadratureConfig) -> List[dict]:
    step_times_pf = Derivative(MultiplierProduct(heaviside_multiplier(), pf_heaviside()))
    lhs = simplify(step_times_pf)
    rhs = simplify(Derivative(pf_heaviside()))
    same = lhs == rhs == ThickDelta(g_lambda(1), 0)
    out = [_outcome("paskusz.normal-forms-identical", 0 if same else 1, 0, 0)]

    # the normal form against <d*(H·Pf(H)), phi> = -<Pf(H), H·phi'>, by quadrature
    out.append(_worst("paskusz.pairings-agree",
                      (abs(float(pair(lhs, phi, cfg).value) + float(pair(
                          pf_heaviside(), multiply_by(heaviside_multiplier(), derivative(phi)),
                          cfg).value))
                       for phi in wide_suite()), 1e-10))

    out.append(_worst("paskusz.projected-is-point-evaluation",
                      (abs(float(pair(project(lhs), phi, cfg).value) - phi.evaluate(phi.point))
                       for phi in ordinary_suite()), 1e-10))

    # multiplying the one-sided delta by the step again must not halve it
    g1d = ThickDelta(g_lambda(1), 0)
    gaps = []
    for phi in mixed_suite():
        once = pair(g1d, phi, cfg).value
        again = pair(MultiplierProduct(heaviside_multiplier(), g1d), phi, cfg).value
        gaps += [abs(once - again), abs(once - phi.expansion.coefficient(0).plus)]
    out.append(_worst("paskusz.step-idempotent-no-halving", gaps, 1e-10))
    return out


def suite_projection(cfg: QuadratureConfig) -> List[dict]:
    return [
        _worst("projection.derivative-commutes",
               (abs(float(pair(project(Derivative(f)), phi, cfg).value)
                    + float(pair(project(f), derivative(phi), cfg).value))
                for f in (delta_star(), pf_heaviside(), pf_power(-2))
                for phi in ordinary_suite()), 1e-8),
        _worst("projection.delta-projects-to-delta",
               (abs(float(pair(project(delta_star()), phi, cfg).value) - phi.evaluate(phi.point))
                for phi in ordinary_suite()), 1e-12),
    ]


def suite_a_independence(cfg: QuadratureConfig) -> List[dict]:
    spreads = []
    for lam in (Fraction(-5, 2), -2, -1, Fraction(3, 2)):
        for phi in wide_suite():
            values = [float(pair(pf_power(lam), phi, QuadratureConfig(cfg.abs_tol, A)).value)
                      for A in (0.3, 0.5, 1.0)]
            spreads.append(max(values) - min(values))
    return [_worst("a-independence.split-radius-invariance", spreads, 1e-7)]


SUITES: Dict[str, Callable[[QuadratureConfig], List[dict]]] = {
    "expansion": suite_expansion,
    "pairing": suite_pairing,
    "paskusz": suite_paskusz,
    "projection": suite_projection,
    "a-independence": suite_a_independence,
}


def run_suite(name: str, cfg: QuadratureConfig = DEFAULT_CONFIG) -> List[dict]:
    if name == "all":
        out = []
        for key in SUITES:
            out.extend(SUITES[key](cfg))
        return out
    if name not in SUITES:
        known = ", ".join(list(SUITES) + ["all"])
        raise ThickCalcError(f"unknown check suite {name!r}; expected one of: {known}")
    return SUITES[name](cfg)
