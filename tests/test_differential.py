"""Differential test: ``pair`` against the independent oracle ``fp_pair_oracle``.

A seeded draw of finite-part densities Pf(pair(a, b) * r^lambda), lambda from
-7/2 to 3/2 in halves, against test functions of every shape the pairing
treats: those it pairs in closed form (a cutoff times a power or polynomial,
its derivatives, a multiple by x^n, a same-radius product and its first
derivative) and those that go to quadrature (overlapping radii, three factors
of one radius, the second derivative of a same-radius product), and each
shape must in fact take its path.  Each test function takes one oracle call
for all of its densities (the sequence form).  Where the oracle gives a fit,
``pair`` must give a value, and that value must be within
max(1e-8, 1e-8 |value|) of the fit.
"""

import random
from fractions import Fraction

from thickcalc import pairing
from thickcalc.distributions import PfDensity
from thickcalc.pairing import fp_pair_oracle, pair
from thickcalc.sphere import SpherePair
from thickcalc.testfn import (
    derivative,
    from_polynomial,
    multiply_by,
    plateau_bump,
    power_multiplier,
    thick_monomial,
)

POWERS = [Fraction(k, 2) for k in range(-7, 4)]
SHAPES = ("plain", "derivative", "power", "square", "overlap", "cube", "second-derivative")
QUADRATURE_SHAPES = ("overlap", "cube", "second-derivative")
FUNCTIONS_PER_SHAPE = 6
DENSITIES_PER_FUNCTION = 8


def _small(rng):
    return rng.choice((-3, -2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-3, 2)))


def _factor(rng, rho):
    """A cutoff of radius rho alone, times a power, or times a polynomial."""
    kind = rng.randrange(3)
    if kind == 0:
        return plateau_bump(rho)
    if kind == 1:
        return thick_monomial(rng.randrange(-1, 3), (_small(rng), _small(rng)), rho)
    return from_polynomial([_small(rng) for _ in range(rng.randrange(1, 4))], rho)


def _testfn(rng, shape):
    rho = rng.choice((1, Fraction(3, 2), 2))
    phi = _factor(rng, rho)
    if shape == "derivative":
        for _ in range(rng.randrange(1, 4)):
            phi = derivative(phi)
    elif shape == "power":
        phi = multiply_by(power_multiplier(rng.randrange(1, 4)), phi)
    elif shape == "square":  # S^2, or S S' = (S^2)'/2
        phi = phi * _factor(rng, rho)
        if rng.random() < 0.5:
            phi = derivative(phi)
    elif shape == "overlap":  # like bump(1) * bump(3/2)
        phi = phi * _factor(rng, rho * Fraction(3, 2))
    elif shape == "cube":
        phi = phi * _factor(rng, rho) * _factor(rng, rho)
    elif shape == "second-derivative":  # S' S' and S S''
        phi = derivative(derivative(phi * _factor(rng, rho)))
    return phi


def test_pair_agrees_with_the_oracle_on_random_densities_and_shapes(monkeypatch):
    integrals, quadrature = [], pairing.integrate  # the integrals of pair, not of the oracle

    def integrate(*args):
        integrals.append(args[1:3])
        return quadrature(*args)

    rng = random.Random(20261021)
    for shape in SHAPES * FUNCTIONS_PER_SHAPE:
        phi = _testfn(rng, shape)
        densities = [PfDensity(SpherePair(_small(rng), _small(rng)), rng.choice(POWERS))
                     for _ in range(DENSITIES_PER_FUNCTION)]
        fits = fp_pair_oracle(densities, phi)
        integrals.clear()
        with monkeypatch.context() as m:
            m.setattr(pairing, "integrate", integrate)
            values = [float(pair(f, phi).value) for f in densities]  # a refusal fails
        assert bool(integrals) == (shape in QUADRATURE_SHAPES), (shape, phi)
        for f, value, fit in zip(densities, values, fits, strict=True):
            gap = abs(value - fit.finite_part)
            assert gap <= max(1e-8, 1e-8 * abs(value)), (shape, phi, f, value, fit)
