from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickcalc.sphere import (
    SpherePair,
    SphereDistribution,
    g_lambda,
    g_one,
    integrate_sphere,
    parity_pair,
)

rationals = st.fractions(max_denominator=50)


def pairs():
    return st.builds(SpherePair, rationals, rationals)


def test_unit_measure():
    assert integrate_sphere(SpherePair(1, 1)) == 2


def test_heaviside_side_values_integrate_to_one():
    assert integrate_sphere(SpherePair(1, 0)) == 1


def test_odd_pair_integrates_to_zero():
    assert integrate_sphere(SpherePair(3, -3)) == 0


def test_pairing_one_sided_weights():
    g1 = g_lambda(1)
    assert g1.weights == SpherePair(2, 0)
    assert g1.pair(SpherePair(5, 7)) == 10


def test_constant_weights_reduce_to_integration():
    g = SphereDistribution(SpherePair(1, 1))
    c = Fraction(9, 4)
    assert g.pair(SpherePair(c, c)) == 2 * c


def test_quarter_interpolation_weights():
    # direct substitution, cross-checked against the brute-force two-term sum
    g = g_lambda(Fraction(1, 4))
    assert g.weights == SpherePair(Fraction(1, 2), Fraction(3, 2))
    a = SpherePair(4, 8)
    brute = sum(g.weights.at(w) * a.at(w) for w in (1, -1))
    assert g.pair(a) == brute == 14


@settings(max_examples=60, deadline=None)
@given(pairs(), pairs(), rationals, rationals)
def test_integration_is_linear(f, h, alpha, beta):
    lhs = integrate_sphere(alpha * f + beta * h)
    assert lhs == alpha * integrate_sphere(f) + beta * integrate_sphere(h)


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_odd_part_integrates_to_zero(f):
    assert integrate_sphere(f.odd_part()) == 0
    assert f.even_part() + f.odd_part() == f


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_unit_weights_match_integration(f):
    assert g_one().pair(f) == integrate_sphere(f)


@settings(max_examples=60, deadline=None)
@given(pairs(), pairs(), rationals)
def test_pairing_bilinear(a, b, alpha):
    g = SphereDistribution(a)
    assert g.pair(b + alpha * b) == g.pair(b) + alpha * g.pair(b)
    g2 = SphereDistribution(a + alpha * a)
    assert g2.pair(b) == g.pair(b) + alpha * g.pair(b)


def test_parity_pair():
    assert parity_pair(3, 2) == SpherePair(3, 3)
    assert parity_pair(3, 5) == SpherePair(3, -3)


def test_exactness_is_preserved():
    p = SpherePair(Fraction(1, 3), Fraction(1, 7))
    q = p * p + p
    assert q.plus == Fraction(1, 9) + Fraction(1, 3)
    assert q.minus == Fraction(1, 49) + Fraction(1, 7)


def test_rejects_non_numeric():
    with pytest.raises(TypeError):
        SpherePair(object(), 1)


def test_side_accessor():
    p = SpherePair(4, -7)
    assert p.at(1) == 4
    assert p.at(-1) == -7
    with pytest.raises(ValueError):
        p.at(0)
