import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickcalc.errors import NonFiniteError
from thickcalc.sphere import (
    SpherePair,
    exact,
    g_lambda,
    number_text,
    parity_pair,
    ratio,
)

rationals = st.fractions(max_denominator=50)
#: Every kind of number an exact scalar is built from; integral values of each
#: kind are drawn often.
scalars = st.one_of(st.integers(), st.integers().map(Fraction), st.fractions(),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-2**53, 2**53).map(float))


def pairs():
    return st.builds(SpherePair, rationals, rationals)


def integrate_sphere(f: SpherePair):
    """The counting-measure integral of a pair over the two points; total mass is 2."""
    return f.plus + f.minus


def _even_part(p):
    h = ratio(p.plus + p.minus, 2)
    return SpherePair(h, h)


def _odd_part(p):
    h = ratio(p.plus - p.minus, 2)
    return SpherePair(h, -h)


def test_unit_measure():
    assert integrate_sphere(SpherePair(1, 1)) == 2


def test_heaviside_side_values_integrate_to_one():
    assert integrate_sphere(SpherePair(1, 0)) == 1


def test_odd_pair_integrates_to_zero():
    assert integrate_sphere(SpherePair(3, -3)) == 0


def test_pairing_one_sided_weights():
    g1 = g_lambda(1)
    assert g1 == SpherePair(2, 0)
    assert integrate_sphere(g1 * SpherePair(5, 7)) == 10


def test_constant_weights_reduce_to_integration():
    g = SpherePair(1, 1)
    c = Fraction(9, 4)
    assert integrate_sphere(g * SpherePair(c, c)) == 2 * c


def test_quarter_interpolation_weights():
    # direct substitution, cross-checked against the brute-force two-term sum
    g = g_lambda(Fraction(1, 4))
    assert g == SpherePair(Fraction(1, 2), Fraction(3, 2))
    a = SpherePair(4, 8)
    brute = sum(g.at(w) * a.at(w) for w in (1, -1))
    assert integrate_sphere(g * a) == brute == 14


@settings(max_examples=60, deadline=None)
@given(pairs(), pairs(), rationals, rationals)
def test_integration_is_linear(f, h, alpha, beta):
    lhs = integrate_sphere(alpha * f + beta * h)
    assert lhs == alpha * integrate_sphere(f) + beta * integrate_sphere(h)


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_odd_part_integrates_to_zero(f):
    assert integrate_sphere(_odd_part(f)) == 0
    assert _even_part(f) + _odd_part(f) == f


@settings(max_examples=60, deadline=None)
@given(pairs())
def test_unit_weights_match_integration(f):
    assert integrate_sphere(SpherePair(1, 1) * f) == integrate_sphere(f)


@settings(max_examples=60, deadline=None)
@given(pairs(), pairs(), rationals)
def test_pairing_bilinear(a, b, alpha):
    assert integrate_sphere(a * (b + alpha * b)) == \
        integrate_sphere(a * b) + alpha * integrate_sphere(a * b)
    assert integrate_sphere((a + alpha * a) * b) == \
        integrate_sphere(a * b) + alpha * integrate_sphere(a * b)


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


def _check_representation(p: SpherePair, old_plus: Fraction, old_minus: Fraction):
    # each field is an int exactly when it is integral, else a Fraction, and
    # equal, with an equal hash, to the value the old all-Fraction pair held
    for field, old in ((p.plus, old_plus), (p.minus, old_minus)):
        assert type(field) is (int if old.denominator == 1 else Fraction)
        assert field == old and hash(field) == hash(old)
    assert hash(p) == hash((old_plus, old_minus))


@settings(max_examples=300, deadline=None)
@given(scalars, scalars)
def test_fields_are_ints_exactly_when_integral(a, b):
    _check_representation(SpherePair(a, b), Fraction(a), Fraction(b))


@settings(max_examples=200, deadline=None)
@given(scalars, scalars, scalars, scalars, scalars)
def test_arithmetic_keeps_the_representation(a, b, c, d, k):
    p, q = SpherePair(a, b), SpherePair(c, d)
    fa, fb, fc, fd, fk = map(Fraction, (a, b, c, d, k))
    _check_representation(p + q, fa + fc, fb + fd)
    _check_representation(p - q, fa - fc, fb - fd)
    _check_representation(p * q, fa * fc, fb * fd)
    _check_representation(p * k, fa * fk, fb * fk)
    _check_representation(-p, -fa, -fb)
    _check_representation(_even_part(p), (fa + fb) / 2, (fa + fb) / 2)
    _check_representation(_odd_part(p), (fa - fb) / 2, (fb - fa) / 2)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_non_finite_number_is_not_exact(x):
    with pytest.raises(ValueError, match=f"^number must be finite, got {x!r}$"):
        SpherePair(x, 1)


def test_bool_and_text_become_exact_numbers():
    assert type(exact(True)) is int and exact(True) == 1
    assert exact("6/4") == Fraction(3, 2) and type(exact("4/2")) is int


def test_number_text_is_str_up_to_the_digit_limit():
    for x in (0, -7, 10 ** 640 - 1, 10 ** 640, -(10 ** 4300 - 1), Fraction(-1, 3),
              Fraction(10 ** 4300 - 1, 7), Fraction(6, 3), 2.5, -1e300):
        assert number_text(x) == str(x)
    for x in (10 ** 4300, -(10 ** 4300), 2 ** 14285, 2 ** 20000, Fraction(1, 10 ** 4300),
              Fraction(10 ** 4300, 3)):
        with pytest.raises(NonFiniteError, match="exact number longer than 4300 digits"):
            number_text(x)


@given(st.fractions())
def test_g_lambda_weights_sum_to_two(lam):
    g = g_lambda(lam)
    assert g == SpherePair(2 * lam, 2 * (1 - lam))
    assert integrate_sphere(g) == 2 and type(g.plus) is type(exact(2 * lam))
