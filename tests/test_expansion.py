from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expansion_reference import add, expansion_of, multiply
from thickcalc.expansion import (
    ZERO_EXPANSION,
    Expansion,
    differentiate,
    evaluate,
    from_taylor,
    parse_expansion,
    render,
)
from thickcalc.sphere import SpherePair

rationals = st.fractions(max_denominator=20)
small_polys = st.lists(rationals, min_size=1, max_size=6)


def poly_derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:] or [Fraction(0)]


def eval_poly(coeffs, x):
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


# -- construction and canonical form ----------------------------------------


def test_canonical_strips_leading_zeros():
    e = expansion_of(-1, [(0, 0), (2, 3)])
    assert e.start == 0
    assert e.coeffs == (SpherePair(2, 3),)


def test_zero_expansion_is_empty():
    e = expansion_of(2, [(0, 0)])
    assert e.is_zero()
    assert e == ZERO_EXPANSION


def test_exact_coefficient_beyond_top_is_zero():
    e = from_taylor([1, 2])
    assert e.coefficient(17) == SpherePair(0, 0)


def test_truncate_behaviour():
    e = from_taylor([1, 2, 3])
    assert e.truncate(5) is e
    cut = e.truncate(1)
    assert tuple(cut.terms()) == ((0, SpherePair(1, 1)), (1, SpherePair(2, -2)))
    assert e.truncate(-1).is_zero()


# -- add ---------------------------------------------------------------------


def test_add_heaviside_complement_gives_one():
    h = expansion_of(0, [(1, 0)])
    c = expansion_of(0, [(0, 1)])
    assert add(h, c) == expansion_of(0, [(1, 1)])


def test_add_zero_identity():
    e = from_taylor([1, 2, 3])
    assert add(e, ZERO_EXPANSION) == e
    assert add(ZERO_EXPANSION, e) == e


def test_add_cancellation_strips_to_zero():
    a = expansion_of(-1, [(2, 2)])
    b = expansion_of(-1, [(-2, -2)])
    assert add(a, b).is_zero()


def test_add_exact_pair_keeps_max_range():
    a = from_taylor([1])
    b = from_taylor([0, 0, 0, 2])
    s = add(a, b)
    assert s.top == 3


# -- multiply ----------------------------------------------------------------


def test_heaviside_pair_is_idempotent():
    h = expansion_of(0, [(1, 0)])
    assert multiply(h, h) == h


def test_x_squared_sign_rule():
    x = expansion_of(1, [(1, -1)])
    assert multiply(x, x) == expansion_of(2, [(1, 1)])


def test_x_times_heaviside():
    # brute-force pointwise: x*H(x) is x on the right half-line, 0 on the left
    x = expansion_of(1, [(1, -1)])
    h = expansion_of(0, [(1, 0)])
    prod = multiply(x, h)
    assert prod == expansion_of(1, [(1, 0)])
    for r in (0.5, 0.25, 0.125):
        assert evaluate(prod, 1, r) == pytest.approx(r)       # x > 0: x
        assert evaluate(prod, -1, r) == pytest.approx(0.0)    # x < 0: 0


def test_multiply_exact_zero_annihilates():
    e = from_taylor([1, 2])
    assert multiply(e, ZERO_EXPANSION).is_zero()
    assert multiply(ZERO_EXPANSION, e) == ZERO_EXPANSION


# -- differentiate -----------------------------------------------------------


def test_absolute_value_derivative_is_sign():
    absx = expansion_of(1, [(1, 1)])
    assert differentiate(absx) == expansion_of(0, [(1, -1)])


def test_constant_derivative_vanishes():
    c = expansion_of(0, [(7, 7)])
    assert differentiate(c).is_zero()


def test_square_derivative_matches_finite_differences():
    # centered differences of x^2 at +/- x0 give 2*x0 and -2*x0
    e = expansion_of(2, [(1, 1)])
    d = differentiate(e)
    assert d == expansion_of(1, [(2, -2)])
    h = 1e-6
    for x0 in (0.3, 0.7):
        fd_plus = ((x0 + h) ** 2 - (x0 - h) ** 2) / (2 * h)
        fd_minus = ((-x0 + h) ** 2 - (-x0 - h) ** 2) / (2 * h)
        assert evaluate(d, 1, x0) == pytest.approx(fd_plus, abs=1e-7)
        assert evaluate(d, -1, x0) == pytest.approx(fd_minus, abs=1e-7)


# -- from_taylor -------------------------------------------------------------


def test_from_taylor_linear_term():
    assert from_taylor([0, 1]) == Expansion(1, (SpherePair(1, -1),))


def test_from_taylor_constant():
    assert from_taylor([5]) == Expansion(0, (SpherePair(5, 5),))


def test_from_taylor_quadratic_matches_both_sides():
    e = from_taylor([1, 2, 3])
    assert tuple(e.terms()) == (
        (0, SpherePair(1, 1)),
        (1, SpherePair(2, -2)),
        (2, SpherePair(3, 3)),
    )
    for r in (0.5, 0.1):
        assert evaluate(e, 1, r) == pytest.approx(eval_poly([1, 2, 3], Fraction(r)))
        assert evaluate(e, -1, r) == pytest.approx(eval_poly([1, 2, 3], -Fraction(r)))


# -- evaluate ----------------------------------------------------------------


def test_evaluate_heaviside():
    h = expansion_of(0, [(1, 0)])
    assert evaluate(h, 1, 0.3) == 1.0
    assert evaluate(h, -1, 0.3) == 0.0


def test_evaluate_zero_expansion():
    assert evaluate(ZERO_EXPANSION, 1, 0.9) == 0.0


def test_evaluate_linear_negative_side():
    e = expansion_of(1, [(1, -1)])
    assert evaluate(e, -1, 0.25) == pytest.approx(-0.25)


def test_evaluate_requires_positive_radius():
    with pytest.raises(ValueError):
        evaluate(ZERO_EXPANSION, 1, 0.0)


# -- invariants --------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(small_polys)
def test_differentiate_commutes_with_taylor(coeffs):
    lhs = differentiate(from_taylor(coeffs))
    rhs = from_taylor(poly_derivative(coeffs))
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_leibniz_rule_exact(p, q):
    e1 = from_taylor(p)
    e2 = from_taylor(q)
    lhs = differentiate(multiply(e1, e2))
    rhs = add(multiply(differentiate(e1), e2), multiply(e1, differentiate(e2)))
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(small_polys, st.integers(min_value=-3, max_value=3))
def test_exact_evaluation_matches_function(coeffs, shift):
    # exact expansions evaluate to the represented function at x = w*r
    e = from_taylor(coeffs)
    base = expansion_of(shift, [(1, 1)])  # r^shift
    e = multiply(e, base)
    for w in (1, -1):
        for r in (0.7, 0.31, 0.11):
            x = w * Fraction(r)
            expected = float(eval_poly(coeffs, x) * Fraction(r) ** shift)
            got = evaluate(e, w, r)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(small_polys)
def test_parity_of_differentiation(coeffs):
    # Taylor import puts even pairs at even orders, odd pairs at odd orders,
    # and differentiation keeps the pattern aligned one order down
    e = from_taylor(coeffs)
    d = differentiate(e)
    for j, c in e.terms():
        expect_even = j % 2 == 0
        assert c.is_even() == expect_even or c.is_zero()
    for j, c in d.terms():
        expect_even = j % 2 == 0
        assert c.is_even() == expect_even or c.is_zero()


@settings(max_examples=60, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=5),
       st.integers(min_value=-2, max_value=3))
def test_even_functions_differentiate_to_odd(coeffs, start):
    # an even function has even pairs at every order; its derivative is odd
    even = expansion_of(start, [(c, c) for c in coeffs])
    for _, c in differentiate(even).terms():
        assert c.is_odd()
    odd = expansion_of(start, [(c, -c) for c in coeffs])
    for _, c in differentiate(odd).terms():
        assert c.is_even()


# -- rendering ---------------------------------------------------------------


def test_render_cubic():
    e = from_taylor([0, 0, 0, 1])
    assert render(e) == "(1|-1)·r^3"


def test_render_through_an_order_keeps_the_zero_pairs_inside_the_run():
    e = from_taylor([1, 0, 3])
    assert render(e.truncate(1)) == "(1|1)·r^0"
    assert render(e.truncate(5)) == render(e) == "(1|1)·r^0 + (0|0)·r^1 + (3|3)·r^2"
    assert render(e.truncate(-1)) == "0"


def test_render_parse_round_trip():
    cases = [
        from_taylor([1, 2, 3]),
        expansion_of(-2, [(1, 1), (0, 0), (Fraction(-1, 2), Fraction(5, 3))]),
        expansion_of(0, [(1, 0)]),
        ZERO_EXPANSION,
    ]
    for e in cases:
        back = parse_expansion(render(e))
        assert tuple(back.terms()) == tuple(e.terms())
        assert render(back) == render(e)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_expansion("(1|2)r^3")


def test_zero_expansion_has_no_top_order():
    assert ZERO_EXPANSION.top is None
