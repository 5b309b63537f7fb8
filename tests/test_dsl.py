import ast
import contextlib
import importlib.util
import io
import json
import math
import random
import re
import signal
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickcalc.distributions import (
    DISTRIBUTION_TYPES,
    Derivative,
    Dilate,
    LinearCombination,
    MultiplierProduct,
    PfDensity,
    ThickDelta,
    Translate,
    delta_star,
    derivative_rule,
    g_lambda_delta,
    multiplier_rule,
    pf_heaviside,
    pf_power,
    simplify,
)
from thickcalc import cli, dsl
from thickcalc.dsl import (
    MAX_NESTING,
    Parser,
    parse_program,
    parse_query,
    print_distribution,
    run,
    tokenize,
)
from thickcalc.errors import DslError, ThickCalcError
from thickcalc.pairing import pair
from thickcalc.sphere import SpherePair
from thickcalc.testfn import (
    Multiplier,
    ThickTestFunction,
    derivative,
    from_polynomial,
    heaviside_multiplier,
    plateau_bump,
    power_multiplier,
    thick_monomial,
)


def parse_value(text: str, bindings=None):
    parser = Parser(bindings)
    parser.start(text)
    value = parser.parse_value()
    parser.expect_end()
    return value


# -- distribution expressions ------------------------------------------------------


def test_parse_step_derivative():
    assert parse_value("d*(Pf(H(x)))") == Derivative(pf_heaviside())


def test_parse_plain_delta():
    assert parse_value("dstar") == delta_star()


def test_parse_multiplier_product():
    got = parse_value("H(x) * Pf(H(x))")
    assert got == MultiplierProduct(heaviside_multiplier(), pf_heaviside())


def test_parse_abs_power_rational_stays_exact():
    got = parse_value("Pf(abs(x)^-3/2)")
    assert got == pf_power(Fraction(-3, 2))
    assert not got.integral_power


def test_parse_abs_power_integer():
    got = parse_value("Pf(abs(x)^-2)")
    assert got.integral_power


def test_parse_abs_power_decimal_is_float():
    got = parse_value("Pf(abs(x)^-2.0)")
    assert not got.integral_power


def test_parse_density_pair_form():
    got = parse_value("Pf(pair(1,-1) * r^-1/2)")
    assert got == PfDensity(SpherePair(1, -1), Fraction(-1, 2))


def test_parse_glambda_with_and_without_degree():
    assert parse_value("glambda(1)") == g_lambda_delta(1)
    assert parse_value("glambda(1)·delta[2]") == g_lambda_delta(1, 2)
    assert parse_value("glambda(1/4) * delta[0]") == g_lambda_delta(Fraction(1, 4))


def test_parse_general_delta():
    got = parse_value("delta[1](pair(2,-3))")
    assert got == ThickDelta(SpherePair(2, -3), 1)


def test_parse_translate_dilate():
    assert parse_value("translate(dstar, 3/2)") == Translate(delta_star(), Fraction(3, 2))
    assert parse_value("dilate(Pf(H(x)), -1)") == Dilate(pf_heaviside(), -1)


def test_parse_linear_combination_and_precedence():
    got = parse_value("2 * dstar - H(x) * Pf(H(x))")
    assert got == LinearCombination((
        (Fraction(2), delta_star()),
        (Fraction(-1), MultiplierProduct(heaviside_multiplier(), pf_heaviside())),
    ))


def test_parse_unary_minus_distribution():
    got = parse_value("-dstar")
    assert got == LinearCombination(((Fraction(-1), delta_star()),))


def test_parse_parenthesized_group():
    got = parse_value("H(x) * (dstar + glambda(1))")
    assert isinstance(got, MultiplierProduct)
    assert isinstance(got.inner, LinearCombination)


# -- test function expressions -------------------------------------------------------


def test_parse_bump_and_mono():
    assert parse_value("bump(2)") == plateau_bump(2.0)
    assert parse_value("mono(1, pair(1,-1), 2)") == thick_monomial(1, (1, -1), 2.0)


def test_parse_poly():
    assert parse_value("poly([1, -2, 1/3], 2)") == from_polynomial(
        [1, -2, Fraction(1, 3)], 2.0)


def test_parse_testfn_derivative_and_product():
    got = parse_value("D(bump(2)) * mono(0, pair(1,0), 2)")
    lhs = derivative(plateau_bump(2.0))
    assert got == lhs * thick_monomial(0, (1, 0), 2.0)


def test_parse_multiplier_on_testfn():
    got = parse_value("H(x) * bump(1)")
    assert isinstance(got, ThickTestFunction)
    assert got.expansion.coefficient(0) == SpherePair(1, 0)


def test_parse_power_multiplier():
    assert parse_value("x^3") == power_multiplier(3)
    got = parse_value("x^2 * dstar")
    assert isinstance(got, MultiplierProduct)


def test_scaled_multipliers():
    got = parse_value("3 * x^2 * dstar")
    assert isinstance(got, MultiplierProduct)
    assert got.multiplier == Multiplier(2, SpherePair(3, 3))
    zero = parse_value("2 * D(H(x))")
    assert zero.is_zero()


def test_parse_testfn_sum_scale():
    got = parse_value("3 * bump(2) - poly([0,1], 2)")
    manual = plateau_bump(2.0).scale(3) + from_polynomial([0, 1], 2.0).scale(-1)
    assert got == manual


# -- errors -----------------------------------------------------------------------------


def test_unbound_name_reports_position():
    with pytest.raises(DslError) as err:
        parse_value("dstar + mystery")
    assert "mystery" in str(err.value)
    assert err.value.position == 8


def test_type_mismatch_rejected():
    with pytest.raises(DslError):
        parse_value("dstar * dstar")
    with pytest.raises(DslError):
        parse_value("bump(1) + dstar")


def test_syntax_error_position():
    with pytest.raises(DslError) as err:
        parse_value("Pf(abs(x)^)")
    assert err.value.position is not None


def test_bad_character():
    with pytest.raises(DslError):
        tokenize("dstar @ bump(1)")


def test_arity_error():
    with pytest.raises(DslError):
        parse_value("mono(1, pair(1,2))")


def test_mono_requires_pair_literal():
    with pytest.raises(DslError) as err:
        parse_value("mono(1, 5, 2)")
    assert "pair" in str(err.value)


#: A malformed statement, the message it is refused with and the position it is
#: refused at: one or more for each way the parser refuses a statement.
PARSE_ERRORS = [
    ("eval dstar @ bump(1)", "unexpected character '@'", 11),
    ("eval dstar, bump(1", "expected ')', got 'end of input'", 18),
    ("eval Pf(abs(x)^", "expected 'int', got 'end of input'", 15),
    ("eval dstar,", "unexpected end of expression", 11),
    ("let h = 2 - ", "unexpected end of expression", 11),
    ("eval dstar bump(1)", "expected ',', got 'bump'", 11),
    ("let h dstar", "expected '=', got 'dstar'", 6),
    ("let 2 = dstar", "expected 'name', got '2'", 4),
    ("eval Pf(pair(1,1) * s^2), bump(1)", "expected 'r', got 's'", 20),
    ("eval H(y) * dstar, bump(1)", "expected 'x', got 'y'", 7),
    ("eval delta(pair(1,1)), bump(1)", "expected '[', got '('", 10),
    ("expand poly([1, 2), 1", "expected ',', got ')'", 17),
    ("eval Pf(abs(x)^1/0), bump(1)", "zero denominator", 15),
    ("eval dstar, bump(1) + )", "unexpected token ')'", 22),
    ("eval dstar + mystery, bump(1)", "unbound name 'mystery'", 13),
    ("eval pair(1,2), bump(1)", "unbound name 'pair'", 5),
    ("eval Pf(x^2), bump(1)", "Pf( ) takes abs(x)^a, H(x) or pair(p,q) * r^a", 8),
    ("eval delta[0](1), bump(1)", "expected pair(a, b)", 14),
    ("eval dstar, mono(1, 5, 2)", "expected pair(a, b)", 20),
    ("eval translate(bump(1), 1), bump(1)",
     "expected a distribution argument, got a test function", 15),
    ("eval dstar, D(dstar)", "expected a function argument, got a distribution", 14),
    ("eval dstar + bump(1), bump(1)",
     "cannot combine a distribution and a test function with '+'", 11),
    ("eval dstar * dstar, bump(1)", "cannot multiply a distribution by a distribution", 11),
    ("evaluate dstar, bump(1)", "expected a statement keyword, got 'evaluate'", 0),
    ("2 + dstar", "expected a statement keyword, got '2'", 0),
    ("check 3", "check takes a suite name", 6),
    ("check all(", "check takes a suite name", 9),
    ("derive bump(1)", "derive takes a distribution", 0),
    ("expand dstar, 2", "expand takes a test function", 0),
    ("eval bump(1), bump(1)", "eval takes a distribution first", 0),
    ("eval dstar, dstar", "eval takes a test function second", 0),
    ("project dstar, H(x)", "project takes a test function second", 0),
    ("derive dstar dstar", "unexpected trailing input 'dstar'", 13),
    ("eval dstar, bump(0)", "support radius must be positive and finite", 12),
    ("eval dilate(dstar, 0), bump(1)", "dilation factor must be nonzero", 5),
    ("eval " + "d*(" * 101 + "dstar" + ")" * 101 + ", bump(1)",
     "expression nested deeper than 100 levels", 308),
    ("eval dstar, " + "-" * 101 + "bump(1)", "expression nested deeper than 100 levels", 113),
    ("eval dilate(dstar, 1e400), bump(1)", "number must be finite, got inf", 5),
    ("eval translate(dstar, 1e400), bump(1)", "number must be finite, got inf", 5),
    ("eval glambda(1e400)·delta[0], bump(1)", "number must be finite, got inf", 5),
    ("eval delta[0](pair(1e400, 1)), bump(1)", "number must be finite, got inf", 14),
    ("eval dstar + 2, bump(1)", "cannot combine a distribution and a number with '+'", 11),
    ("eval dstar, mono(1.5, pair(1,1), 1)", "expected 'int', got '1.5'", 17),
    ("expand bump(1), +2", "expected 'int', got '+'", 16),
    ("eval delta[3/2](pair(1,1)), bump(1)", "expected ']', got '/'", 12),
    # an integer literal has at most 4,300 digits: a numerator, a denominator
    # (after a numerator of exactly 4,300, which parses) and an int argument
    ("eval Pf(abs(x)^" + "1" * 4301 + "), bump(1)", "integer literal longer than 4300 digits", 15),
    ("eval Pf(abs(x)^" + "1" * 4300 + "/" + "1" * 4301 + "), bump(1)",
     "integer literal longer than 4300 digits", 4316),
    ("expand bump(1), " + "1" * 4301, "integer literal longer than 4300 digits", 16),
    ("eval dstar, mono(" + "1" * 4301 + ", pair(1,1), 1)",
     "integer literal longer than 4300 digits", 17),
]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS,
                         ids=[text[:40] for text, _, _ in PARSE_ERRORS])
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(DslError) as err:
        parse_program(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int() digit limit")
@pytest.mark.parametrize("limit", [640, 0])
def test_integer_literal_limit_ignores_the_interpreter_limit(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        queries = [parse_query(f"expand bump(1), {'9' * n}").queries[0] for n in (640, 641, 4300)]
        power = parse_value(f"Pf(abs(x)^-{'9' * 4300}/{'9' * 4300})").power
        with pytest.raises(DslError, match="integer literal longer than 4300 digits"):
            parse_query(f"expand bump(1), {'9' * 4301}")
    finally:
        sys.set_int_max_str_digits(saved)
    assert [q.max_order for q in queries] == [10 ** n - 1 for n in (640, 641, 4300)]
    assert power == -1


def test_a_number_added_to_a_number_stays_exact():
    record, = run(parse_query("eval (1/2 + 1/2) * dstar, bump(1)")).records
    assert record["value"] == 1.0 and record["value_exact"] == "1"


def test_printer_refuses_a_non_node():
    with pytest.raises(DslError, match="cannot print ThickTestFunction"):
        print_distribution(plateau_bump(1))


# -- round trips ---------------------------------------------------------------------


GOLDEN = [
    delta_star(),
    g_lambda_delta(1),
    g_lambda_delta(Fraction(1, 4), 2),
    ThickDelta(SpherePair(2, -3), 1),
    pf_heaviside(),
    pf_power(Fraction(-5, 2)),
    pf_power(-2),
    PfDensity(SpherePair(1, -1), Fraction(1, 2)),
    Derivative(pf_heaviside()),
    Derivative(Derivative(pf_power(-1))),
    MultiplierProduct(heaviside_multiplier(), pf_heaviside()),
    MultiplierProduct(power_multiplier(2), delta_star()),
    LinearCombination(((Fraction(2), delta_star()), (Fraction(-1, 3), pf_heaviside()))),
    Translate(delta_star(), Fraction(3, 2)),
    Dilate(pf_power(1), -2),
    Translate(MultiplierProduct(heaviside_multiplier(), pf_heaviside()), 1),
    MultiplierProduct(Multiplier(2, SpherePair(2, 1)), delta_star()),
    MultiplierProduct(Multiplier(0, (0, 0)), delta_star()),
]
GOLDEN += [pytest.param(LinearCombination(()), id="0 * dstar")]
# `derive <m> * dstar` for each multiplier form: the product and its
# derivative (for D(H(x)) the zero combination)
_MULTIPLIER_FORMS = ("H(x)", "x^1", "x^-1", "mult(pair(2,1), 2)", "(1/2) * x^3",
                     "2 * (3 * x^2)", "D(x^3)", "D(H(x))", "H(x) * x^2", "x^-1 * x^1")
GOLDEN += [pytest.param(parse_value(f"{m} * dstar"), id=f"{m} * dstar")
           for m in _MULTIPLIER_FORMS]
GOLDEN += [pytest.param(simplify(Derivative(parse_value(f"{m} * dstar"))),
                        id=f"derive {m} * dstar") for m in _MULTIPLIER_FORMS]


@pytest.mark.parametrize("tree", GOLDEN, ids=lambda t: type(t).__name__)
def test_print_parse_round_trip(tree):
    text = print_distribution(tree)
    assert parse_value(text) == tree
    assert print_distribution(parse_value(text)) == text


def test_zero_multiplier_prints_as_zero_times_step():
    zero = parse_value("D(H(x)) * dstar")
    assert print_distribution(zero) == "0 * H(x) * dstar"
    assert parse_value("0 * x^2 * dstar") == zero


# Distribution text drawn from the grammar in the module docstring.  Terms at
# different thick points (a translated term in a sum or product) do not parse;
# every other drawn text must print to a text that parses back to the same tree.

def _signed(text):
    return st.tuples(st.sampled_from(["", "-"]), text).map("".join)


_DIGITS = st.integers(0, 12).map(str)
_NONZERO = st.one_of(
    st.integers(1, 12).map(str),
    st.builds("{}/{}".format, st.integers(1, 12), st.integers(2, 9)),
    st.builds("{}.{}{}".format, st.integers(0, 99), st.integers(1, 999),
              st.sampled_from(["", "e-7", "e+3", "e12"])),
    st.builds("{}e-{}".format, st.integers(1, 9), st.integers(1, 9)),
)
_NUMBERS = _signed(st.one_of(st.sampled_from(["0", "0.0"]), _NONZERO))
_MULTIPLIERS = st.recursive(
    st.one_of(st.just("H(x)"), _signed(_DIGITS).map("x^{}".format),
              st.builds("mult(pair({}, {}), {})".format, _NUMBERS, _NUMBERS, _signed(_DIGITS))),
    lambda m: st.one_of(m.map("D({})".format), st.builds("{} * ({})".format, _NUMBERS, m),
                        st.builds("({}) * ({})".format, m, m)),
    max_leaves=3,
)
_DENSITIES_AND_DELTAS = st.one_of(
    st.just("dstar"),
    _NUMBERS.map("glambda({})".format),
    st.builds("glambda({}){}delta[{}]".format, _NUMBERS, st.sampled_from(["·", " * "]),
              _signed(_DIGITS)),
    st.builds("delta[{}](pair({}, {}))".format, _signed(_DIGITS), _NUMBERS, _NUMBERS),
    _NUMBERS.map("Pf(abs(x)^{})".format),
    st.just("Pf(H(x))"),
    st.builds("Pf(pair({}, {}) * r^{})".format, _NUMBERS, _NUMBERS, _NUMBERS),
)
_DISTRIBUTIONS = st.recursive(
    _DENSITIES_AND_DELTAS,
    lambda d: st.one_of(
        d.map("d*({})".format),
        st.builds("({}) * ({})".format, _MULTIPLIERS, d),
        st.builds("({}) {} ({})".format, d, st.sampled_from("+-"), d),
        st.builds("{} * ({})".format, _NUMBERS, d),
        d.map("-({})".format),
        st.builds("translate({}, {})".format, d, _NUMBERS),
        st.builds("dilate({}, {})".format, d, _signed(_NONZERO)),
    ),
    max_leaves=8,
)


@pytest.mark.filterwarnings("ignore:side weight")
@settings(max_examples=400, deadline=None)
@given(_DISTRIBUTIONS)
def test_printed_distribution_parses_back_to_the_same_tree(text):
    try:
        tree = parse_value(text)
    except DslError as err:
        assert "different thick points" in str(err)
        return
    printed = print_distribution(tree)
    assert parse_value(printed) == tree
    assert print_distribution(parse_value(printed)) == printed


def test_derive_normal_form_example():
    normal = simplify(Derivative(MultiplierProduct(heaviside_multiplier(),
                                                   pf_heaviside())))
    assert print_distribution(normal) == "glambda(1)·delta[0]"


def test_print_zero_combination():
    assert print_distribution(LinearCombination(())) == "0 * dstar"
    assert parse_value("0 * dstar") == LinearCombination(())


# -- programs -----------------------------------------------------------------------


def test_program_with_bindings():
    program = parse_program("""
        # cut-off step against the plain delta
        let h = H(x)
        let phi = h * bump(2)
        eval dstar, phi
        derive h * Pf(H(x))
    """)
    assert set(program.bindings) == {"h", "phi"}
    assert isinstance(program.bindings["h"], Multiplier)
    assert len(program.queries) == 2
    assert program.queries[0].command == "eval"
    assert program.queries[1].command == "derive"


def test_binding_must_precede_use():
    with pytest.raises(DslError):
        parse_program("eval dstar, phi\nlet phi = bump(1)")


@pytest.mark.parametrize("name", ["bump", "mono", "poly", "mult", "glambda", "translate",
                                  "dilate", "D", "Pf", "dstar", "delta"])
def test_let_refuses_a_built_in_name(name):
    # each of these is read as the built-in wherever it stands, never as a binding
    with pytest.raises(DslError) as err:
        parse_program(f"eval dstar, bump(1)\nlet {name} = bump(1)\neval dstar, {name}")
    assert str(err.value) == f"cannot bind {name!r}: it is a built-in name (at position 4)"
    assert err.value.position == 4


def test_let_binds_the_names_that_are_built_ins_only_in_context():
    for name in ("H", "x", "d", "pair"):
        program = parse_program(f"let {name} = bump(1)\neval dstar, {name}")
        assert program.queries[0].testfn == plateau_bump(1)
    program = parse_program("let x = 2\nexpand x * bump(1), 0")
    assert program.queries[0].testfn == plateau_bump(1).scale(2)


def test_parse_query_shapes():
    q = parse_query("expand poly([0,0,0,1],1), 4").queries[0]
    assert q.command == "expand"
    assert q.max_order == 4
    q = parse_query("check a-independence").queries[0]
    assert q.suite == "a-independence"
    q = parse_query("check").queries[0]
    assert q.suite == "all"
    q = parse_query("project dstar, bump(1)").queries[0]
    assert q.command == "project"


def test_statement_keyword_required():
    with pytest.raises(DslError):
        parse_program("dstar, bump(1)")


def test_trailing_tokens_rejected():
    with pytest.raises(DslError):
        parse_query("derive dstar dstar")


# -- run ----------------------------------------------------------------------------


def test_run_produces_pairing_records():
    from thickcalc.dsl import run
    program = parse_program(
        "let phi = mono(0, pair(3,1), 2)\n"
        "eval dstar, phi\n"
        "derive H(x) * Pf(H(x))\n"
        "expand poly([0,0,0,1],1), 4\n"
    )
    report = run(program)
    assert report.exit_status == 0
    first, second, third = report.records
    assert first["value"] == 2.0 and first["value_exact"] == "2"
    assert second["result"] == "glambda(1)·delta[0]"
    assert third["result"] == "(1|-1)·r^3"


def test_run_keeps_going_after_an_error():
    from thickcalc.dsl import run
    program = parse_program(
        "eval translate(dstar, 1), bump(1)\n"   # thick-point mismatch
        "eval dstar, bump(1)\n"
    )
    report = run(program)
    assert report.exit_status == 3
    assert "error" in report.records[0]
    assert report.records[1]["value"] == 1.0


def test_run_flags_check_failure_status():
    from thickcalc.dsl import Report
    passed = {"query": "check", "passed": True}
    failed = {"query": "check", "passed": False}
    error = {"query": "eval", "error": "boom"}
    assert Report(records=[passed, failed]).exit_status == 1
    assert Report(records=[failed, error]).exit_status == 3
    assert Report(records=[passed]).exit_status == 0
    assert Report(records=[]).exit_status == 0


# -- nesting depth ---------------------------------------------------------------------

NESTINGS = {
    "parentheses": ("derive {}", "(", "dstar", ")"),
    "derivative": ("derive {}", "d*(", "dstar", ")"),
    "unary minus": ("derive {}", "-", "dstar", ""),
    "translate argument": ("derive {}", "translate(", "dstar", ", 0)"),
    "test-function derivative": ("expand {}, 1", "D(", "bump(1)", ")"),
}


@pytest.mark.parametrize("kind", NESTINGS)
def test_nesting_bound_is_a_parse_error(kind):
    template, opener, core, closer = NESTINGS[kind]
    deepest = template.format(opener * MAX_NESTING + core + closer * MAX_NESTING)
    assert len(parse_query(deepest).queries) == 1
    text = template.format(opener * (MAX_NESTING + 1) + core + closer * (MAX_NESTING + 1))
    with pytest.raises(DslError) as info:
        parse_query(text)
    assert info.value.position == text.index(core)


def test_hundred_nested_derivatives_derive_and_eval():
    from thickcalc.dsl import run
    dist = "d*(" * 100 + "dstar" + ")" * 100
    report = run(parse_program(f"derive {dist}\neval {dist}, bump(1)"))
    assert report.exit_status == 0
    # d*^k dstar is the degree-k delta with weights ((-1)^k k!, k!)
    assert report.records[0]["result"] == \
        f"delta[101](pair({-math.factorial(101)},{math.factorial(101)}))"
    assert report.records[1]["value_exact"] == "0"


# -- derivatives of the test function move onto the distribution ------------------------


def test_eval_keeps_a_whole_derivative_chain_undifferentiated():
    q = parse_query("eval Pf(abs(x)^-1/2), D(D(mono(2, pair(1,3), 2)))").queries[0]
    assert q.derivatives == 2
    assert q.testfn == thick_monomial(2, (1, 3), 2)
    for text in ("eval dstar, D(bump(1)) * bump(2)", "eval dstar, D(bump(1)) + bump(2)",
                 "eval dstar, bump(1) * D(bump(2))", "project dstar, D(bump(1))"):
        q = parse_query(text).queries[0]
        assert q.derivatives == 0, text


def test_eval_of_a_derivative_chain_pairs_the_transferred_distribution():
    from thickcalc.dsl import run
    from thickcalc.pairing import pair
    report = run(parse_program("eval Pf(abs(x)^-2), D(D(D(poly([1,2,-1,3], 2))))\n"
                               "eval d*(Pf(H(x))), D(bump(1))"))
    first, second = report.records
    assert first["expr"] == "Pf(abs(x)^-2)"
    direct = pair(pf_power(-2), derivative(derivative(derivative(
        from_polynomial([1, 2, -1, 3], 2)))))
    assert first["value"] == pytest.approx(float(direct.value), rel=1e-10)
    assert second["expr"] == "d*(Pf(H(x)))"
    assert second["value_exact"] == "0"


@pytest.mark.parametrize("argument", [
    "D(Pf(abs(x)^-1))",
    "D(D(bump(0)))",
    "D(x^2)",
    "D(bump(1)",
    "D(bump(1)))",
    "D(D(nosuch))",
    "D(" * (MAX_NESTING + 5) + "bump(1)" + ")" * (MAX_NESTING + 5),
    "D(" * 60 + "(" * 45 + "bump(1)" + ")" * 45 + ")" * 60,
])
def test_derivative_chain_errors_are_those_of_the_plain_parse(argument, monkeypatch):
    text = f"eval dstar, {argument}"
    with pytest.raises(DslError) as chain:
        parse_query(text)
    monkeypatch.setattr(dsl.Parser, "_derivative_chain", lambda parser: (parser.parse_value(), 0))
    with pytest.raises(DslError) as plain:
        parse_query(text)
    assert str(chain.value) == str(plain.value)
    assert chain.value.position == plain.value.position


def test_derive_of_a_density_prints_the_pf_term_and_the_delta():
    from thickcalc.dsl import run
    report = run(parse_program("derive Pf(abs(x)^-2)\nderive d*(Pf(abs(x)^-2))\n"
                               "derive d*(Pf(abs(x)^1.6))\nderive d*(d*(Pf(abs(x)^-2)))\n"
                               "derive dstar - dstar"))
    first, second, third, fourth, fifth = (rec["result"] for rec in report.records)
    assert first == "Pf(pair(-2,2) * r^-3) + delta[2](pair(2,-2))"
    # the delta takes the delta rule, and the two degree-3 deltas merge
    assert second == "Pf(pair(6,6) * r^-4) + delta[3](pair(-10,-10))"
    # a decimal power is differentiated as the decimal it prints as
    assert third == "Pf(pair(24/25,24/25) * r^-0.4)"
    assert fourth == "Pf(pair(-24,24) * r^-5) + delta[4](pair(52,-52))"
    # the two degree-1 deltas cancel and drop out
    assert fifth == "0 * dstar"
    assert simplify(Derivative(parse_value("dstar - dstar"))) == LinearCombination(())
    for text, source in ((first, pf_power(-2)), (second, Derivative(pf_power(-2))),
                         (third, Derivative(pf_power(1.6))),
                         (fourth, Derivative(Derivative(pf_power(-2))))):
        tree = parse_value(text)
        assert tree == simplify(Derivative(source))
        assert print_distribution(tree) == text


# -- tokenizer ---------------------------------------------------------------------------

#: The token pattern as a separate copy, for the one-match-at-a-time reference.
_REFERENCE_TOKEN = re.compile(r"""
    (?P<ws>\s+)
  | (?P<decimal>\d+(?:\.\d+(?:[eE][+-]?\d+)?|[eE][+-]?\d+))
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[()\[\],+\-*^=/·])
""", re.VERBOSE)


def _reference_tokenize(text):
    out, i = [], 0
    while i < len(text):
        m = _REFERENCE_TOKEN.match(text, i)
        if m is None:
            raise DslError(f"unexpected character {text[i]!r}", i)
        if m.lastgroup != "ws":
            kind = m.lastgroup if m.lastgroup in ("int", "decimal", "name") else m.group()
            out.append((kind, m.group(), i))
        i = m.end()
    return out


def _symbolic_pool():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [text for text, _ in module.symbolic_pool()]


def _kind(token):
    """The kind read off a token's text, as the parser reads it."""
    if token.isidentifier():
        return "name"
    if token[:1].isdecimal():
        return "int" if token.isdecimal() else "decimal"
    return token


def _read_tokens(text):
    """``(kind, text, position)`` of each token of ``text``, as the parser reads them."""
    parser = Parser()
    parser.start(text)
    assert parser.tokens[-1] == "" and parser.position(len(parser.tokens) - 1) == len(text)
    return [(_kind(t), t, parser.position(i)) for i, t in enumerate(parser.tokens[:-1])]


def test_tokenize_matches_the_reference_on_the_symbolic_pool():
    pool = _symbolic_pool()
    assert len(pool) > 1000
    for text in pool:
        assert tokenize(text) == [t for _, t, _ in _reference_tokenize(text)]
        assert _read_tokens(text) == _reference_tokenize(text)


@pytest.mark.parametrize("text", [
    "dstar @ bump(1)", "eval dstar, bump(1)\x00", "Pf(abs(x)^-1.)", "let x = 2 ; 3",
    "  \t d*(Pf(H(x)))  ", "λ", "1.5e", "bump(1) # comment", "",
    # \d is any Unicode decimal digit, '²' is a digit to str.isdigit but no \d,
    # and a no-break space is whitespace
    "x²", "let a = ٣", "١٢.٣", "a\xa0b", "1..2", "1.e5", "_a1", "\tbump(1)\t", "dstar \t ",
])
def test_tokenize_errors_match_the_reference(text):
    try:
        expected = _reference_tokenize(text)
    except DslError as exc:
        with pytest.raises(DslError) as got:
            tokenize(text)
        assert str(got.value) == str(exc) and got.value.position == exc.position
    else:
        assert _read_tokens(text) == expected


@pytest.mark.filterwarnings("ignore:side weight")
def test_a_position_is_found_only_for_an_error(monkeypatch):
    lookups = []
    position = dsl.Parser.position
    monkeypatch.setattr(dsl.Parser, "position",
                        lambda parser, i: lookups.append(i) or position(parser, i))
    for text in _symbolic_pool():
        run(parse_query(text))
    assert lookups == []
    for text, message, _ in PARSE_ERRORS:
        del lookups[:]
        with pytest.raises(DslError):
            parse_program(text)
        # the tokenizer finds a bad character's position itself
        assert len(lookups) == (0 if message.startswith("unexpected character") else 1), text


def test_a_statement_is_tokenized_once(monkeypatch):
    texts = []
    monkeypatch.setattr(dsl, "tokenize", lambda text: texts.append(text) or tokenize(text))
    parse_query("derive d*(dstar)")
    assert texts == ["derive d*(dstar)"]


# -- random whole statements ---------------------------------------------------------

_STATEMENT_NUMBERS = ("0", "1", "2", "-3", "1/2", "3/2", "-5/3", "2.5", "1e-3", "1e150",
                      "1e300", "-1e300", "1e-300")
_STATEMENT_RADII = ("1", "2", "1/2", "3/2", "2.5", "1e-3", "1e150", "1e300", "1e-300")


def _random_statement(rng: random.Random) -> str:
    """An eval, derive, project or expand statement over D, products, sums,
    H(x), x^n, mult(pair(a,b), j), dilate and numbers up to 1e300."""
    def number():
        return rng.choice(_STATEMENT_NUMBERS) if rng.random() < 0.7 else str(rng.randint(-30, 5))

    def radius():
        return rng.choice(_STATEMENT_RADII) if rng.random() < 0.9 else number()

    def pair():
        return f"pair({number()},{number()})"

    def fn(depth):
        leaves = (lambda: f"bump({radius()})",
                  lambda: f"mono({rng.randint(-3, 3)},{pair()},{radius()})",
                  lambda: f"poly([{number()},{number()}],{radius()})")
        inner = (lambda: f"D({fn(depth - 1)})",
                 lambda: f"{fn(depth - 1)} * {fn(depth - 1)}",
                 lambda: f"{fn(depth - 1)} {rng.choice('+-')} {fn(depth - 1)}",
                 lambda: f"{number()} * {fn(depth - 1)}",
                 lambda: f"H(x) * {fn(depth - 1)}",
                 lambda: f"x^{rng.randint(-1, 3)} * {fn(depth - 1)}",
                 lambda: f"mult({pair()},{rng.randint(-3, 3)}) * {fn(depth - 1)}")
        return rng.choice(leaves + inner if depth else leaves)()

    def dist(depth):
        leaves = (lambda: f"Pf(abs(x)^{number()})",
                  lambda: f"Pf({pair()} * r^{number()})",
                  lambda: rng.choice(("Pf(H(x))", "dstar")),
                  lambda: f"delta[{rng.randint(0, 3)}]({pair()})")
        inner = (lambda: f"d*({dist(depth - 1)})",
                 lambda: f"{dist(depth - 1)} {rng.choice('+-')} {dist(depth - 1)}",
                 lambda: f"{number()} * {dist(depth - 1)}",
                 lambda: f"H(x) * {dist(depth - 1)}",
                 lambda: f"x^{rng.randint(-1, 3)} * {dist(depth - 1)}",
                 lambda: f"mult({pair()},{rng.randint(-3, 3)}) * {dist(depth - 1)}",
                 lambda: f"dilate({dist(depth - 1)}, {number()})")
        return rng.choice(leaves + inner if depth else leaves)()

    command = rng.choice(("eval", "derive", "project", "expand"))
    if command == "derive":
        return f"derive {dist(3)}"
    if command == "expand":
        return f"expand {fn(3)}, {rng.randint(-1, 6)}"
    return f"{command} {dist(2)}, {fn(2)}"


class _OverBudget(BaseException):
    """Raised by the timer; no ``except Exception`` on the run path catches it."""


def _over_budget(signum, frame):
    raise _OverBudget


#: Wall-clock seconds one random statement may take; the slowest takes about 20 ms.
STATEMENT_BUDGET = 2.0


@pytest.mark.filterwarnings("ignore:side weight")
def test_random_statements_end_in_a_record_or_a_dsl_error():
    timed = hasattr(signal, "setitimer")
    if timed:
        previous = signal.signal(signal.SIGALRM, _over_budget)
    rng = random.Random(20261019)
    try:
        for _ in range(3000):
            text = _random_statement(rng)
            if timed:
                signal.setitimer(signal.ITIMER_REAL, STATEMENT_BUDGET)
            try:
                try:
                    program = parse_query(text)
                except DslError:
                    continue
                run(program)  # an "error" record is a typed end too
            except _OverBudget:
                pytest.fail(f"{text!r} took more than {STATEMENT_BUDGET:g} s")
            except Exception as exc:
                pytest.fail(f"{text!r} raised {type(exc).__name__}: {exc}")
    finally:
        if timed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


# -- a derive result pairs as d* of its input ------------------------------------------

#: derive statements with multipliers over densities, deltas, combinations and
#: dilates; the seeded generator's derive statements are checked beside them
DERIVE_TABLE = (
    "x^2 * Pf(abs(x)^-5/2)", "H(x) * Pf(abs(x)^-1)", "H(x) * Pf(H(x))", "x^1 * Pf(abs(x)^2)",
    "mult(pair(2,1), -2) * Pf(pair(1,-1) * r^-1/2)", "x^1 * Pf(abs(x)^-0.7)",
    "0 * H(x) * Pf(abs(x)^-3/2)", "x^3 * dstar", "H(x) * glambda(1/2)·delta[2]",
    "mult(pair(1,3), -1) * delta[1](pair(2,-1))",
    "x^2 * (Pf(abs(x)^-3/2) - 2 * dstar)", "H(x) * (Pf(H(x)) + delta[1](pair(1,2)))",
    "H(x) * dilate(Pf(abs(x)^-1/2), 2)", "x^1 * dilate(dstar, -3)",
    "d*(x^2 * dilate(Pf(H(x)), 1/2))", "mult(pair(1,3), -1) * d*(Pf(abs(x)^1))",
    "x^-1 * (Pf(abs(x)^-1) + dilate(delta[1](pair(1,2)), 2))",
    "d*(d*(x^2 * Pf(abs(x)^-1/2) - H(x) * dstar))",
)


def _derive_check_functions():
    """The test functions perfbench's worker pairs a derive result against
    (``DERIVE_CHECK_FNS`` in ``perfbench/worker.py``, read off its source)."""
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "worker.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "DERIVE_CHECK_FNS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/worker.py defines no DERIVE_CHECK_FNS")


def _pairs_alike(a, b) -> bool:
    """Exact values equal; otherwise within both error estimates plus 1e-12·|b|."""
    if isinstance(a.value, Fraction) and isinstance(b.value, Fraction):
        return a.value == b.value
    a, b, slack = float(a.value), float(b.value), a.quad_error + b.quad_error
    return abs(a - b) <= slack + 1e-12 * abs(b)


@pytest.mark.filterwarnings("ignore:side weight")
def test_a_derive_result_pairs_as_d_star_of_its_input():
    functions = [parse_query(f"expand {fn}, 0").queries[0].testfn
                 for fn in _derive_check_functions()]
    rng = random.Random(20261020)
    drawn = []
    while len(drawn) < 300:
        text = _random_statement(rng)
        if text.startswith("derive "):
            drawn.append(text)
    compared = 0
    for text, fixed in [(f"derive {expr}", True) for expr in DERIVE_TABLE] \
            + [(text, False) for text in drawn]:
        try:
            program = parse_query(text)
        except DslError:  # the generator's, e.g. a dilation by 0
            continue
        record = run(program).records[0]
        if "error" in record:
            assert not fixed, record
            continue
        printed = parse_query(f"derive {record['result']}").queries[0].dist
        for phi in functions:
            try:
                a, b = pair(printed, phi), pair(Derivative(program.queries[0].dist), phi)
            except ThickCalcError:  # a typed end: 1e300 powers, misclassified floats
                assert not fixed, text
                continue
            assert _pairs_alike(a, b), (text, record["result"], phi, a, b)
            compared += 1
    assert compared >= 4 * (len(DERIVE_TABLE) + 200)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no str() digit limit")
@pytest.mark.parametrize("limit", [640, 0])
def test_a_4300_digit_result_prints_whatever_the_interpreter_limit(limit):
    n = "9" * 2150  # its square has 4,300 digits
    square = str(int(n) ** 2)
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        records = [record for text in (
            f"derive {n} * {n} * dstar",
            f"eval 1/{n} * 1/{n} * dstar, bump(1)",
            f"expand mono(0, pair({n},1), 1) * mono(0, pair({n},1), 1), 0",
        ) for record in run(parse_query(text)).records]
    finally:
        sys.set_int_max_str_digits(saved)
    derive, value, expand = records
    assert len(square) == 4300
    assert derive["result"] == f"{square} * delta[1](pair(-1,1))"
    assert value["value_exact"] == f"1/{square}" and value["value"] == 0.0
    assert expand["result"] == f"({square}|1)·r^0"


@pytest.mark.parametrize("text", [
    f"derive {'9' * 3000} * {'9' * 3000} * dstar",
    f"eval 1/{'9' * 3000} * dstar, mono(0, pair(1/{'9' * 3000},1/{'9' * 3000}), 1)",
    f"expand mono(0, pair({'9' * 3000},1), 1) * mono(0, pair({'9' * 3000},1), 1), 0",
    f"eval translate(translate(dstar, {'9' * 4300}), {'9' * 4300}), bump(1)",
], ids=["derive", "value-exact", "expand", "point-mismatch-message"])
def test_a_number_past_the_digit_limit_is_a_typed_error(text):
    record, = run(parse_query(text)).records
    assert record["error"] == "exact number longer than 4300 digits"


# -- the parser's operand memo --------------------------------------------------------


def _outcome(text):
    """The records of ``text``, or the (message, position) of its DslError."""
    try:
        program = parse_query(text)
    except DslError as exc:
        return str(exc), exc.position
    return run(program).records


def _cold_outcome(text):
    """``_outcome`` of ``text`` parsed with an empty memo."""
    dsl._OPERANDS.clear()
    return _outcome(text)


def test_an_operand_read_again_is_the_object_built_the_first_time():
    first = parse_query("eval dstar, mono(1, pair(1,3), 2) * bump(3/2)").queries[0].testfn
    again = parse_query("project Pf(H(x)),  mono(1,pair(1,3),2)*bump(3/2)").queries[0].testfn
    expand = parse_query("expand mono(1, pair(1,3), 2) * bump(3/2), 2").queries[0].testfn
    assert again is first and expand is first
    # at another nesting depth (psi of a D chain) it is read afresh
    psi = parse_query("eval dstar, D(mono(1, pair(1,3), 2) * bump(3/2))").queries[0].testfn
    assert psi == first and psi is not first


@pytest.mark.parametrize("fn", ["bump(2)", "mono(1, pair(1,-1), 2) * bump(3)"])
def test_a_memo_hit_holds_the_value_not_the_derivative_chain(fn):
    texts = [f"eval dstar, D({fn})", f"project dstar, D({fn})", f"eval dstar, {fn}",
             f"eval dstar, D(D({fn}))", f"expand D({fn}), 1"]
    warm = [_outcome(text) for text in texts]
    assert warm == [_cold_outcome(text) for text in texts]
    assert all("value" in records[0] or "result" in records[0] for records in warm)
    eval_chain, project = (parse_query(text).queries[0] for text in texts[:2])
    assert (eval_chain.derivatives, project.derivatives) == (1, 0)
    assert project.testfn == derivative(eval_chain.testfn)


def test_an_operand_with_a_let_name_is_read_with_the_bindings_of_its_program():
    with pytest.raises(DslError, match="unbound name 'phi'"):
        parse_query("eval dstar, phi")
    program = parse_program("let phi = bump(1)\neval dstar, phi\neval dstar, phi * bump(3)\n"
                            "let phi = 2 * bump(1)\neval dstar, phi\neval dstar, phi * bump(3)")
    fns = [q.testfn for q in program.queries]
    assert fns == [plateau_bump(1), plateau_bump(1) * plateau_bump(3),
                   plateau_bump(1).scale(2), plateau_bump(1).scale(2) * plateau_bump(3)]
    other = parse_program("let phi = bump(2)\neval dstar, phi * bump(3)").queries[0].testfn
    assert other == plateau_bump(2) * plateau_bump(3)
    with pytest.raises(DslError, match="unbound name 'phi'"):
        parse_query("eval dstar, phi * bump(3)")
    # a distribution operand that reads a name, bound, re-bound and run again
    text = ("let f = dstar\neval f, bump(1)\nderive x^1 * f\n"
            "let f = glambda(1)·delta[1]\neval f, mono(1, pair(1,3), 2)\nderive x^1 * f")
    plain = ("eval dstar, bump(1)\nderive x^1 * dstar\n"
             "eval glambda(1)·delta[1], mono(1, pair(1,3), 2)\nderive x^1 * glambda(1)·delta[1]")
    program = parse_program(text)
    assert [q.dist for q in program.queries] == [q.dist for q in parse_program(plain).queries]
    assert program.queries[0].dist != program.queries[2].dist
    records = [{**rec, "source": None} for rec in run(program).records]
    assert records == [{**rec, "source": None} for rec in run(parse_program(plain)).records]
    assert run(parse_program(text)).records == run(program).records
    assert not any({"phi", "f"} & set(tokens) for tokens, _ in dsl._OPERANDS)


def test_a_let_value_read_again_is_the_object_the_memo_holds():
    dsl._OPERANDS.clear()
    dist, fn = "x^2 * delta[2](pair(1/2,3))", "mono(1, pair(1,3), 2) * bump(3/2)"
    held = parse_query(f"eval {dist}, bump(1)").queries[0].dist
    program = parse_program(f"let h = {dist}\nlet phi = {fn}\neval h, phi")
    assert program.bindings["h"] is held and program.queries[0].dist is held
    assert parse_query(f"expand {fn}, 1").queries[0].testfn is program.bindings["phi"]


def test_a_let_value_that_reads_a_name_is_rebuilt_after_the_name_is_bound_again():
    program = parse_program("let h = dstar\nlet g = 2 * h\neval g, bump(1)\n"
                            "let h = Pf(H(x))\nlet g = 2 * h\neval g, bump(1)")
    assert [q.dist for q in program.queries] == [LinearCombination(((2, delta_star()),)),
                                                  LinearCombination(((2, pf_heaviside()),))]
    assert not any("h" in tokens for tokens, _ in dsl._OPERANDS)


def test_an_operand_read_shallow_first_still_fails_past_the_nesting_bound():
    psi = "(" * MAX_NESTING + "bump(1)" + ")" * MAX_NESTING
    assert len(parse_query(f"eval dstar, {psi}").queries) == 1
    text = f"eval dstar, D({psi})"
    with pytest.raises(DslError) as warm:
        parse_query(text)
    assert "nested deeper" in str(warm.value)
    assert _cold_outcome(text) == (str(warm.value), warm.value.position)


@pytest.mark.parametrize("text, at", [
    ("eval dstar, bump(1) * bump(0)", "bump(0)"),
    # read up to its second bump, the operand is not kept for the tokens it spans
    ("eval dstar, bump(1) bump(2)", "bump(2)"),
    ("expand bump(1) bump(2), 1", "bump(2)"),
    # a let value, read through the memo too
    ("let h = bump(1) * bump(0)", "bump(0)"),
    ("let h = dilate(dstar, 0)", "dilate"),
    ("let h = dstar, bump(1)", ","),
])
def test_a_failing_operand_fails_alike_every_time(text, at):
    first, second = _outcome(text), _outcome(text)
    assert first == second and isinstance(first, tuple)
    assert first[1] == text.index(at)


def test_an_operand_that_warns_warns_each_time_it_is_read():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        program = parse_program("let h = glambda(3)·delta[0]\nderive glambda(3)·delta[0]\n"
                                "eval glambda(3)·delta[0], bump(1)")
        parse_query("derive glambda(3)·delta[0]")
        parse_query("let h = glambda(3)·delta[0]")
    assert [str(w.message)[:22] for w in caught] == ["side weight 3 outside "] * 5
    assert program.bindings["h"] == program.queries[0].dist == program.queries[1].dist
    assert not any("glambda" in tokens for tokens, _ in dsl._OPERANDS)


def test_a_derive_that_raises_raises_every_time():
    first, again = (_outcome("derive Pf(abs(x)^-1.0)") for _ in range(2))
    assert first == again and "behaves as the integer -1" in first[0]["error"]


def test_the_memo_never_holds_more_entries_than_its_cap():
    for k in range(dsl.OPERAND_MEMO_CAP + 10):
        parse_query(f"expand bump({k + 1}), 0")
        assert 0 < len(dsl._OPERANDS) <= dsl.OPERAND_MEMO_CAP


def _split_operands(text):
    """(distribution, test function) of an ``eval`` or ``project`` statement."""
    rest, depth = text.split(" ", 1)[1], 0
    for i, ch in enumerate(rest):
        depth += (ch == "(") - (ch == ")")
        if ch == "," and not depth:
            return rest[:i], rest[i + 1:].strip()
    raise AssertionError(text)


@pytest.mark.filterwarnings("ignore:side weight")
def test_records_do_not_depend_on_the_memo_or_the_statements_before():
    rng = random.Random(20261021)
    dists, fns = [], []
    while len(fns) < 40:
        text = _random_statement(rng)
        if text.startswith(("eval", "project")):
            d, f = _split_operands(text)
            dists.append(d)
            fns.append(f)
        elif text.startswith("derive "):
            dists.append(text[len("derive "):])
    texts = []
    for _ in range(1500):  # the drawn operands, recombined so that each recurs
        command, fn = rng.choice(("eval", "eval", "project", "expand", "derive")), rng.choice(fns)
        for _ in range(rng.choice((0, 0, 1, 2))):
            fn = f"D({fn})"
        texts.append(f"expand {fn}, {rng.randint(0, 4)}" if command == "expand"
                     else f"derive {rng.choice(dists)}" if command == "derive"
                     else f"{command} {rng.choice(dists)}, {fn}")
    outcomes = []
    for order in (texts, texts[::-1]):
        for read in (_cold_outcome, _outcome):
            dsl._OPERANDS.clear()
            got = [read(text) for text in order]
            outcomes.append(got if order is texts else got[::-1])
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0] \
        and outcomes[3] == outcomes[0]
    assert sum(isinstance(o, tuple) for o in outcomes[0]) > 50
    # the warm runs read most operands, of either kind, from the memo
    kept_fns, kept_dists = [], []
    for text in texts:
        try:
            query = parse_query(text).queries[0]
        except DslError:
            continue
        kept_fns += [query.testfn] if query.testfn is not None else []
        kept_dists += [query.dist] if query.dist is not None else []
    assert len({id(fn) for fn in kept_fns}) < len(kept_fns) / 2
    assert len({id(d) for d in kept_dists}) < len(kept_dists) / 2


# -- what a node keeps: its moves and its text -------------------------------------------

_REFS = Path(__file__).resolve().parents[1] / "perfbench" / "refs"


def _children(d):
    if isinstance(d, LinearCombination):
        return [term for _, term in d.terms]
    return [d.inner] if hasattr(d, "inner") else []


def _fill(d):
    """Fill the caches of ``d`` and of every node below it."""
    print_distribution(d)
    try:
        derivative_rule(d)
    except ThickCalcError:
        pass
    multiplier_rule(d)
    for child in _children(d):
        _fill(child)


def _assert_like_fresh(kept, fresh, seen):
    """``kept``, whose caches may be filled, is its fresh twin ``fresh`` to
    ``==``, ``hash`` and ``repr``, and each text and move it keeps is what
    ``fresh`` gives the first time, with only the nodes below it asked
    before; ``seen`` counts the caches met."""
    for kept_child, fresh_child in zip(_children(kept), _children(fresh), strict=True):
        _assert_like_fresh(kept_child, fresh_child, seen)
    assert kept == fresh and hash(kept) == hash(fresh) and repr(kept) == repr(fresh)
    if getattr(kept, "_text", None) is not None:
        assert kept._text == print_distribution(fresh)
        seen["_text"] += 1
    for slot, rule in (("_derivative", derivative_rule), ("_moved", multiplier_rule)):
        if getattr(kept, slot, None) is not None:
            seen[slot] += 1
            _assert_like_fresh(getattr(kept, slot), rule(fresh), seen)


@pytest.mark.filterwarnings("ignore:side weight")
def test_a_node_with_its_caches_filled_is_its_fresh_twin():
    texts = [item["text"] for path in sorted(_REFS.glob("*.json"))
             for item in json.loads(path.read_text())["items"]]
    seen = dict.fromkeys(("_text", "_derivative", "_moved"), 0)
    for text in texts:
        program = parse_query(text)
        run(program)
        kept = [q.dist for q in program.queries] + list(program.bindings.values())
        kept = [d for d in kept if isinstance(d, DISTRIBUTION_TYPES)]
        for d in kept:
            _fill(d)
        with mock.patch.object(Parser, "parse_operand", Parser.parse_value):
            program = parse_query(text)
        fresh = [q.dist for q in program.queries] + list(program.bindings.values())
        fresh = [d for d in fresh if isinstance(d, DISTRIBUTION_TYPES)]
        assert len(fresh) == len(kept)
        for d, f in zip(kept, fresh):
            assert d is not f
            _assert_like_fresh(d, f, seen)
    assert len(texts) > 2000 and min(seen.values()) > 200


# -- whole programs, with the memo cold and warm -----------------------------------------


def _drawn_operands():
    """The (distribution, test-function) operand texts of the seeded
    generator's statements, and two glambda deltas, one of which warns."""
    rng = random.Random(20261022)
    dists, fns = ["glambda(3)·delta[1]", "glambda(1/4)·delta[0]"], []
    for _ in range(150):
        text = _random_statement(rng)
        if text.startswith(("eval", "project")):
            d, f = _split_operands(text)
            dists.append(d)
            fns.append(f)
        elif text.startswith("derive "):
            dists.append(text[len("derive "):])
        else:
            fns.append(text[len("expand "):].rsplit(",", 1)[0])
    return dists, fns


_PROGRAM_DISTS, _PROGRAM_FNS = _drawn_operands()
#: Operand texts that read the names a program binds and re-binds.
_NAMED_DISTS = ("f", "2 * f", "d*(f)", "x^1 * f + dstar")
_NAMED_FNS = ("phi", "D(phi)", "phi * bump(2)", "D(D(phi))")


@st.composite
def _programs(draw):
    """A program of let / eval / derive / expand / project lines over drawn
    operands; its operands read the names ``f`` and ``phi``, which it re-binds."""
    dist = st.sampled_from(_PROGRAM_DISTS) | st.sampled_from(_NAMED_DISTS)
    fn = st.sampled_from(_PROGRAM_FNS) | st.sampled_from(_NAMED_FNS)
    lines = [f"let f = {draw(st.sampled_from(_PROGRAM_DISTS))}",
             f"let phi = {draw(st.sampled_from(_PROGRAM_FNS))}"]
    for kind in draw(st.lists(st.sampled_from(
            ("let f", "let phi", "eval", "eval", "derive", "expand", "project")),
            min_size=2, max_size=8)):
        if kind.startswith("let"):
            lines.append(f"{kind} = {draw(dist if kind == 'let f' else fn)}")
        elif kind == "derive":
            lines.append(f"derive {draw(dist)}")
        elif kind == "expand":
            lines.append(f"expand {draw(fn)}, {draw(st.integers(0, 4))}")
        else:
            lines.append(f"{kind} {draw(dist)}, {draw(fn)}")
    return "\n".join(lines)


def _program_outcome(text):
    """The records of program ``text``, or the (message, position, line) of
    its DslError, and the messages of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = run(parse_program(text)).records
        except DslError as exc:
            outcome = (str(exc), exc.position, exc.line)
    return outcome, [str(w.message) for w in caught]


@settings(max_examples=150, deadline=None)
@given(_programs())
def test_a_program_gives_the_same_records_with_the_memo_cold_warm_or_absent(text):
    with mock.patch.object(Parser, "parse_operand", Parser.parse_value):
        plain = _program_outcome(text)
    dsl._OPERANDS.clear()
    cold = _program_outcome(text)
    warm = _program_outcome(text)
    assert cold == plain and warm == plain
    # an error other than a typed one would have raised above
    records, _ = plain
    if isinstance(records, list):
        assert all({"value", "result", "error"} & set(rec) for rec in records)


@settings(max_examples=60, deadline=None)
@given(_programs())
def test_a_program_file_ends_in_an_exit_code_of_the_command_line_tool(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "program.tc"
        path.write_text(text, encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(["eval", str(path), "--json"])
    assert status in (0, 1, 2, 3)
    assert all(isinstance(json.loads(line), dict) for line in out.getvalue().splitlines())
