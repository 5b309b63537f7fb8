import importlib.util
import math
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    simplify,
)
from thickcalc import dsl
from thickcalc.dsl import (
    MAX_NESTING,
    Parser,
    parse_program,
    parse_query,
    print_distribution,
    tokenize,
)
from thickcalc.errors import DslError
from thickcalc.sphere import SpherePair, SphereDistribution
from thickcalc.testfn import (
    Multiplier,
    ThickTestFunction,
    constant_multiplier,
    derivative,
    from_polynomial,
    heaviside_multiplier,
    monomial_multiplier,
    plateau_bump,
    power_multiplier,
    thick_monomial,
)


def parse_value(text: str, bindings=None):
    parser = Parser(bindings)
    parser.start(text)
    value = parser.parse_value()
    assert parser.at(None), f"trailing tokens in {text!r}"
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
    assert got == ThickDelta(SphereDistribution(SpherePair(2, -3)), 1)


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
    assert got.multiplier == monomial_multiplier(2, SpherePair(3, 3))
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
]


@pytest.mark.parametrize("text, message, position", PARSE_ERRORS,
                         ids=[text[:40] for text, _, _ in PARSE_ERRORS])
def test_parse_error_message_and_position(text, message, position):
    with pytest.raises(DslError) as err:
        parse_program(text)
    assert str(err.value) == f"{message} (at position {position})"
    assert err.value.position == position


# -- round trips ---------------------------------------------------------------------


GOLDEN = [
    delta_star(),
    g_lambda_delta(1),
    g_lambda_delta(Fraction(1, 4), 2),
    ThickDelta(SphereDistribution(SpherePair(2, -3)), 1),
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
    MultiplierProduct(monomial_multiplier(2, SpherePair(2, 1)), delta_star()),
    MultiplierProduct(constant_multiplier(0), delta_star()),
]
GOLDEN += [pytest.param(LinearCombination(()), id="0 * dstar")]
# `derive <m> * dstar` for each multiplier form: the product and its
# derivative (for D(H(x)) the zero combination)
_MULTIPLIER_FORMS = ("H(x)", "x^1", "x^-1", "mult(pair(2,1), 2)", "(1/2) * x^3",
                     "2 * (3 * x^2)", "D(x^3)", "D(H(x))")
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
    lambda m: st.one_of(m.map("D({})".format), st.builds("{} * ({})".format, _NUMBERS, m)),
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
    assert Report(records=[], check_failed=True).exit_status == 1
    assert Report(records=[], had_error=True, check_failed=True).exit_status == 3
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


def test_tokenize_matches_the_reference_on_the_symbolic_pool():
    pool = _symbolic_pool()
    assert len(pool) > 1000
    for text in pool:
        assert [tuple(t) for t in tokenize(text)] == _reference_tokenize(text)


@pytest.mark.parametrize("text", [
    "dstar @ bump(1)", "eval dstar, bump(1)\x00", "Pf(abs(x)^-1.)", "let x = 2 ; 3",
    "  \t d*(Pf(H(x)))  ", "λ", "1.5e", "bump(1) # comment", "",
])
def test_tokenize_errors_match_the_reference(text):
    try:
        expected = _reference_tokenize(text)
    except DslError as exc:
        with pytest.raises(DslError) as got:
            tokenize(text)
        assert str(got.value) == str(exc) and got.value.position == exc.position
    else:
        assert [tuple(t) for t in tokenize(text)] == expected
