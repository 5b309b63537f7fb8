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
    simplify,
)
from thickcalc.dsl import (
    MAX_NESTING,
    Parser,
    _Cursor,
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
    derivative,
    from_polynomial,
    heaviside_multiplier,
    plateau_bump,
    power_multiplier,
    thick_monomial,
)


def parse_value(text: str, bindings=None):
    parser = Parser(bindings)
    cursor = _Cursor(tokenize(text), text)
    value = parser.parse_value(cursor)
    assert cursor.done(), f"trailing tokens in {text!r}"
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
    assert got.multiplier.body.pair == SpherePair(3, 3)
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
]


@pytest.mark.parametrize("tree", GOLDEN, ids=lambda t: type(t).__name__)
def test_print_parse_round_trip(tree):
    text = print_distribution(tree)
    assert parse_value(text) == tree
    assert print_distribution(parse_value(text)) == text


def test_derive_normal_form_example():
    normal = simplify(Derivative(MultiplierProduct(heaviside_multiplier(),
                                                   pf_heaviside())))
    assert print_distribution(normal) == "glambda(1)·delta[0]"


def test_print_zero_combination():
    assert print_distribution(LinearCombination(())) == "0"


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
    assert report.records[0]["result"].count("d*(") == 101
    assert report.records[1]["value_exact"] == "0"
