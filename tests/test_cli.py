import json
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

PKG = [sys.executable, "-m", "thickcalc"]


def run_cli(*args, **kwargs):
    return subprocess.run(PKG + list(args), capture_output=True, text=True, **kwargs)


def test_eval_step_derivative_is_one():
    out = run_cli("eval", "-e", "d*(Pf(H(x))), bump(1)")
    assert out.returncode == 0
    assert "value = " in out.stdout
    value = float(out.stdout.split("value = ")[1].split()[0])
    assert value == pytest.approx(1.0, abs=1e-8)


def test_eval_json_record_fields():
    out = run_cli("eval", "-e", "dstar, mono(0, pair(3,1), 2)", "--json")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert rec["value"] == 2.0
    assert rec["value_exact"] == "2"
    assert rec["quad_error"] == 0.0
    assert rec["query"] == "eval"


def test_derive_normal_form():
    out = run_cli("derive", "-e", "H(x) * Pf(H(x))")
    assert out.returncode == 0
    assert "glambda(1)·delta[0]" in out.stdout


def test_expand_command():
    out = run_cli("expand", "-e", "poly([0,0,0,1],1), 4")
    assert out.returncode == 0
    assert "(1|-1)·r^3" in out.stdout


def test_project_rejects_thick_function():
    out = run_cli("project", "-e", "dstar, mono(0, pair(1,0), 1)")
    assert out.returncode == 3
    assert "error" in out.stdout


def test_parse_error_exit_code():
    out = run_cli("eval", "-e", "Pf(abs(x)^), bump(1)")
    assert out.returncode == 2
    assert "parse error" in out.stderr


def test_evaluation_error_exit_code():
    out = run_cli("eval", "-e", "translate(dstar, 1), bump(1)")
    assert out.returncode == 3


def test_negative_order_warning_on_stderr():
    out = run_cli("eval", "-e", "dstar, mono(-2, pair(1,1), 2)")
    assert out.returncode == 0
    assert "leading order" in out.stderr


def test_glambda_outside_the_unit_interval_is_a_one_line_note():
    out = run_cli("derive", "-e", "glambda(3)·delta[0]")
    assert out.returncode == 0
    assert "delta[1](pair(-6,-4))" in out.stdout
    assert out.stderr.startswith("note: side weight 3 outside [0, 1]")
    assert out.stderr.count("\n") == 1 and "Warning" not in out.stderr


def test_derive_prints_a_delta_outside_the_glambda_range_by_its_weights():
    out = run_cli("derive", "-e", "d*(Pf(pair(3,-2) * r^1))")
    assert out.returncode == 0
    assert "-> delta[0](pair(6,-4))" in out.stdout
    assert out.stderr == ""


def test_import_leaves_numpy_out():
    code = "import sys, thickcalc.cli; sys.exit('numpy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


def test_check_all_runs_with_numpy_blocked():
    code = ("import runpy, sys; sys.modules['numpy'] = None; "
            "sys.argv = ['thickcalc', 'check', 'all', '--json']; "
            "runpy.run_module('thickcalc', run_name='__main__')")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert all(json.loads(line)["passed"] for line in out.stdout.splitlines())


def test_split_radius_flag():
    out = run_cli("eval", "-e", "Pf(abs(x)^-2), bump(1)", "--A", "1/2", "--json")
    rec = json.loads(out.stdout)
    assert rec["split_radius"] == 0.5
    assert rec["series_terms"] == [[0, -4.0]]


def test_bad_config_key():
    # --A and --tol are the only settings; a settings file is an unknown flag
    out = run_cli("eval", "--config", "quad.cfg", "-e", "dstar, bump(1)")
    assert out.returncode == 2
    assert "unrecognized arguments: --config" in out.stderr
    assert "Traceback" not in out.stderr


def test_let_of_a_built_in_name_is_a_parse_error(tmp_path):
    prog = tmp_path / "session.tc"
    prog.write_text("let dstar = bump(1)\neval dstar, dstar\n")
    out = run_cli("eval", str(prog))
    assert out.returncode == 2
    assert "cannot bind 'dstar': it is a built-in name" in out.stderr


def test_program_file_with_bindings(tmp_path):
    prog = tmp_path / "session.tc"
    prog.write_text(
        "# one-sided evaluation of a jump\n"
        "let phi = mono(0, pair(3,1), 2)\n"
        "eval glambda(1), phi\n"
        "eval glambda(0), phi\n"
    )
    out = run_cli("eval", str(prog), "--json")
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert json.loads(lines[0])["value"] == 3.0
    assert json.loads(lines[1])["value"] == 1.0


@pytest.mark.parametrize("command", ["eval", "check"])
def test_program_file_leaves_stderr_empty(tmp_path, command):
    prog = tmp_path / "prog.tc"
    prog.write_text("eval dstar, bump(1)\n")
    out = run_cli(command, str(prog))
    assert out.returncode == 0
    assert out.stderr == ""


#: A README example: command, quoted expression, and a comment that ends in
#: the documented ``-> result`` or ``: value``.
_README_EXAMPLE = re.compile(r'^thickcalc (eval|derive|project|expand) +-e "([^"]*)" +# (.*)$',
                             re.MULTILINE)


def test_readme_cli_examples_hold():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    examples = _README_EXAMPLE.findall(readme)
    assert len(examples) == 5
    for command, expr, comment in examples:
        out = run_cli(command, "-e", expr, "--json")
        assert out.returncode == 0, expr
        rec = json.loads(out.stdout)
        if "-> " in comment:
            assert rec["result"] == comment.split("-> ", 1)[1], expr
        else:
            assert rec["value"] == pytest.approx(float(comment.rsplit(": ", 1)[1]), abs=1e-8)


def test_check_single_suite():
    out = run_cli("check", "expansion")
    assert out.returncode == 0
    assert "PASS expansion.taylor-parity-50-random" in out.stdout
    assert "check expansion: ok" in out.stdout


def test_check_unknown_suite():
    out = run_cli("check", "nonesuch")
    assert out.returncode == 3


def test_missing_input():
    out = run_cli("eval")
    assert out.returncode == 2


@pytest.mark.parametrize("command", ["eval", "check"])
def test_program_file_that_is_not_utf8_is_an_input_error(command, tmp_path):
    path = tmp_path / "bad.tc"
    path.write_bytes(b"eval dstar, bump(1)\n\xff\xfe")
    out = run_cli(command, str(path))
    assert out.returncode == 2
    assert out.stderr == f"thickcalc: {path}: not UTF-8 text\n"


def test_line_format_shows_exact_value():
    out = run_cli("eval", "-e", "dstar, mono(0, pair(3,1), 2)")
    assert out.returncode == 0
    assert "value = 2.0 (exact 2)" in out.stdout
    assert "quad_error = 0.0" in out.stdout


@pytest.mark.parametrize("dist, fn, value_exact", [
    ("dstar", "bump(1)", "1"),
    ("glambda(1/3)·delta[0]", "mono(0, pair(3,1), 2)", "5/3"),
    ("delta[1](pair(2,-3))", "mono(1, pair(1,1), 2)", "-1/2"),
    ("dilate(glambda(1/2)·delta[2], -3)", "poly([1,2,3], 2)", "1/9"),
    ("d*(delta[0](pair(1,2)))", "mono(1, pair(1,1), 2)", "1/2"),
    ("2 * dstar - glambda(1)·delta[0]", "mono(0, pair(3,1), 2)", "1"),
    ("H(x) * glambda(1/4)·delta[0]", "mono(0, pair(3,1), 2)", "3/4"),
    ("d*(Pf(H(x)))", "mono(0, pair(3,1), 2)", "3"),
    # a dilated multiplier product over a delta stays exact
    ("dilate(x^1 * delta[1](pair(1,2)), 2)", "mono(0, pair(1,3), 2) + poly([1,2],2)", "-3/2"),
    # the multiplier moves the delta to degree -2
    ("x^3 * delta[1](pair(1,2))", "mono(-2, pair(1,3), 2)", "-5/2"),
])
def test_delta_pairing_json_record(dist, fn, value_exact):
    out = run_cli("eval", "-e", f"{dist}, {fn}", "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {
        "expr": dist, "log_term": 0.0, "quad_error": 0.0, "query": "eval",
        "series_terms": [], "source": f"eval {dist}, {fn}", "split_radius": None,
        "value": float(Fraction(value_exact)), "value_exact": value_exact,
    }


def test_derive_merges_delta_weights_json_record():
    expr = "d*(glambda(1/3)·delta[1]) + 2 * delta[2](pair(1,-1))"
    out = run_cli("derive", "-e", expr, "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"expr": expr, "query": "derive",
                                      "result": "delta[3](pair(-2,2))",
                                      "source": f"derive {expr}"}


def test_check_json_deterministic():
    first = run_cli("check", "pairing", "--json")
    second = run_cli("check", "pairing", "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    rec = json.loads(first.stdout)
    assert rec["passed"] is True
    assert all(o["passed"] for o in rec["outcomes"])


#: the outcomes of ``check all`` in order: name, raw JSON tokens of expected
#: and tolerance (an integral tolerance prints as ``0``, a float one as ``0.0``)
CHECK_ALL_OUTCOMES = [
    ("expansion.taylor-parity-50-random", "0.0", "0"),
    ("expansion.derivative-commutes-50-random", "0.0", "0"),
    ("expansion.seminorm-even-monomial-zero", "0.0", "0.0"),
    ("expansion.seminorm-cubic-one", "1.0", "1e-10"),
    ("pairing.delta-exact-rational", "0.0", "0"),
    ("pairing.delta-ordinary-point-value", "0.0", "1e-12"),
    ("pairing.step-derivative-order-zero", "0.0", "1e-08"),
    ("pairing.oracle-agreement-24-cases", "0.0", "1e-05"),
    ("pairing.finite-part-power-ladder", "0.0", "1e-06"),
    ("paskusz.normal-forms-identical", "0.0", "0"),
    ("paskusz.pairings-agree", "0.0", "1e-10"),
    ("paskusz.projected-is-point-evaluation", "0.0", "1e-10"),
    ("paskusz.step-idempotent-no-halving", "0.0", "1e-10"),
    ("projection.derivative-commutes", "0.0", "1e-08"),
    ("projection.delta-projects-to-delta", "0.0", "1e-12"),
    ("a-independence.split-radius-invariance", "0.0", "1e-07"),
]


def test_check_all_json_pins_each_outcome():
    out = run_cli("check", "all", "--json")
    assert out.returncode == 0
    # numbers stay the tokens they were printed as, so 0 and 0.0 differ
    rec = json.loads(out.stdout, parse_float=str, parse_int=str)
    assert [(o["name"], o["expected"], o["tolerance"]) for o in rec["outcomes"]] \
        == CHECK_ALL_OUTCOMES
    assert all(o["passed"] is True for o in rec["outcomes"])
    assert rec["passed"] is True


def test_unknown_check_suite_message_is_not_quoted():
    out = run_cli("check", "nosuch", "--json")
    assert out.returncode == 3
    assert json.loads(out.stdout) == {
        "error": "unknown check suite 'nosuch'; expected one of: expansion, pairing, "
                 "paskusz, projection, a-independence, all",
        "query": "check", "source": "check nosuch"}


@pytest.mark.parametrize("expr, position", [
    ("dstar, bump(0)", 12),
    ("dstar, mono(0, pair(1,1), 0)", 12),
    ("dstar, poly([1,2], 0)", 12),
    ("dilate(dstar, 0), bump(1)", 5),
    ("translate(dstar, 1.0e999), bump(1)", 5),
    ("translate(dstar, 1) + dstar, bump(1)", 25),
    ("H(x) * translate(dstar, 1), bump(1)", 10),
])
def test_rejected_constructor_argument_is_a_parse_error(expr, position):
    out = run_cli("eval", "-e", expr)
    assert out.returncode == 2
    assert "parse error" in out.stderr and f"(at position {position})" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("command, second_line, message, position", [
    ("eval", "  eval dstar, bump(0)  # radius", "support radius must be positive and finite", 14),
    ("check", "\tcheck 3", "check takes a suite name", 7),
])
def test_program_file_parse_error_names_its_line(tmp_path, command, second_line, message,
                                                 position):
    # the position counts from the start of the raw line, indentation included
    prog = tmp_path / "prog.tc"
    prog.write_text(f"let h = bump(1)  # fine\n{second_line}\neval dstar, h\n")
    out = run_cli(command, str(prog))
    assert out.returncode == 2
    assert out.stderr == (f"thickcalc: parse error: {prog}:2: {message} "
                          f"(at position {position})\n")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_bad_configuration(tol):
    out = run_cli("eval", "--tol", tol, "-e", "Pf(abs(x)^-1/2), bump(1)")
    assert out.returncode == 2
    assert "bad configuration" in out.stderr


@pytest.mark.parametrize("flag, value", [("--A", "1/0"), ("--A", "1e400")])
def test_setting_without_a_float_value_is_bad_configuration(flag, value):
    out = run_cli("eval", flag, value, "-e", "Pf(abs(x)^-1/2), bump(1)")
    assert out.returncode == 2
    assert "bad configuration" in out.stderr and "Traceback" not in out.stderr


@pytest.mark.parametrize("command, expr, status", [
    ("eval", "Pf(abs(x)^-1/2), bump(1.0e999)", 2),
    ("eval", "Pf(abs(x)^-1/2), mono(0, pair(1,1), 1.0e999)", 2),
    ("eval", "Pf(abs(x)^-1/2), poly([1, 2], 1.0e999)", 2),
    ("eval", "dstar, bump(1.0e999)", 2),
    ("eval", "glambda(1.0e999), bump(1)", 2),
    ("eval", "delta[0](pair(1.0e999, 1)), bump(1)", 2),
    ("eval", "Pf(abs(x)^1.0e999), bump(1)", 2),
    ("eval", "-1.0e999 * dstar, bump(1)", 2),
    ("eval", "dstar, 1.0e999 * bump(1)", 2),
    ("eval", "Pf(abs(x)^-1/2), poly([1.0e308, 1.0e308], 1)", 3),
    ("eval", "1.0e300 * Pf(abs(x)^-1/2), poly([1.0e300], 1)", 3),
    ("eval", "1.0e300 * dstar, poly([1.0e300], 1)", 3),
    ("derive", "d*(" * 200 + "dstar" + ")" * 200, 2),
    ("expand", "D(" * 250 + "bump(1)" + ")" * 250 + ", 2", 2),
    ("derive", "(" * 300 + "dstar" + ")" * 300, 2),
    # overlapping radii: the D^6 chain stays inside the product and ends at
    # the roundoff floor
    ("eval", "Pf(abs(x)^-1/2), D(D(D(D(D(D(bump(1))))))) * bump(3/2)", 3),
    # the far field and the series cancel to a value with no correct digit
    ("eval", "Pf(abs(x)^-400), bump(1)", 3),
    # an integer literal of more than 4,300 digits
    pytest.param("eval", "Pf(abs(x)^" + "1" * 5000 + "), bump(1)", 2, id="numerator-5000-digits"),
    pytest.param("eval", "Pf(abs(x)^-1/" + "1" * 5000 + "), bump(1)", 2,
                 id="denominator-5000-digits"),
    pytest.param("expand", "bump(1), " + "1" * 5000, 2, id="int-argument-5000-digits"),
    # an exact result of more than 4,300 digits, from literals within the limit
    pytest.param("derive", f"{'9' * 3000} * {'9' * 3000} * dstar", 3, id="derive-6000-digits"),
    pytest.param("eval", f"1/{'9' * 3000} * 1/{'9' * 3000} * dstar, bump(1)", 3,
                 id="eval-6000-digits"),
    pytest.param("expand", "mono(0, pair(N,1), 1) * mono(0, pair(N,1), 1), 0".replace(
        "N", "9" * 3000), 3, id="expand-6000-digits"),
])
def test_non_finite_or_too_deep_input_is_a_typed_error(command, expr, status):
    out = run_cli(command, "-e", expr)
    assert out.returncode == status
    assert "Traceback" not in out.stderr
    assert ("parse error" in out.stderr) if status == 2 else ("error:" in out.stdout)


@pytest.mark.parametrize("expr", ["Pf(abs(x)^-1/2), poly([1.0e308, 1.0e308], 1)",
                                  "1.0e300 * dstar, poly([1.0e300], 1)"])
def test_float_overflow_has_one_message(expr):
    out = run_cli("eval", "-e", expr, "--json")
    assert out.returncode == 3
    assert json.loads(out.stdout)["error"] == "float overflow during evaluation"


@pytest.mark.parametrize("expr, panel", [
    # one panel holds both +inf and -inf
    ("-3/2 * Pf(abs(x)^-25), D(x^2 * bump(1/2)) * 1e300 * D(mono(-1,pair(1e-3,2.5),1))",
     "[0.25, 0.5]"),
    # the samples are NaN
    ("Pf(abs(x)^-25), 1e300 * D(mono(-1,pair(1,2),1))", "[0.5, 0.515625]"),
])
def test_non_finite_integrand_is_an_evaluation_error(expr, panel):
    out = run_cli("eval", "-e", expr, "--json")
    assert out.returncode == 3
    assert "Traceback" not in out.stderr
    assert json.loads(out.stdout)["error"] == f"integrand is not finite on {panel}"


def test_pairing_error_is_held_to_the_tolerance():
    expr = "Pf(abs(x)^-30), poly([1,1],1)"  # error estimate about 1e-6
    out = run_cli("eval", "-e", expr)
    assert out.returncode == 3
    assert "error: tolerance 1e-10 not reached" in out.stdout
    out = run_cli("eval", "--tol", "1e-5", "-e", expr, "--json")
    assert out.returncode == 0
    rec = json.loads(out.stdout)
    assert 0 < rec["quad_error"] <= 1e-5
    assert math.isfinite(rec["value"])


def test_nested_product_pairs_as_its_inner_factor():
    # bump(2) is 1 wherever D^6(bump(1)) is nonzero, so the product is D^6(bump(1))
    values = []
    for fn in ("D(D(D(D(D(D(bump(1))))))) * bump(2)", "D(D(D(D(D(D(bump(1)))))))"):
        out = run_cli("eval", "-e", f"Pf(abs(x)^-1/2), {fn}", "--json")
        assert out.returncode == 0
        values.append(json.loads(out.stdout)["value"])
    assert values[0] == pytest.approx(values[1], rel=1e-13)


def test_sixth_derivative_pairing_is_a_value():
    # D^6 moves onto the density; the reference is the mpmath value of
    # tests/test_pairing.py::test_sixth_derivative_pairing_matches_an_mpmath_reference
    out = run_cli("eval", "-e",
                  "Pf(abs(x)^-3/2), D(D(D(D(D(D(mono(2,pair(1,3),2)*poly([1,1],2)))))))",
                  "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["value"] == pytest.approx(-59.32838673301046, rel=1e-8)


@pytest.mark.parametrize("command, expr, line", [
    ("eval", "Pf(abs(x)^-6), bump(1)", "  series = [r^0: -12.8]"),
    ("eval", "D(H(x)) * dstar, bump(1)", "  value = 0.0 (exact 0)"),
    ("eval", "0 * x^2 * dstar, bump(1)", "  value = 0.0 (exact 0)"),
    ("derive", "D(H(x)) * dstar", "  -> 0 * dstar"),
    ("derive", "mult(pair(0,0), 2) * dstar", "  -> 0 * dstar"),
    ("derive", "0 * dstar", "  -> 0 * dstar"),
    # a multiplier over a combination that cancels is the zero distribution
    ("derive", "H(x) * (dstar - dstar)", "  -> 0 * dstar"),
    # simplify moves a multiplier onto a delta, so derive prints one delta, and
    # a delta of zero weights is the zero distribution
    # (test_a_derive_text_pairs_like_the_product_rule_text_it_replaced)
    ("derive", "x^2 * delta[1](pair(1,2))", "  -> 0 * dstar"),
    ("derive", "d*(x^1 * dstar)", "  -> 0 * dstar"),
    ("derive", "delta[0](pair(0,0))", "  -> 0 * dstar"),
    # a product of multipliers is one multiplier, and a product of products one product
    ("eval", "H(x) * H(x) * dstar, bump(1)", "  value = 0.5 (exact 1/2)"),
    ("eval", "x^1 * x^2 * dstar, mono(-3, pair(1,2), 1)", "  value = -0.5 (exact -1/2)"),
    ("eval", "x^3 * dstar, mono(-3, pair(1,2), 1)", "  value = -0.5 (exact -1/2)"),
    ("derive", "H(x) * H(x) * Pf(H(x))", "  -> glambda(1)·delta[0]"),
    ("expand", "x^2 * x^1, 3", "  -> (1|-1)·r^3"),
    ("derive", "x^-1 * (x^1 * dstar)", "  -> delta[1](pair(-1,1))"),
    ("derive", "x^1 * (x^2 * dstar)", "  -> delta[-2](pair(2,2))"),
    ("derive", "x^3 * dstar", "  -> delta[-2](pair(2,2))"),
])
def test_printed_record(command, expr, line):
    out = run_cli(command, "-e", expr)
    assert out.returncode == 0
    assert line in out.stdout.splitlines()


@pytest.mark.parametrize("expr, text, product_rule_text", [
    ("x^2 * delta[1](pair(1,2))", "0 * dstar",
     "mult(pair(2,-2), 1) * delta[1](pair(1,2)) + x^2 * delta[2](pair(-2,4))"),
    ("d*(x^1 * dstar)", "0 * dstar",
     "delta[1](pair(-2,2)) + x^1 * delta[2](pair(2,2))"),
    ("x^1 * (x^2 * dstar)", "delta[-2](pair(2,2))",
     "mult(pair(3,3), 2) * dstar + x^3 * delta[1](pair(-1,1))"),
    ("x^3 * dstar", "delta[-2](pair(2,2))",
     "mult(pair(3,3), 2) * dstar + x^3 * delta[1](pair(-1,1))"),
])
def test_a_derive_text_pairs_like_the_product_rule_text_it_replaced(expr, text,
                                                                     product_rule_text):
    # derive printed the product rule while simplify kept a multiplier over a
    # delta; the moved delta it prints now pairs to the same exact values
    from thickcalc.dsl import parse_query, run
    assert run(parse_query(f"derive {expr}")).records[0]["result"] == text
    for fn in ("bump(1)", "mono(-2, pair(1,3), 1) + mono(-1, pair(2,5), 1) + "
               "poly([7,1,4,3], 1) + mono(0, pair(1,-1), 1)"):
        values = [run(parse_query(f"eval {t}, {fn}")).records[0]["value_exact"]
                  for t in (text, product_rule_text, f"d*({expr})")]
        assert values[0] == values[1] == values[2]


@pytest.mark.parametrize("command, expr, lines", [
    # the support stays the stored radius 2, not the 1 the cancelled body spans
    ("eval", "Pf(abs(x)^-2), bump(1)+bump(2)-bump(2)",
     ["  value = -2.6994263829652043", "  A = 1.0  quad_error = 2e-15"]),
    ("expand", "bump(1) - bump(1), 3", ["  -> 0"]),
    ("expand", "0 * bump(1), 3", ["  -> 0"]),
    ("eval", "dstar, bump(1) - bump(1)", ["  value = 0.0 (exact 0)"]),
    ("eval", "dstar, 0 * bump(1)", ["  value = 0.0 (exact 0)"]),
    ("eval", "Pf(abs(x)^-2), bump(1) - bump(1)", ["  value = 0.0"]),
    ("eval", "Pf(abs(x)^-2), 0 * bump(1)", ["  value = 0.0"]),
])
def test_stored_support_and_zero_body(command, expr, lines):
    out = run_cli(command, "-e", expr)
    assert out.returncode == 0
    for line in lines:
        assert line in out.stdout.splitlines()


def test_check_prints_the_outcome_lines():
    from thickcalc.checks import outcome_line, run_suite
    out = run_cli("check", "expansion")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[:-1] == [outcome_line(**o) for o in run_suite("expansion")]
    assert lines[-1] == "check expansion: ok"


def test_check_argument_that_is_not_a_file_names_a_suite():
    by_name = run_cli("check", "expansion", "--json")
    by_expr = run_cli("check", "-e", "expansion", "--json")
    assert by_name.returncode == by_expr.returncode == 0
    assert by_name.stdout == by_expr.stdout
    assert json.loads(by_name.stdout)["source"] == "check expansion"
