import json
import subprocess
import sys

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


def test_split_radius_flag():
    out = run_cli("eval", "-e", "Pf(abs(x)^-2), bump(1)", "--A", "1/2", "--json")
    rec = json.loads(out.stdout)
    assert rec["split_radius"] == 0.5
    assert rec["series_terms"] == [[0, -4.0]]


def test_config_file(tmp_path):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text("abs_tol = 1e-8\nsplit_radius = 3/10  # comment\n")
    out = run_cli("eval", "-e", "Pf(abs(x)^-2), bump(1)", "--config", str(cfg), "--json")
    assert out.returncode == 0
    assert json.loads(out.stdout)["split_radius"] == 0.3


def test_bad_config_key(tmp_path):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text("speed = 11\n")
    out = run_cli("check", "expansion", "--config", str(cfg))
    assert out.returncode == 2


def test_malformed_config_line(tmp_path):
    cfg = tmp_path / "quad.cfg"
    cfg.write_text("abs_tol\n")
    out = run_cli("check", "expansion", "--config", str(cfg))
    assert out.returncode == 2
    assert "key = value" in out.stderr


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


def test_line_format_shows_exact_value():
    out = run_cli("eval", "-e", "dstar, mono(0, pair(3,1), 2)")
    assert out.returncode == 0
    assert "value = 2.0 (exact 2)" in out.stdout
    assert "quad_error = 0.0" in out.stdout


def test_check_json_deterministic():
    first = run_cli("check", "pairing", "--json")
    second = run_cli("check", "pairing", "--json")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout
    rec = json.loads(first.stdout)
    assert rec["passed"] is True
    assert all(o["passed"] for o in rec["outcomes"])


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


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_non_finite_tolerance_is_bad_configuration(tol):
    out = run_cli("eval", "--tol", tol, "-e", "Pf(abs(x)^-1/2), bump(1)")
    assert out.returncode == 2
    assert "bad configuration" in out.stderr


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
    ("eval", "Pf(abs(x)^-1/2), D(D(D(D(D(D(bump(1))))))) * bump(2)", 3),
])
def test_non_finite_or_too_deep_input_is_a_typed_error(command, expr, status):
    out = run_cli(command, "-e", expr)
    assert out.returncode == status
    assert "Traceback" not in out.stderr
    assert ("parse error" in out.stderr) if status == 2 else ("error:" in out.stdout)


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
    ("derive", "D(H(x)) * dstar", "  -> 0"),
    ("derive", "mult(pair(0,0), 2) * dstar", "  -> 0"),
])
def test_printed_record(command, expr, line):
    out = run_cli(command, "-e", expr)
    assert out.returncode == 0
    assert line in out.stdout.splitlines()


def test_check_prints_the_outcome_lines():
    from thickcalc.checks import run_suite
    out = run_cli("check", "expansion")
    assert out.returncode == 0
    lines = out.stdout.splitlines()
    assert lines[:-1] == [o.line() for o in run_suite("expansion")]
    assert lines[-1] == "check expansion: ok"
