import math

import pytest

from thickcalc.checks import SUITES, _worst, outcome_line, run_suite
from thickcalc.errors import ThickCalcError


def test_suite_registry_names():
    assert list(SUITES) == ["expansion", "pairing", "paskusz", "projection",
                            "a-independence"]


def test_unknown_suite_rejected():
    with pytest.raises(ThickCalcError):
        run_suite("nonesuch")


@pytest.mark.parametrize("name", list(SUITES))
def test_each_suite_passes(name):
    outcomes = run_suite(name)
    assert outcomes
    for o in outcomes:
        assert o["passed"], outcome_line(**o)


def test_outcome_lines_render():
    line = outcome_line(**run_suite("expansion")[0])
    assert line.startswith("PASS expansion.")


@pytest.mark.parametrize("gaps", [[math.nan, 0.0, 1e-15], [0.0, math.nan, 1e-15],
                                  [0.0, 1e-15, math.nan]])
def test_a_nan_gap_fails_in_any_position(gaps):
    outcome = _worst("x", gaps, 1e-12)
    assert not outcome["passed"]
    assert math.isnan(outcome["observed"])


def test_worst_gap_is_the_largest():
    assert _worst("x", [1e-15, 3e-13, 2e-13], 1e-12)["observed"] == 3e-13
    assert _worst("x", [], 0)["passed"]


def test_paskusz_pairings_agree_reads_the_test_function_route(monkeypatch):
    # the right side pairs Pf(H) against H·phi' by quadrature, so a wrong
    # product of a multiplier and a test function fails the check
    import thickcalc.checks as checks
    from thickcalc.testfn import multiply_by

    def agree():
        return next(o for o in run_suite("paskusz") if o["name"] == "paskusz.pairings-agree")

    assert agree()["passed"]
    monkeypatch.setattr(checks, "multiply_by", lambda psi, phi: multiply_by(psi, phi).scale(2))
    assert not agree()["passed"]
