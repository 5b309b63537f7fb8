import pytest

from thickcalc.checks import SUITES, outcome_line, run_suite
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
