"""The contract of the record types: equality, hashing, immutability and repr
as a frozen dataclass of the same fields would give them."""

from fractions import Fraction

import pytest

from thickcalc.checks import CheckOutcome
from thickcalc.distributions import (
    ClassicalDistributionView,
    Derivative,
    Dilate,
    LinearCombination,
    MultiplierProduct,
    PfDensity,
    ThickDelta,
    Translate,
)
from thickcalc.dsl import Program, Query, Report
from thickcalc.expansion import Expansion
from thickcalc.pairing import FpFit, PairingResult, QuadratureConfig
from thickcalc.sphere import FrozenRecord, Record, SphereDistribution, SpherePair
from thickcalc.testfn import plateau_bump, power_multiplier

ONE = "SpherePair(plus=1, minus=1)"
DELTA = f"ThickDelta(weights=SphereDistribution(weights={ONE}), degree=0, point=0)"
BUMP = ("ThickTestFunction(body=Body(terms=((((1.0, 0),), 0, " + ONE + "),)), "
        "point=0, radius=1.0)")
X = "Multiplier(body=Body(terms=(((), 1, SpherePair(plus=1, minus=-1)),)), point=0)"


def delta():
    return ThickDelta((1, 1), 0)


#: class name -> (a factory that builds a new record each call, its repr)
CASES = {
    "SpherePair": (lambda: SpherePair(1, 1), ONE),
    "SphereDistribution": (lambda: SphereDistribution(SpherePair(2, Fraction(1, 2))),
                           "SphereDistribution(weights=SpherePair(plus=2, "
                           "minus=Fraction(1, 2)))"),
    "Expansion": (lambda: Expansion(-1, (SpherePair(0, 0), SpherePair(1, 1))),
                  f"Expansion(start=0, coeffs=({ONE},))"),
    "ThickTestFunction": (lambda: plateau_bump(1), BUMP),
    "Multiplier": (lambda: power_multiplier(1), X),
    "PfDensity": (lambda: PfDensity((1, 1), Fraction(-1, 2)),
                  f"PfDensity(pair={ONE}, power=Fraction(-1, 2), point=0)"),
    "ThickDelta": (delta, DELTA),
    "Derivative": (lambda: Derivative(delta()), f"Derivative(inner={DELTA})"),
    "MultiplierProduct": (lambda: MultiplierProduct(power_multiplier(1), delta()),
                          f"MultiplierProduct(multiplier={X}, inner={DELTA})"),
    "LinearCombination": (lambda: LinearCombination(((2, delta()),)),
                          f"LinearCombination(terms=((2, {DELTA}),))"),
    "Translate": (lambda: Translate(delta(), 1),
                  f"Translate(inner={DELTA}, shift=1)"),
    "Dilate": (lambda: Dilate(delta(), -2), f"Dilate(inner={DELTA}, factor=-2)"),
    "ClassicalDistributionView": (lambda: ClassicalDistributionView(delta()),
                                  f"ClassicalDistributionView(source={DELTA})"),
    "QuadratureConfig": (lambda: QuadratureConfig(1e-8, 100, 0.5),
                         "QuadratureConfig(abs_tol=1e-08, max_subdivisions=100, "
                         "split_radius=0.5)"),
    "PairingResult": (lambda: PairingResult(0.5, 1.0, 1e-12, ((-1, 0.25),), 2.0),
                      "PairingResult(value=0.5, split_radius=1.0, quad_error=1e-12, "
                      "series_terms=((-1, 0.25),), log_term=2.0)"),
    "FpFit": (lambda: FpFit(1.5, 1e-14, {(Fraction(0), 0): 1.5}),
              "FpFit(finite_part=1.5, residual=1e-14, coefficients={(Fraction(0, 1), 0): 1.5})"),
    "CheckOutcome": (lambda: CheckOutcome("pairing", "delta", True, 1.0, 1.0, 1e-12),
                     "CheckOutcome(suite='pairing', name='delta', passed=True, observed=1.0, "
                     "expected=1.0, tolerance=1e-12)"),
    "Query": (lambda: Query("expand", "expand bump(1), 2", testfn=plateau_bump(1), max_order=2),
              f"Query(command='expand', source='expand bump(1), 2', dist=None, testfn={BUMP}, "
              "derivatives=0, max_order=2, suite=None)"),
    "Program": (lambda: Program({}, [Query("check", "check all", suite="all")]),
                "Program(bindings={}, queries=[Query(command='check', source='check all', "
                "dist=None, testfn=None, derivatives=0, max_order=None, suite='all')])"),
    "Report": (lambda: Report([{"query": "check"}], check_failed=True),
               "Report(records=[{'query': 'check'}], had_error=False, check_failed=True)"),
}
MUTABLE = ("Program", "Report")
FROZEN = [name for name in CASES if name not in MUTABLE]


def test_every_case_builds_its_class():
    assert all(type(factory()).__name__ == name for name, (factory, _) in CASES.items())


@pytest.mark.parametrize("name", CASES)
def test_repr_is_the_dataclass_text(name):
    factory, text = CASES[name]
    assert repr(factory()) == text


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_make_equal_records(name):
    factory, _ = CASES[name]
    a, b = factory(), factory()
    assert a is not b and a == b and not a != b
    if name in FROZEN and name != "FpFit":  # an FpFit holds a dict
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("name", CASES)
def test_another_class_with_equal_fields_is_unequal(name):
    record = CASES[name][0]()
    base = Record if name in MUTABLE else FrozenRecord
    twin = object.__new__(type("Twin", (base,), {"__slots__": type(record).__slots__}))
    for field in type(record).__slots__:
        object.__setattr__(twin, field, getattr(record, field))
    assert record._fields(record) == twin._fields(twin)
    assert record != twin and twin != record and not record == twin
    assert record != record._fields(record)


def test_two_node_types_over_one_distribution_are_unequal():
    assert Derivative(delta()) != ClassicalDistributionView(delta())


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_assigned_or_deleted(name):
    record = CASES[name][0]()
    for field in type(record).__slots__:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name", MUTABLE)
def test_program_and_report_stay_mutable(name):
    record = CASES[name][0]()
    field = type(record).__slots__[0]
    setattr(record, field, [])
    assert getattr(record, field) == []
