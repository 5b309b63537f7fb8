import math

import numpy as np
import pytest

from thickcalc.errors import QuadratureError
from thickcalc.quadrature import _WG, _XK, _panel, integrate


def test_polynomial_is_near_exact():
    value, err = integrate(lambda x: 3 * x ** 2, 0.0, 2.0)
    assert value == pytest.approx(8.0, abs=1e-13)
    assert err >= 0.0


def test_oscillatory_integral():
    value, _ = integrate(math.sin, 0.0, math.pi, abs_tol=1e-12)
    assert value == pytest.approx(2.0, abs=1e-11)


def test_mild_endpoint_singularity():
    # sqrt has an infinite-slope endpoint; adaptive bisection digs it out
    value, _ = integrate(lambda x: x ** -0.5, 0.0, 1.0, abs_tol=1e-10, max_panels=500)
    assert value == pytest.approx(2.0, abs=1e-8)


def test_reversed_bounds_negate():
    forward, _ = integrate(lambda x: x, 0.0, 1.0)
    backward, _ = integrate(lambda x: x, 1.0, 0.0)
    assert backward == -forward


def test_empty_interval():
    assert integrate(lambda x: 1.0, 1.0, 1.0) == (0.0, 0.0)


def test_budget_exhaustion_raises():
    with pytest.raises(QuadratureError):
        integrate(lambda x: x ** -0.99, 0.0, 1.0, abs_tol=1e-13, max_panels=5)


def test_deterministic_subdivision():
    runs = [integrate(lambda x: math.exp(-x * x), 0.0, 5.0, abs_tol=1e-12)
            for _ in range(2)]
    assert runs[0] == runs[1]


def test_embedded_gauss_rule_is_gauss_legendre_7():
    odd = _XK[1::2]  # the three positive Gauss nodes and the centre
    nodes = [-x for x in odd[:-1]] + list(reversed(odd))
    weights = list(_WG[:-1]) + list(reversed(_WG))
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(7)
    assert nodes == pytest.approx(ref_nodes, abs=1e-15)
    assert weights == pytest.approx(ref_weights, abs=1e-15)


@pytest.mark.parametrize("d", range(23))
def test_kronrod_rule_is_exact_through_degree_22(d):
    value, _, _ = _panel(lambda x: x ** d, -1.0, 1.0)
    assert value == pytest.approx((1 + (-1) ** d) / (d + 1), abs=1e-15)


def test_estimate_at_the_roundoff_floor_raises():
    # the exact integral is 0; the sums cancel only to ~1e-10 of a 4e6 total
    with pytest.raises(QuadratureError, match="roundoff floor"):
        integrate(lambda x: 1e6 * math.sin(x), 0.0, 2 * math.pi, abs_tol=1e-12)


def test_summed_roundoff_floors_above_the_tolerance_raise():
    # converges to 0.49999995762482285 with a 1.2e-10 estimate if the floors
    # (about 4e-8 summed) are ignored; the true value is 0.4999999583333347
    with pytest.raises(QuadratureError, match="roundoff floor"):
        integrate(lambda x: 1e6 * math.sin(x), 0.0, 2 * math.pi + 1e-3, abs_tol=1e-8)


def test_estimate_is_never_below_the_roundoff_floor():
    value, err = integrate(lambda x: 3 * x ** 2, 0.0, 2.0)
    _, _, floor = _panel(lambda x: 3 * x ** 2, 0.0, 2.0)
    assert err >= floor > 0.0
