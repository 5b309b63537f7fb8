"""Deterministic adaptive quadrature with nested Gauss-Kronrod panels.

Each panel is integrated with the 15-point Kronrod rule and its embedded
7-point Gauss rule (QUADPACK ``qk15``, Piessens et al., Springer 1983): 15
integrand evaluations give both sums, the Kronrod sum is the panel value and
|K15 - G7| its error estimate.  The worst panel is bisected until the summed
estimate meets the tolerance.  The nodes are strictly interior, so integrands
never get evaluated at panel endpoints (convenient when the endpoint is the
thick point).

Each panel also carries a roundoff floor, 50 eps_mach times the Kronrod sum
of |f| (QUADPACK's ``resabs``): an estimate at or below it is rounding noise
that bisection cannot reduce, so when the worst panel reaches its floor
before the tolerance is met, ``integrate`` gives up at once instead of
spending the whole panel budget.  The floors are summed like the estimates;
the returned estimate is never below that sum, and a sum above the tolerance
is a failure too (QUADPACK likewise reports max(abserr, 50 eps resabs)).
"""

from __future__ import annotations

import heapq
import math
import sys

from .errors import QuadratureError

#: Kronrod nodes on [0, 1), the centre last; the odd entries (0-based) are the
#: Gauss nodes.
_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144845693013,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
#: Kronrod weights of the nodes above.
_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
#: Gauss weights of the odd nodes _XK[1], _XK[3], _XK[5] and the centre.
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_ROUNDOFF = 50 * sys.float_info.epsilon


def _panel(f, a: float, b: float):
    """(K15 value, |K15 - G7| estimate, roundoff floor) of f on [a, b]."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fc = f(mid)
    sums, absums = [], []
    for x in _XK[:-1]:
        lo, hi = f(mid - half * x), f(mid + half * x)
        sums.append(lo + hi)
        absums.append(abs(lo) + abs(hi))
    sums.append(fc)
    absums.append(abs(fc))
    kronrod = half * math.fsum(w * s for w, s in zip(_WK, sums))
    gauss = half * math.fsum(w * s for w, s in zip(_WG, sums[1::2]))
    floor = _ROUNDOFF * half * math.fsum(w * s for w, s in zip(_WK, absums))
    return kronrod, abs(kronrod - gauss), floor


def integrate(f, a: float, b: float, abs_tol: float = 1e-10,
              max_panels: int = 2000):
    """Integral of f over [a, b] with an error estimate.

    Returns (value, error_estimate); the estimate is never below the summed
    roundoff floors of the panels.  Raises QuadratureError when the estimate
    cannot be brought under tolerance within max_panels panels, when the
    worst panel's estimate is already at its roundoff floor, or when the
    summed floors alone exceed the tolerance.  The subdivision order is a
    pure function of the inputs, so repeated runs produce bit-identical
    results.
    """
    a, b = float(a), float(b)
    if a == b:
        return 0.0, 0.0
    if b < a:
        value, err = integrate(f, b, a, abs_tol, max_panels)
        return -value, err
    value, err, floor = _panel(f, a, b)
    heap = [(-err, a, b, value, err, floor)]
    total_v, total_e, total_floor, panels = value, err, floor, 1
    while heap and panels < max_panels:
        if total_e <= max(abs_tol, abs(total_v) * 1e-13):
            break
        _, lo, hi, v, e, floor = heapq.heappop(heap)
        if e <= floor:
            raise QuadratureError(
                f"tolerance {abs_tol:g} not reached on [{a:g}, {b:g}]: "
                f"estimate {total_e:g} after {panels} panels is at the roundoff floor "
                f"(panel [{lo:g}, {hi:g}], estimate {e:g} <= {floor:g})"
            )
        mid = 0.5 * (lo + hi)
        v1, e1, f1 = _panel(f, lo, mid)
        v2, e2, f2 = _panel(f, mid, hi)
        total_v += (v1 + v2) - v
        total_e += (e1 + e2) - e
        total_floor += (f1 + f2) - floor
        heapq.heappush(heap, (-e1, lo, mid, v1, e1, f1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2, f2))
        panels += 1
    err = max(total_e, total_floor)
    if err > max(abs_tol, abs(total_v) * 1e-13):
        at_floor = " (the summed roundoff floor)" if err == total_floor else ""
        raise QuadratureError(
            f"tolerance {abs_tol:g} not reached on [{a:g}, {b:g}]: "
            f"estimate {err:g}{at_floor} after {panels} panels"
        )
    return total_v, err
