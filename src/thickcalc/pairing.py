"""Pairing evaluation: the finite-part formulas and their independent oracle.

The distribution/test-function pairing dispatches on the distribution tree,
combining sub-results through ``PairingResult.scaled`` and ``+``.  A
finite-part density c(w) r^lambda splits at a radius A: quadrature over the
far field [A, R]; an analytic series term c_j A^(lambda+j+1)/(lambda+j+1) for
each order j through -Re(lambda)-1 (a log A term at the integer boundary
order); closed-form terms c_j E^(lambda+j+1)/(lambda+j+1) for the higher
orders on the inner plateau [0, E] of an exact function; and quadrature of
the expansion-subtracted remainder on [E, A].  The split radius is
arbitrary; A-independence is one of the main correctness checks.  A
derivative of a density moves onto the density (``density_derivative``), so
d*^k Pf is paired as densities of power lambda - k and deltas against the
undifferentiated test function.

``fp_pair_oracle`` reaches the same number along a completely different
route: it truncates the integral at epsilon, sweeps epsilon down a geometric
grid, and extracts the finite part of the limit by fitting the divergent
terms away (``fp_limit``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Dict, Optional, Tuple, Union

import numpy as np

from .errors import (
    FitConditionError,
    MisclassifiedPowerError,
    NonFiniteError,
    OrdinaryFunctionRequiredError,
    PointMismatchError,
)
from .distributions import (
    ClassicalDistributionView,
    Derivative,
    Dilate,
    LinearCombination,
    MultiplierProduct,
    PfDensity,
    ThickDelta,
    Translate,
    density_derivative,
    nested_derivative,
)
from .expansion import Expansion, evaluate
from .quadrature import integrate
from .sphere import ONE_PAIR, SPHERE_MEASURE, SpherePair
from .testfn import ThickTestFunction, derivative, dilate, multiply_by, translate


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    max_subdivisions: int = 2000
    split_radius: float = 1.0

    def __post_init__(self):
        if not 0 < self.abs_tol < math.inf:
            raise ValueError("abs_tol must be positive and finite")
        if not 0 < self.split_radius < math.inf:
            raise ValueError("split_radius must be positive and finite")


DEFAULT_CONFIG = QuadratureConfig()

Number = Union[Fraction, float]


@dataclass(frozen=True)
class PairingResult:
    value: Number
    split_radius: Optional[float]
    quad_error: float
    series_terms: Tuple[Tuple[int, Number], ...] = ()
    log_term: Number = 0

    def __post_init__(self):
        if not math.isfinite(float(self.value)):
            raise NonFiniteError("pairing produced a non-finite value")
        if self.quad_error < 0:
            raise ValueError("error estimate cannot be negative")

    def __float__(self):
        return float(self.value)

    def scaled(self, k) -> "PairingResult":
        """k times this pairing, every stage scaled alike."""
        return PairingResult(k * self.value, self.split_radius, abs(float(k)) * self.quad_error,
                             tuple((j, k * v) for j, v in self.series_terms), k * self.log_term)

    def __add__(self, other: "PairingResult") -> "PairingResult":
        split = self.split_radius if self.split_radius is not None else other.split_radius
        return PairingResult(self.value + other.value, split, self.quad_error + other.quad_error,
                             self.series_terms + other.series_terms,
                             self.log_term + other.log_term)


def _radial(phi, pair: SpherePair, flam: float, e: Optional[Expansion] = None, top: int = 0):
    """The two-sided radial integrand r^flam * sum_w pair(w) * (phi(a + w r) -
    e(w, r) through order top); without ``e`` nothing is subtracted."""
    sides = [(w, float(pair.at(w))) for w in (1, -1) if pair.at(w)]

    def integrand(r):
        acc = 0.0
        for w, c in sides:
            y = w * r  # phi at a + w r, in local coordinates
            v = phi.body.value(y) if abs(y) < phi.radius else 0.0
            if e is not None:
                v -= evaluate(e, w, r, top)
            acc += c * v
        return r ** flam * acc
    return integrand


def pair(f, phi: ThickTestFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> PairingResult:
    """Pair a distribution tree with a test function; float overflow is a NonFiniteError."""
    try:
        if isinstance(f, ClassicalDistributionView):
            if not phi.is_ordinary:
                raise OrdinaryFunctionRequiredError(
                    "projected distributions pair only with functions smooth across the point"
                )
            return pair(f.source, phi, cfg)
        if f.point != phi.point:
            raise PointMismatchError(
                f"distribution at {f.point} paired with test function at {phi.point}"
            )
        if isinstance(f, ThickDelta):
            aq = phi.expansion.coefficient(f.degree)
            value = f.weights.pair(aq) / SPHERE_MEASURE
            return PairingResult(value, None, 0.0)
        if isinstance(f, PfDensity):
            return _pair_density(f, phi, cfg)
        if isinstance(f, Derivative):
            # d*^k of a density or of a combination moves onto the density;
            # anything else is paired by the definition <d*g, phi> = -<g, phi'>
            k, g = 1, f.inner
            while isinstance(g, Derivative):
                k, g = k + 1, g.inner
            if isinstance(g, PfDensity):
                return pair(nested_derivative(density_derivative(g), k - 1), phi, cfg)
            if isinstance(g, LinearCombination):
                terms = tuple((c, nested_derivative(d, k)) for c, d in g.terms)
                return pair(LinearCombination(terms), phi, cfg)
            return pair(f.inner, derivative(phi), cfg).scaled(-1)
        if isinstance(f, MultiplierProduct):
            return pair(f.inner, multiply_by(f.multiplier, phi), cfg)
        if isinstance(f, LinearCombination):
            return sum((pair(d, phi, cfg).scaled(c) for c, d in f.terms),
                       PairingResult(Fraction(0), None, 0.0))
        if isinstance(f, Translate):
            return pair(f.inner, translate(phi, f.shift), cfg)
        if isinstance(f, Dilate):
            return pair(f.inner, dilate(phi, f.factor), cfg).scaled(1 / abs(f.factor))
        raise TypeError(f"cannot pair object of type {type(f).__name__}")
    except OverflowError as exc:
        raise NonFiniteError(f"float overflow during evaluation: {exc}") from None


def _pair_density(f: PfDensity, phi: ThickTestFunction, cfg: QuadratureConfig) -> PairingResult:
    lam = f.power
    flam = float(lam)
    e = phi.expansion
    R = phi.radius
    A = cfg.split_radius if cfg.split_radius < R else R / 2
    jmax = -lam - 1 if f.integral_power else math.floor(-flam - 1)
    # E is the edge of the inner plateau, where an exact function equals its
    # expansion; orders above jmax integrate over [0, E] in closed form.
    E = min(A, phi.exact_radius) if e.exact else 0.0
    orders = () if e.is_zero() else range(e.start, (max(jmax, e.top) if e.exact else jmax) + 1)

    series = []
    log_term: Number = Fraction(0)
    near_terms = []
    for j in orders:
        aj = e.coefficient(j)  # raises beyond the trust window
        cj = f.pair.plus * aj.plus + f.pair.minus * aj.minus
        if j > jmax:
            near_terms.append(float(cj) * E ** (flam + j + 1) / (flam + j + 1))
        elif not f.integral_power and flam + j + 1 == 0.0:
            raise MisclassifiedPowerError(
                f"power {lam!r} behaves as the integer {-j - 1} at order {j}; "
                "pass it as an exact int or Fraction"
            )
        elif f.integral_power and j == jmax:
            log_term = cj * math.log(A) if cj != 0 else Fraction(0)
        elif cj != 0:
            series.append((j, cj * A ** (lam + j + 1) / (lam + j + 1)))

    far_value, quad_error = integrate(_radial(phi, f.pair, flam), A, R,
                                      cfg.abs_tol, cfg.max_subdivisions)
    near_value = math.fsum(near_terms)
    if E < A:
        # the expansion-subtracted remainder between the plateau edge and A
        v, err = integrate(_radial(phi, f.pair, flam, e, jmax), E, A,
                           cfg.abs_tol, cfg.max_subdivisions)
        near_value += v
        quad_error += err

    value = far_value + near_value + math.fsum(float(v) for _, v in series) + float(log_term)
    return PairingResult(value, A, quad_error, tuple(series), log_term)


# -- finite part of a limit ----------------------------------------------------


@dataclass(frozen=True)
class FpFit:
    """Result of fitting F(eps) against divergent + convergent basis terms.

    ``finite_part`` is the coefficient of the constant; ``coefficients`` maps
    (exponent, log power) to the fitted coefficient of eps^exponent * ln^q eps.
    """

    finite_part: float
    residual: float
    condition: float
    coefficients: Dict[Tuple[Number, int], float]

    def __float__(self):
        return self.finite_part

    @property
    def log_coefficient(self) -> float:
        return self.coefficients.get((Fraction(0), 1), 0.0)


#: Condition-number ceiling for the scaled design matrix.
FIT_CONDITION_LIMIT = 1e14


def default_fit_powers(maxp: int) -> Tuple[Fraction, ...]:
    """Half-integer exponent ladder: divergent side down to -maxp, convergent
    side up through 2 (so fractional remainders are representable)."""
    return tuple(Fraction(k, 2) for k in range(-2 * maxp, 5))


def fp_limit(samples, basis_orders: Tuple[int, int] = (3, 1),
             powers=None) -> FpFit:
    """Finite part of lim F(eps) as eps -> 0+ by least squares.

    ``samples`` is a sequence of (eps, F(eps)) on a decreasing geometric
    grid.  The basis is {eps^e ln^q eps} with e over a half-integer ladder
    (or the explicit ``powers``) and q up to basis_orders[1]; the finite part
    is the fitted coefficient of the constant 1.  Rows are weighted by
    1/max(1, |F|) so that the hugely divergent samples do not drown the
    constant.
    """
    maxp, maxq = basis_orders
    if powers is None:
        exponents = default_fit_powers(maxp)
        log_exponents = tuple(e for e in exponents if e <= 0)
    else:
        exponents = []
        seen = set()
        for p in powers:
            p = _exact_exponent(p)
            if p not in seen:
                seen.add(p)
                exponents.append(p)
        if Fraction(0) not in seen and 0.0 not in seen:
            exponents.append(Fraction(0))
        log_exponents = (Fraction(0),)
    columns = [(e, 0) for e in exponents]
    columns += [(e, q) for e in log_exponents for q in range(1, maxq + 1)]
    columns.sort(key=lambda c: (float(c[0]), c[1]))

    samples = [(float(eps), float(val)) for eps, val in samples]
    if len(samples) < len(columns) + 2:
        raise ValueError(
            f"need at least {len(columns) + 2} samples for {len(columns)} "
            f"basis functions, got {len(samples)}"
        )
    eps = np.array([s[0] for s in samples])
    F = np.array([s[1] for s in samples])
    M = np.empty((len(samples), len(columns)))
    for k, (expo, q) in enumerate(columns):
        col = eps ** float(expo)
        if q:
            col = col * np.log(eps) ** q
        M[:, k] = col
    weights = 1.0 / np.maximum(1.0, np.abs(F))
    Mw = M * weights[:, None]
    Fw = F * weights
    norms = np.linalg.norm(Mw, axis=0)
    norms[norms == 0.0] = 1.0
    scaled = Mw / norms
    condition = float(np.linalg.cond(scaled))
    if condition > FIT_CONDITION_LIMIT:
        raise FitConditionError(
            f"condition {condition:.3g} exceeds {FIT_CONDITION_LIMIT:.0e}; "
            "basis orders do not match the data (or too few samples)"
        )
    sol, *_ = np.linalg.lstsq(scaled, Fw, rcond=None)
    coeffs = sol / norms
    residual = float(np.linalg.norm(Mw @ coeffs - Fw))
    table = {col: float(v) for col, v in zip(columns, coeffs)}
    const_key = next(c for c in columns if float(c[0]) == 0.0 and c[1] == 0)
    return FpFit(float(table[const_key]), residual, condition, table)


def _exact_exponent(p):
    if isinstance(p, (int, Fraction)):
        return Fraction(p)
    return float(p)


def fp_pair_oracle(f: PfDensity, phi: ThickTestFunction,
                   cfg: QuadratureConfig = DEFAULT_CONFIG,
                   n_extra: int = 8) -> FpFit:
    """Independent check of the density pairing via the finite part of a limit.

    F(eps) = integral of the density against phi over |x - a| >= eps is
    computed by quadrature (the test function evaluated through its body,
    never its expansion) on a decreasing geometric grid eps_0 > eps_1 > ...:
    [eps_0, R] and each slice [eps_(k+1), eps_k] are integrated once, and
    F(eps_k) is their running sum.  The finite part is then extracted by
    fp_limit.
    Only the *exponent set* of the fit is taken from the expansion orders;
    every coefficient comes out of the fit.
    """
    if not isinstance(f, PfDensity):
        raise TypeError("the finite-part oracle applies to density nodes only")
    if f.point != phi.point:
        raise PointMismatchError("oracle: thick points differ")
    lam = f.power
    flam = float(lam)
    e = phi.expansion
    R = phi.radius

    if e.exact:
        powers = []
        log_needed = False
        for j, _ in e.terms():
            p = lam + j + 1 if not isinstance(lam, float) else flam + j + 1
            if p == 0:
                log_needed = True
            else:
                powers.append(p)
        maxq = 1 if log_needed else 0
        n_cols = len(set(powers)) + 1 + maxq
    else:
        powers = None
        maxq = 1
        n_cols = len(default_fit_powers(3)) + 7

    integrand = _radial(phi, f.pair, flam)
    eps0 = min(phi.exact_radius, R) * 0.9
    count = n_cols + n_extra
    grid = [eps0 * 2.0 ** (-k / 2.0) for k in range(count)]
    pieces = [integrate(integrand, lo, hi, cfg.abs_tol, max(cfg.max_subdivisions, 4000))[0]
              for lo, hi in zip(grid, [R] + grid)]
    return fp_limit(list(zip(grid, accumulate(pieces))), basis_orders=(3, maxq), powers=powers)


# -- small helpers used by identity checks ---------------------------------------


def radial_integral(phi: ThickTestFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integral of phi over the line, evaluated as the two-sided radial sum."""
    value, _ = integrate(_radial(phi, ONE_PAIR, 0.0), 0.0, phi.radius,
                         cfg.abs_tol, cfg.max_subdivisions)
    return value


def axis_integral(phi: ThickTestFunction, cfg: QuadratureConfig = DEFAULT_CONFIG) -> float:
    """Integral of phi over the line, evaluated on the x axis directly."""
    a = float(phi.point)
    value, _ = integrate(lambda x: phi.evaluate(x), a - phi.radius, a + phi.radius,
                         cfg.abs_tol, cfg.max_subdivisions)
    return value
