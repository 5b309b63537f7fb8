"""Pairing evaluation: the finite-part formulas and their independent oracle.

The distribution/test-function pairing dispatches on the distribution tree,
combining sub-results through ``PairingResult.scaled`` and ``+``, with the
rules ``simplify`` applies: a multiplier moves onto a density or a delta
(``distributions.multiplier_rule``), and d* onto a density, a delta, a
combination or a multiplier product (``distributions.derivative_rule``), so
d*^k (psi Pf) is paired as densities and deltas against the undifferentiated
test function.  A thick delta reads one expansion coefficient.  A
finite-part density c(w) r^lambda splits at a radius A: the far field
[A, R]; an analytic series term c_j A^(lambda+j+1)/(lambda+j+1) for each
order j through -Re(lambda)-1 (a log A term at the integer boundary order);
closed-form terms c_j E^(lambda+j+1)/(lambda+j+1) for the higher orders on
the inner plateau [0, E] (phi = its expansion); and the expansion-subtracted
remainder on [E, A].  A term with one plain cutoff, p(w) r^j S(2 -
2r/rho), takes its share of the far field and the remainder in closed form,
through powers of r and the ramp moment m(lambda + j) of the cutoff
(``ramp_moment``); a term with one cutoff derivative, which lives on the
ramp alone, takes m(lambda + j - n) after n integrations by parts
(``ramp_derivative_moment``).  A same-radius product S^2, or S S' =
(S^2)'/2, does the same through the square moment (``ramp_square_moment``).
The other terms (S' S', S S'', products of overlapping radii) go through
adaptive quadrature.  The split radius is arbitrary; A-independence is one
of the main correctness checks.

``fp_pair_oracle`` reaches the same number along a completely different
route: it truncates the integral at epsilon, sweeps epsilon down a geometric
grid, and extracts the finite part of the limit by fitting the divergent
terms away (``fp_limit``).  Given several densities at once, it evaluates
the test function (``ThickTestFunction.radial``) once per node for all of them.

Between calls the module keeps only the ramp moments, cached per exponent;
the oracle's samples of the test function live as long as one call.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Dict, List, Optional, Tuple, Union

from .errors import (
    FitConditionError,
    MisclassifiedPowerError,
    NonFiniteError,
    OrdinaryFunctionRequiredError,
    PointMismatchError,
    QuadratureError,
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
    derivative_rule,
    multiplier_rule,
)
from .expansion import partial_sum
from .quadrature import fsum, integrate
from .sphere import FrozenRecord, SpherePair, number_text, ratio
from .testfn import ThickTestFunction, derivative, dilate, multiply_by, translate


class QuadratureConfig(FrozenRecord):
    __slots__ = ("abs_tol", "split_radius")

    def __init__(self, abs_tol: float = 1e-10, split_radius: float = 1.0):
        if not 0 < abs_tol < math.inf:
            raise ValueError("abs_tol must be positive and finite")
        if not 0 < split_radius < math.inf:
            raise ValueError("split_radius must be positive and finite")
        object.__setattr__(self, "abs_tol", abs_tol)
        object.__setattr__(self, "split_radius", split_radius)


DEFAULT_CONFIG = QuadratureConfig()

Number = Union[Fraction, float]


class PairingResult(FrozenRecord):
    """A pairing's value with the stages of its finite-part formula.  An exact
    value (a delta pairing: half its weighted sum over the sphere) is a
    Fraction, any other value a float."""

    __slots__ = ("value", "split_radius", "quad_error", "series_terms", "log_term")

    def __init__(self, value: Number, split_radius: Optional[float], quad_error: float,
                 series_terms: Tuple[Tuple[int, Number], ...] = (), log_term: Number = 0):
        if not math.isfinite(float(value)):
            raise NonFiniteError("pairing produced a non-finite value")
        if quad_error < 0:
            raise ValueError("error estimate cannot be negative")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "split_radius", split_radius)
        object.__setattr__(self, "quad_error", quad_error)
        object.__setattr__(self, "series_terms", series_terms)
        object.__setattr__(self, "log_term", log_term)

    def scaled(self, k) -> "PairingResult":
        """k times this pairing, every stage scaled alike."""
        return PairingResult(k * self.value, self.split_radius, abs(float(k)) * self.quad_error,
                             tuple((j, k * v) for j, v in self.series_terms), k * self.log_term)

    def __add__(self, other: "PairingResult") -> "PairingResult":
        split = self.split_radius if self.split_radius is not None else other.split_radius
        return PairingResult(self.value + other.value, split, self.quad_error + other.quad_error,
                             self.series_terms + other.series_terms,
                             self.log_term + other.log_term)


def _radial(radial, radius: float, pair: SpherePair, flam: float, subtract=()):
    """The two-sided radial integrand r^flam * sum_w pair(w) * (phi(w r) -
    sum_j a_j(w) r^j) over the orders (j, a_j) in ``subtract``, reading the
    function through ``radial`` (``ThickTestFunction.radial`` or a memo of
    it); the function is zero from ``radius`` on."""
    cp, cm = float(pair.plus), float(pair.minus)
    sub_p = [(j, float(a.plus)) for j, a in subtract]
    sub_m = [(j, float(a.minus)) for j, a in subtract]

    def integrand(r):
        vp, vm = radial(r) if r < radius else (0.0, 0.0)
        acc = 0.0
        if cp:
            if sub_p:
                vp -= partial_sum(sub_p, r)
            acc += cp * vp
        if cm:
            if sub_m:
                vm -= partial_sum(sub_m, r)
            acc += cm * vm
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
        if isinstance(f, LinearCombination):
            # each term checks its own point, so the zero distribution pairs
            # anywhere; from the exact zero, so that exact pairings sum exactly
            return sum((pair(d, phi, cfg).scaled(c) for c, d in f.terms),
                       PairingResult(Fraction(0), None, 0.0))
        if f.point != phi.point:
            raise PointMismatchError(
                f"distribution at {number_text(f.point)} paired with test function "
                f"at {number_text(phi.point)}"
            )
        if isinstance(f, ThickDelta):
            # half the weighted sum of the degree-q coefficient over the sphere
            w, a = f.weights, phi.expansion.coefficient(f.degree)
            return PairingResult(Fraction(w.plus * a.plus + w.minus * a.minus, 2), None, 0.0)
        if isinstance(f, PfDensity):
            return _pair_density(f, phi, cfg)
        if isinstance(f, Derivative):
            # d*g takes g's derivative rule when it has one; anything else (a
            # translate, a dilate) pairs as <d*g, phi> = -<g, phi'>
            if (moved := derivative_rule(f.inner)) is not None:
                return pair(moved, phi, cfg)
            return pair(f.inner, derivative(phi), cfg).scaled(-1)
        if isinstance(f, MultiplierProduct):
            if (moved := multiplier_rule(f)) is not None:
                return pair(moved, phi, cfg)
            return pair(f.inner, multiply_by(f.multiplier, phi), cfg)
        if isinstance(f, Translate):
            return pair(f.inner, translate(phi, f.shift), cfg)
        if isinstance(f, Dilate):
            return pair(f.inner, dilate(phi, f.factor), cfg).scaled(ratio(1, abs(f.factor)))
        raise TypeError(f"cannot pair object of type {type(f).__name__}")
    except OverflowError:
        raise NonFiniteError("float overflow during evaluation") from None


def _pair_density(f: PfDensity, phi: ThickTestFunction, cfg: QuadratureConfig) -> PairingResult:
    lam = f.power
    flam = float(lam)
    e = phi.expansion
    R = phi.radius
    A = cfg.split_radius if cfg.split_radius < R else R / 2
    jmax = -lam - 1 if f.integral_power else math.floor(-flam - 1)
    # E is the edge of the inner plateau, where the function equals its
    # expansion; orders above jmax integrate over [0, E] in closed form.
    E = min(A, phi.exact_radius)
    orders = () if e.is_zero() else range(e.start, e.top + 1)
    # the orders above e.top have no coefficient, so of those through jmax
    # only the one where a float power can behave as an integer is visited
    near = round(-flam) - 1
    if orders and not f.integral_power and e.top < near <= jmax:
        orders = (*orders, near)

    series = []
    log_term: Number = 0
    closed = []  # the closed-form parts of the near field and of the plain cutoff terms
    for j in orders:
        aj = e.coefficient(j)
        cj = f.pair.plus * aj.plus + f.pair.minus * aj.minus
        if j > jmax:
            closed.append(float(cj) * E ** (flam + j + 1) / (flam + j + 1))
        elif not f.integral_power and flam + j + 1 == 0.0:
            raise MisclassifiedPowerError(
                f"power {lam!r} behaves as the integer {-j - 1} at order {j}; "
                "pass it as an exact int or Fraction"
            )
        elif f.integral_power and j == jmax:
            log_term = cj * math.log(A) if cj != 0 else 0
        elif cj != 0:
            series.append((j, cj * A ** (lam + j + 1) / (lam + j + 1)))

    # A plain cutoff term p(w) r^j S(2 - 2r/rho) takes
    # its far field and near remainder in closed form: the integral of r^mu,
    # mu = lambda + j, from E (from A, net of its own expansion, when j <=
    # jmax) to rho/2, plus rho^(mu+1) times the ramp moment m(mu).  A term
    # with the n-th cutoff derivative instead lives on the ramp alone, where n
    # integrations by parts take it to m(mu - n).  S^2 and S S' = (S^2)'/2
    # do the same with the square moment.  The other products of cutoffs form
    # the rest, integrated with the rest of the expansion subtracted.
    rest, quad_error = [], 0.0
    for term in phi.terms:
        factors, j, p = term
        mu = flam + j
        # E <= exact_radius <= rho/2, so the ramp lies beyond the plateau
        shape = _ramp_shape(factors)
        if shape is None or not (shape[0] <= R and abs(mu - shape[1]) <= MOMENT_RANGE):
            rest.append(term)
            continue
        rho, n, moment, weight = shape
        # the n-th derivative at -r is (-1)^n times the one at r
        c = weight * float(f.pair.plus * p.plus + (-1) ** n * (f.pair.minus * p.minus))
        if n:
            g, err = ramp_derivative_moment(mu, n, rho, moment)
            closed.append(c * g)
            quad_error += abs(c) * err
            continue
        m, tail = moment(mu)
        scale = rho ** (mu + 1)
        closed.append(c * (_power_integral(mu, A if j <= jmax else E, rho / 2) + scale * m))
        quad_error += abs(c) * scale * _moment_error(mu, tail)
    left = phi if len(rest) == len(phi.terms) else ThickTestFunction(tuple(rest), phi.point, R)

    # each of the two integrals gets half the tolerance, so that their summed
    # estimate can meet the whole of it
    far_value, tol = 0.0, cfg.abs_tol / 2
    if left.terms:
        far_value, err = integrate(_radial(left.radial, R, f.pair, flam), A, R, tol)
        quad_error += err
    near_value = fsum(closed)
    if E < A and left.terms:
        # the remainder between the plateau edge and A, net of the rest's own
        # expansion through jmax (a tuple: _radial reads it twice)
        subtract = tuple(left.expansion.truncate(jmax).terms())
        v, err = integrate(_radial(left.radial, R, f.pair, flam, subtract), E, A, tol)
        near_value += v
        quad_error += err

    value = far_value + near_value + fsum(float(v) for _, v in series) + float(log_term)
    # a non-finite value is refused first; then, as the stages can cancel,
    # the sum is held to the rule integrate applies to its own result
    result = PairingResult(value, A, quad_error, tuple(series), log_term)
    if quad_error > max(cfg.abs_tol, abs(value) * 1e-13):
        raise QuadratureError(
            f"tolerance {cfg.abs_tol:g} not reached: pairing value {value:.6g} "
            f"has error estimate {quad_error:g}"
        )
    return result


# -- closed-form ramp moments ------------------------------------------------------
#
# On its ramp [rho/2, rho] the plain cutoff S(2 - 2r/rho) against r^mu gives
# rho^(mu+1) m(mu), with one universal moment function
#
#     m(mu) = integral over [1/2, 1] of u^mu S(2 - 2u) du.
#
# S(t) + S(1 - t) = 1 makes S(2 - 2u) - 1/2 odd about u = 3/4, so only the odd
# powers of the binomial series of u^mu = (3/4 + v)^mu survive against it:
#
#     m(mu) = 1/2 integral over [1/2, 1] of u^mu du
#             - sum over odd k of C(mu, k) (3/4)^(mu-k) H_k,
#     H_k = 2 integral over [0, 1/4] of v^k (S(1/2 + 2v) - 1/2) dv.
#
# For a product of two cutoffs of one radius, S^2 = S - 1/4 + T^2 with
# T = S(2 - 2u) - 1/2, and T^2 is even about u = 3/4, so the square moment is
#
#     m_2(mu) = integral over [1/2, 1] of u^mu S(2 - 2u)^2 du
#             = m(mu) - 1/4 integral over [1/2, 1] of u^mu du
#               + sum over even k of C(mu, k) (3/4)^(mu-k) K_k,
#     K_k = 2 integral over [0, 1/4] of v^k (S(1/2 + 2v) - 1/2)^2 dv.

#: H_1, H_3, ..., H_81, computed once with mpmath at 40 digits (tanh-sinh
#: quadrature); the tests recompute them.
_RAMP_H = (
    2.7885161228614722771e-2, 9.5205067149535034612e-4, 4.0373020589766871521e-5,
    1.9019139619348943799e-6, 9.5256553886451061677e-8, 4.9645005029447084179e-9,
    2.660278224220663119e-10, 1.4550175580757086478e-11, 8.0838994872749810248e-13,
    4.5473241605069675501e-14, 2.5837451464146825423e-15, 1.4802823074307039385e-16,
    8.5401270019425872573e-18, 4.9563356706507882841e-19, 2.891199808012482139e-20,
    1.6940637576010671695e-21, 9.9650857226450479733e-23, 5.8821703674947292338e-24,
    3.4828646553859036047e-25, 2.0679511188654815836e-26, 1.230923371168196612e-27,
    7.3435772576706165165e-29, 4.3901821822779101997e-30, 2.6295362520459739768e-31,
    1.5777217705801727404e-32, 9.4815011021650733764e-34, 5.7064590276452770189e-35,
    3.4391605872622722327e-36, 2.0753555319381806995e-37, 1.253860636000743783e-38,
    7.5838345007601493198e-40, 4.5917747990761779327e-41, 2.7828938191798589309e-42,
    1.6881525012668317377e-43, 1.0249497331945708285e-44, 6.2279931716675860761e-46,
    3.7872931454579749771e-47, 2.3047672104575484003e-48, 1.4035441346732149762e-49,
    8.5528470711027879094e-51, 5.2151506533046951436e-52,
)

#: K_0, K_2, ..., K_80, computed the same way.
_RAMP_K = (
    7.7852626386675717309e-2, 2.3877898963271550266e-3, 9.5245408035698055222e-5,
    4.3216696358948649622e-6, 2.1119589674297521213e-7, 1.0821066199035758391e-8,
    5.7272835143163854899e-10, 3.1033744008741336721e-11, 1.7117008443901461312e-12,
    9.5727779563774919915e-14, 5.4133979695615741618e-15, 3.0892332043059009713e-16,
    1.7763295723618605454e-17, 1.0279750776309718619e-18, 5.9817732483349621103e-20,
    3.4974151041406787147e-21, 2.0534091452590889155e-22, 1.2100455768877303176e-23,
    7.153988924591250466e-25, 4.2419497524009263326e-26, 2.5218913023951986013e-27,
    1.502871437806152115e-28, 8.9754828389391971644e-30, 5.3709673726764921871e-31,
    3.219840231441200055e-32, 1.933482530465609048e-33, 1.1628255938867359308e-34,
    7.0033814800195877848e-36, 4.2235305232033044604e-37, 2.5502250085519425858e-38,
    1.5416319254739864914e-39, 9.3293202019510493742e-41, 5.6514151299143207525e-42,
    3.4266976099647337768e-43, 2.0796081523408354337e-44, 1.2631422762148695565e-45,
    7.6783477432127249296e-47, 4.6709948782147625757e-48, 2.843543960428821509e-49,
    1.7322221912928223714e-50, 1.0559070457102375994e-51,
)

#: The |mu| the series serves; outside it a term stays on quadrature.
MOMENT_RANGE = 24

#: Exponents each moment cache keeps (an eval-mix pass asks for 44).
MOMENT_CACHE_SIZE = 512


def _ramp_series(mu: float, k0: int, table) -> Tuple[float, float]:
    """(the sum over k = k0, k0 + 2, ... of C(mu, k) (3/4)^(mu-k) c_k for the
    coefficients c_k in ``table``, a bound on the terms left out)."""
    b = mu * (4.0 / 3.0) if k0 else 1.0  # C(mu, k) (4/3)^k at k = k0
    terms = []
    for k, c in zip(range(k0, 83, 2), table):
        terms.append(b * c)
        b *= (mu - k) * (mu - k - 1) / ((k + 1) * (k + 2)) * (16.0 / 9.0)
    scale = 0.75 ** mu
    # H_k and K_k are below 4^-(k+1) / (k+1), so the first omitted term,
    # k = k0 + 82, is below |b| (3/4)^mu 4^-(k+1) / (k+1), and each later one
    # below a fifth of the one before it while |mu| <= 24
    return scale * math.fsum(terms), 2.0 * abs(b) * scale * 4.0 ** -(k0 + 83) / (k0 + 83)


@lru_cache(maxsize=MOMENT_CACHE_SIZE)
def ramp_moment(mu: float) -> Tuple[float, float]:
    """(m(mu), a bound on the series terms left out) for |mu| <= MOMENT_RANGE.

    Cached by the value of mu (0.0 and -0.0 share an entry); the series is
    always summed at float(mu), so an entry holds the same bits whatever type
    of number filled it.  The uncached function is ``ramp_moment.__wrapped__``."""
    mu = float(mu)
    odd, tail = _ramp_series(mu, 1, _RAMP_H)
    return 0.5 * _power_integral(mu, 0.5, 1.0) - odd, tail


@lru_cache(maxsize=MOMENT_CACHE_SIZE)
def ramp_square_moment(mu: float) -> Tuple[float, float]:
    """(m_2(mu), a bound on the series terms left out) for |mu| <= MOMENT_RANGE,
    cached like ``ramp_moment``."""
    mu = float(mu)
    m, tail = ramp_moment(mu)
    even, even_tail = _ramp_series(mu, 0, _RAMP_K)
    return m - 0.25 * _power_integral(mu, 0.5, 1.0) + even, tail + even_tail


def _moment_error(mu: float, tail: float) -> float:
    """The series tail plus the accuracy the tests measure for m and m_2 over
    |mu| <= 24: 1e-15 of the integral of u^mu over the ramp."""
    return tail + 1e-15 * _power_integral(mu, 0.5, 1.0)


def _ramp_shape(factors):
    """(rho, n, moment, weight) when the cutoff factors of a term are weight
    times the n-th derivative of S or of S^2 at one radius rho: S^(n), S S =
    S^2 or S S' = (S^2)'/2.  None for any other product."""
    if len(factors) == 1:
        return factors[0] + (ramp_moment, 1.0)
    if len(factors) == 2 and factors[0] == (factors[1][0], 0) and factors[1][1] <= 1:
        return factors[1] + (ramp_square_moment, 0.5 if factors[1][1] else 1.0)
    return None


# The n-th cutoff derivative, (d/dr)^n S(2 - 2r/rho), is zero off the ramp
# and all its lower derivatives vanish at r = rho, so integration by parts
# against r^mu gives
#
#     G_1(mu) = integral over [rho/2, rho] of r^mu (d/dr) S(2 - 2r/rho) dr
#             = -(rho/2)^mu - mu rho^mu m(mu - 1),
#     G_n(mu) = -mu G_(n-1)(mu - 1)  for n >= 2,
#
# where the boundary term at rho/2 is S(1) = 1 for n = 1 and a vanishing
# derivative of S otherwise.  The same holds for S^2 with m_2 in place of m.


def ramp_derivative_moment(mu: float, n: int, rho: float,
                           moment=ramp_moment) -> Tuple[float, float]:
    """(G_n(mu), an error bound) for n >= 1 and |mu - n| <= MOMENT_RANGE;
    ``moment`` is ``ramp_moment`` for S or ``ramp_square_moment`` for S^2."""
    nu = mu - n + 1
    m, tail = moment(nu - 1)
    a, b = -(0.5 ** nu), -nu * m
    k = rho ** nu
    for i in range(1, n):
        k *= -(mu - i + 1)
    # the error of the moment and the rounding of a + b, which cancels for
    # large negative nu
    err = abs(nu) * _moment_error(nu - 1, tail) + 4 * math.ulp(abs(a) + abs(b))
    return k * (a + b), abs(k) * err


def _power_integral(mu: float, a: float, b: float) -> float:
    """The integral of r^mu over [a, b] for a, b > 0, through expm1 of a
    non-positive argument, so that mu next to -1 keeps its digits and no
    intermediate overflows."""
    if a > b:
        return -_power_integral(mu, b, a)
    p = mu + 1
    if p == 0:
        return _log_quotient(b, a)
    if p > 0:
        return -(b ** p) * math.expm1(p * _log_quotient(a, b)) / p
    return a ** p * math.expm1(p * _log_quotient(b, a)) / p


def _log_quotient(x: float, y: float) -> float:
    """log(x / y) for x, y > 0, also where x / y leaves the float range."""
    q = x / y
    return math.log(q) if 0 < q < math.inf else math.log(x) - math.log(y)


# -- finite part of a limit ----------------------------------------------------


class FpFit(FrozenRecord):
    """Result of fitting F(eps) against divergent + convergent basis terms.

    ``finite_part`` is the coefficient of the constant; ``coefficients`` maps
    each column (exponent, log power) of ``fit_columns`` to the fitted
    coefficient of eps^exponent * ln^q eps.
    """

    __slots__ = ("finite_part", "residual", "coefficients")

    def __init__(self, finite_part: float, residual: float,
                 coefficients: Dict[Tuple[Number, int], float]):
        object.__setattr__(self, "finite_part", finite_part)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "coefficients", coefficients)


#: Ceiling for the condition bound of the scaled design matrix.
FIT_CONDITION_LIMIT = 1e14


def fit_columns(powers=None) -> List[Tuple[Number, int]]:
    """The basis {eps^e ln^q eps} of the fit as (e, q) pairs, sorted by e, then q.

    With no ``powers``, the half-integer ladder e = -3, -5/2, ..., 2 (down to
    the divergence the power-ladder checks reach, and up far enough that a
    fractional remainder is representable) and ln eps times each e <= 0.
    With a sequence of ``powers``, those exponents (ints and Fractions kept
    exact), the constant, and ln eps when one of them is 0.
    """
    if powers is None:
        exponents = [Fraction(k, 2) for k in range(-6, 5)]
        logs = [e for e in exponents if e <= 0]
    else:
        exponents = [Fraction(0)]  # first, so that the constant's key stays exact
        for p in powers:
            p = Fraction(p) if isinstance(p, (int, Fraction)) else float(p)
            if p not in exponents:
                exponents.append(p)
        logs = [Fraction(0)] if 0 in powers else []
    return sorted([(e, 0) for e in exponents] + [(e, 1) for e in logs],
                  key=lambda c: (float(c[0]), c[1]))


def fp_limit(samples, powers=None) -> FpFit:
    """Finite part of lim F(eps) as eps -> 0+ by least squares.

    ``samples`` is a sequence of (eps, F(eps)) on a decreasing geometric
    grid.  The basis is ``fit_columns(powers)``; the finite part is the
    fitted coefficient of the constant 1.  Rows are weighted by
    1/max(1, |F|) so that the hugely divergent samples do not drown the
    constant.  The fit is refused (``FitConditionError``) when the bound
    ||R||_F ||R^-1||_F of the triangular factor of the column-scaled design
    matrix is above ``FIT_CONDITION_LIMIT``.
    """
    columns = fit_columns(powers)
    samples = [(float(eps), float(val)) for eps, val in samples]
    if not all(0.0 < e < math.inf and math.isfinite(v) for e, v in samples):
        raise ValueError("samples need finite values at finite eps > 0")
    if len(samples) < len(columns) + 2:
        raise ValueError(
            f"need at least {len(columns) + 2} samples for {len(columns)} "
            f"basis functions, got {len(samples)}"
        )
    # column-major: Mw[k] is column k, weighted row by row
    weights = [1.0 / max(1.0, abs(val)) for _, val in samples]
    Mw = [[e ** float(expo) * (math.log(e) ** q if q else 1.0) * w
           for (e, _), w in zip(samples, weights)] for expo, q in columns]
    Fw = [val * w for (_, val), w in zip(samples, weights)]
    norms = [math.hypot(*col) or 1.0 for col in Mw]
    R, qtb = _householder_qr([[x / n for x in col] for col, n in zip(Mw, norms)], Fw)
    bound = _condition_bound(R)
    if not bound <= FIT_CONDITION_LIMIT:  # a NaN bound is refused too
        raise FitConditionError(
            f"condition bound {bound:.3g} exceeds {FIT_CONDITION_LIMIT:.0e}; "
            "the basis does not match the data (or too few samples)"
        )
    coeffs = [x / n for x, n in zip(_back_substitute(R, qtb), norms)]
    residual = math.hypot(*(_dot(row, coeffs) - f for row, f in zip(zip(*Mw), Fw)))
    table = dict(zip(columns, coeffs))
    return FpFit(table[(Fraction(0), 0)], residual, table)


def _dot(u, v) -> float:
    return math.fsum(map(mul, u, v))  # correctly rounded, so the same on every Python


def _householder_qr(cols: List[List[float]], b: List[float]):
    """Householder QR of the m x n matrix given by its columns (Golub & Van
    Loan, *Matrix Computations*, 5.2): returns the columns of the n x n
    factor R and Q^T b."""
    cols = [col[:] for col in cols]
    b = b[:]
    for k, x in enumerate(cols):
        alpha = -math.copysign(math.hypot(*x[k:]), x[k])  # v[0] does not cancel
        if alpha == 0.0:
            continue
        v = x[k:]
        v[0] -= alpha
        beta = 2.0 / _dot(v, v)
        for y in cols[k + 1:] + [b]:
            s = beta * _dot(v, y[k:])
            y[k:] = [yi - s * vi for yi, vi in zip(y[k:], v)]
        x[k:] = [alpha] + [0.0] * (len(x) - k - 1)
    n = len(cols)
    return [col[:n] for col in cols], b[:n]


def _condition_bound(R: List[List[float]]) -> float:
    """||R||_F ||R^-1||_F for the upper-triangular R given by its columns: at
    least the 2-norm condition and at most n times it.  R^-1 takes one
    triangular solve per column; a zero on the diagonal gives inf."""
    n = len(R)
    if not all(R[i][i] for i in range(n)):
        return math.inf
    inverse = [x for k in range(n) for x in _back_substitute(R, [0.0] * k + [1.0])]
    return math.hypot(*(x for col in R for x in col)) * math.hypot(*inverse)


def _back_substitute(R: List[List[float]], y: List[float]) -> List[float]:
    """Solve R x = y for upper-triangular R given by its columns."""
    x = [0.0] * len(y)
    for i in reversed(range(len(y))):
        x[i] = (y[i] - _dot((R[j][i] for j in range(i + 1, len(y))), x[i + 1:])) / R[i][i]
    return x


def fp_pair_oracle(f, phi: ThickTestFunction, cfg: QuadratureConfig = DEFAULT_CONFIG):
    """Independent check of the density pairing via the finite part of a limit.

    F(eps) = integral of the density against phi over |x - a| >= eps is
    computed by quadrature (the test function evaluated through its terms,
    never its expansion) on a decreasing geometric grid eps_0 > eps_1 > ...
    of eight samples more than the fit has columns: [eps_0, R] and each slice
    [eps_(k+1), eps_k] are integrated once, and F(eps_k) is their running
    sum.  The finite part is then extracted by fp_limit against the powers
    lambda + j + 1 of the expansion orders j.
    Only the *exponent set* of the fit is taken from the expansion orders;
    every coefficient comes out of the fit.

    ``f`` is one ``PfDensity``, which gives one ``FpFit``, or a list or
    tuple of them, which gives their fits as a list, in order.  The densities
    of one call share the samples: each node r is evaluated once, into a
    cache that lives as long as the call.  Each fit is otherwise computed alone
    (its own integrand, grid, quadrature and fit), so it is bit-identical to
    the fit of a one-density call.
    """
    densities = f if isinstance(f, (list, tuple)) else (f,)
    for g in densities:
        if not isinstance(g, PfDensity):
            raise TypeError("the finite-part oracle applies to density nodes only")
        if g.point != phi.point:
            raise PointMismatchError("oracle: thick points differ")
    radial = lru_cache(maxsize=None)(phi.radial)
    R = phi.radius
    eps0 = min(phi.exact_radius, R) * 0.9
    fits = []
    for g in densities:
        powers = [g.power + j + 1 for j, _ in phi.expansion.terms()]
        integrand = _radial(radial, R, g.pair, float(g.power))
        grid = [eps0 * 2.0 ** (-k / 2.0) for k in range(len(fit_columns(powers)) + 8)]
        pieces = [integrate(integrand, lo, hi, cfg.abs_tol, 4000)[0]
                  for lo, hi in zip(grid, [R] + grid)]
        fits.append(fp_limit(list(zip(grid, accumulate(pieces))), powers))
    return fits if densities is f else fits[0]
