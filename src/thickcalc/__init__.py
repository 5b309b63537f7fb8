"""thickcalc: a symbolic-numeric engine for one-dimensional thick distributions.

Test functions may be singular at one distinguished point while smooth
everywhere else; their local behaviour is an expansion over the two-point
sphere.  Distributions built from finite-part densities and two-sided deltas
pair against them through Hadamard finite-part formulas, with an independent
finite-part-of-the-limit oracle for cross-checking.
"""

from .sphere import (
    SpherePair,
    SphereDistribution,
    g_lambda,
    g_one,
    integrate_sphere,
    pair_sphere,
)
from .expansion import Expansion, add, differentiate, evaluate, from_taylor, multiply, render
from .testfn import (
    Multiplier,
    ThickTestFunction,
    derivative,
    dilate,
    from_polynomial,
    heaviside_multiplier,
    monomial_multiplier,
    multiply_by,
    plateau_bump,
    power_multiplier,
    seminorm,
    thick_monomial,
    translate,
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
    delta_star,
    g_lambda_delta,
    pf_heaviside,
    pf_power,
    pf_sign_power,
    project,
    simplify,
)
from .pairing import (
    PairingResult,
    QuadratureConfig,
    fp_limit,
    fp_pair_oracle,
    pair,
)
from .errors import (
    DslError,
    FitConditionError,
    InsufficientOrderError,
    MisclassifiedPowerError,
    NonFiniteError,
    OrdinaryFunctionRequiredError,
    PointMismatchError,
    QuadratureError,
    ThickCalcError,
)

__version__ = "0.1.0"
