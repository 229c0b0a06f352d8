"""Numerical laboratory for radial Schrodinger heat flows in Lorentz spaces.

Solve positive harmonic profiles of inverse-square-type radial potentials,
flow mode data under the associated heat semigroups, and measure how fast
derivative norms decay between Lorentz spaces, against closed-form and
envelope predictions.
"""

__version__ = "0.1.0"

from .params import (  # noqa: F401
    INF,
    LambdaMembershipError,
    LorentzParams,
    RadialProfile,
    holder_conjugate,
    power_membership,
    unit_ball_volume,
)
from .spectral import (  # noqa: F401
    ExponentTable,
    PotentialSpec,
    a_exponents,
    check_nonnegativity,
    classify_criticality,
    eigenspace_dimension,
    exponent_table,
    lambda_star,
    omega,
)
from .harmonic import (  # noqa: F401
    HarmonicProfile,
    ProfileSet,
    derivative_h,
    fit_asymptotic_constant,
    gamma_ratio,
    solve_h,
)
from .iterated import (  # noqa: F401
    IteratedIntegral,
    apply_I,
    envelope_nabla_J,
    iterate_I,
)
from .semigroup import (  # noqa: F401
    ModeState,
    build_test_family,
    evolve_mode,
    operator_norm_sweep,
    radial_derivative,
)
from .rates import (  # noqa: F401
    CaseTag,
    RateEstimate,
    RatePrediction,
    classify_cases,
    consistency_check_free_rate,
    fit_rate,
    free_exponent,
    lower_envelope,
    phi_alpha,
    closed_form_rate,
    upper_envelope_J,
)
