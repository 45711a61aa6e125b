"""bellhv: hidden-variable polarizer transmission and Bell-operator bounds.

A numerical laboratory with two halves that meet in the middle:

* transmission / montecarlo / malusfit: a local stochastic model of photon
  pairs passing polarizers, its cosine-squared intensity curve, and CHSH
  estimators with and without coincidence post-selection;
* bell / linalg: finite-dimensional Bell operators and the three
  commutation-dependent expectation limits 2, 2*sqrt(2), 2*sqrt(3).

Shared plumbing lives in quadrature, optimize, rng, angles, and errors.
"""

from .angles import degrees_grid, reduce_axis_angle, require_deviation_angle
from .bell import (
    BB_DAGGER_LIMITS,
    EXPECTATION_LIMITS,
    BellScenario,
    BoundReport,
    HermitianOperator,
    Regime,
    bb_dagger_expectation,
    bell_operator,
    canonical_chsh_scenario,
    chsh_square_identity_check,
    classical_bound_bruteforce,
    max_expectation,
    random_commuting_involutory_scenario,
    search_bound,
)
from .errors import (
    AngleDomainError,
    BellhvError,
    DegenerateModelError,
    DimensionError,
    HermiticityError,
    ParameterError,
    QuadratureConvergenceError,
    RegimeError,
)
from .linalg import (
    EigenExtremes,
    numerical_radius,
    symmetric_extreme_eigen,
)
from .malusfit import FIT_QUADRATURE, FIT_SEARCH, FitResult, fit, residual
from .montecarlo import (
    CANONICAL_ANGLES,
    ChshAngles,
    ChshEstimate,
    CoincidenceCounts,
    ExperimentConfig,
    all_events_correlation,
    chsh_all_events,
    chsh_estimates,
    chsh_post_selected,
    coincidence_probability_estimate,
    expected_coincidence_probability,
    post_selected_correlation,
    run_pairs,
)
from .optimize import MinimizeResult, minimize
from .quadrature import DEFAULT_QUADRATURE, QuadratureSpec, integrate
from .rng import RngStream, SearchConfig
from .transmission import (
    REFERENCE_PARAMS,
    ConstantModel,
    CosineSquaredModel,
    StretchedExponentialModel,
    TabulatedModel,
    TransmissionModel,
    TransmissionParams,
    default_angle_grid,
    intensity_ratio,
    malus,
    normalized_pair_curve,
    p1,
    pair_transmission,
)

__version__ = "0.1.0"

__all__ = [
    "AngleDomainError",
    "BB_DAGGER_LIMITS",
    "BellScenario",
    "BellhvError",
    "BoundReport",
    "CANONICAL_ANGLES",
    "ChshAngles",
    "ChshEstimate",
    "CoincidenceCounts",
    "ConstantModel",
    "CosineSquaredModel",
    "DEFAULT_QUADRATURE",
    "DegenerateModelError",
    "DimensionError",
    "EXPECTATION_LIMITS",
    "EigenExtremes",
    "ExperimentConfig",
    "FIT_QUADRATURE",
    "FIT_SEARCH",
    "FitResult",
    "HermitianOperator",
    "HermiticityError",
    "MinimizeResult",
    "ParameterError",
    "QuadratureConvergenceError",
    "QuadratureSpec",
    "REFERENCE_PARAMS",
    "Regime",
    "RegimeError",
    "RngStream",
    "SearchConfig",
    "StretchedExponentialModel",
    "TabulatedModel",
    "TransmissionModel",
    "TransmissionParams",
    "all_events_correlation",
    "bb_dagger_expectation",
    "bell_operator",
    "canonical_chsh_scenario",
    "chsh_all_events",
    "chsh_estimates",
    "chsh_post_selected",
    "chsh_square_identity_check",
    "classical_bound_bruteforce",
    "coincidence_probability_estimate",
    "default_angle_grid",
    "degrees_grid",
    "expected_coincidence_probability",
    "fit",
    "intensity_ratio",
    "integrate",
    "malus",
    "max_expectation",
    "minimize",
    "normalized_pair_curve",
    "numerical_radius",
    "p1",
    "pair_transmission",
    "post_selected_correlation",
    "random_commuting_involutory_scenario",
    "reduce_axis_angle",
    "require_deviation_angle",
    "residual",
    "run_pairs",
    "search_bound",
    "symmetric_extreme_eigen",
    "__version__",
]
