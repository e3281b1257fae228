"""Normalized-solution solvers for linearly coupled Choquard systems.

Computes mass-constrained ground states (subcritical exponents) and
mountain-pass saddle points (supercritical exponents, equal powers) of the
coupled nonlocal energy, extracts the Lagrange multipliers, and checks the
dilation and multiplier identities the critical points must satisfy.
"""

from .errors import (
    AlphaOutOfRange,
    BetaTooLarge,
    ChoquardError,
    DilationOutOfBox,
    GeometryFailed,
    GridMismatch,
    ModeMismatch,
    NegativeInput,
    NoDescentStep,
    NoInteriorMax,
    NonFinite,
    NotConverged,
    NotSubcritical,
    NotSupercritical,
    RangeError,
    SchemaError,
    Stalled,
    TooLarge,
    ZeroMass,
)
from .grid import (
    GridSpec,
    ScalarField,
    StatePair,
    dilate,
    from_callable,
    gaussian_field,
    grad_norm_sq,
    inner,
    l2_norm_sq,
    neg_laplacian,
    radial_profile,
    rearrange_radial_decreasing,
    zero_field,
)
from .riesz import RieszConvolver, build_convolver, riesz_convolve, riesz_convolve_oracle
from .model import (
    CouplingSpec,
    ModelParams,
    PotentialSpec,
    Regime,
    classify,
    critical_exponent,
    c_xi_eta,
    delta_p,
    gamma_p,
    gn_gaussian_quotient,
    h_function,
    h_thresholds,
    hls_sharp_constant,
    nonlocal_bound_constant,
    upper_exponent,
    validate_coupling,
    validate_potential,
)
from .energy import (
    EnergyBreakdown,
    Multipliers,
    el_gradient,
    energy_total,
    lagrange_multipliers,
    multiplier_sum_identity,
    nonlocal_B,
    pohozaev_residual,
)
from .flow import (
    FlowOptions,
    ScanTable,
    SolveReport,
    mass_scan,
    minimize_normalized,
    project_masses,
    scalar_ground_state,
)
from .saddle import (
    GeometryReport,
    SaddleOptions,
    check_geometry,
    fiber_energy,
    fiber_maximize,
    kinetic_bounds_check,
    mountain_pass_solve,
    scalar_constrained_saddle,
)

__version__ = "0.1.0"
