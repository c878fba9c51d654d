"""Hellinger-distance correlation measures of two-mode Gaussian states.

Closed-form Gaussian discord via the maximal affinity with product states,
entropic correlation measures, the state families realizing them, and
independent brute-force oracles that certify every closed form.
"""

__version__ = "0.1.0"

from .affinity import (
    OverlapResult,
    affinity,
    affinity_from_sqrt_cms,
    gaussian_overlap_trace,
    hellinger_distance,
    trace_of_sqrt,
)
from .checks import (
    invariants,
    max_affinity_via_invariants,
    stationarity_residual,
    verify_phi_zero,
)
from .discord import (
    ClosestProduct,
    CorrelationReport,
    ProductStateParams,
    classical_correlations,
    closest_product_state,
    correlation_report,
    entanglement_of_formation_symmetric,
    entropic_discord,
    hellinger_discord,
    hellinger_discord_mts,
    hellinger_discord_sts,
    hellinger_discord_symmetric,
    max_affinity,
    mutual_information,
    simon_separable,
)
from .errors import (
    ConsistencyError,
    DegenerateBlocksError,
    DimensionMismatchError,
    GhkError,
    InvalidParamsError,
    NegativeOccupancyError,
    NonSymmetricError,
    NotConvergedError,
    NotPhysicalError,
    NotPositiveDefiniteError,
    OutOfFamilyError,
    ParseError,
    SingularSumError,
    TruncationInsufficientError,
)
from .oracle import (
    FockOracleConfig,
    OptimizerConfig,
    fock_affinity_diagonal,
    fock_product_trace_diagonal,
    fock_sqrt_trace_diagonal,
    fock_thermal_spectrum,
    fock_trace_distance_diagonal,
    oracle_max_affinity,
)
from .sampling import random_physical_cm, random_standard_form, random_symplectic
from .states import (
    GaussianState,
    MtsParams,
    StsParams,
    entropic_h,
    mts_standard_form,
    mts_state,
    purity,
    sts_separability_threshold,
    sts_standard_form,
    sts_state,
    tensor,
    thermal_state,
    vacuum_state,
    von_neumann_entropy,
)
from .symplectic import (
    CovarianceMatrix,
    StandardForm,
    SymplecticInvariants,
    as_covariance,
    det2,
    det4,
    invariants_from_spectrum,
    is_physical,
    reduce_to_standard_form,
    square_root_cm,
    square_root_standard_form,
    standard_form,
    symplectic_eigenvalues,
    symplectic_form,
    williamson,
)
from .tolerances import ToleranceProfile, active_profile

__all__ = [name for name in dir() if not name.startswith("_")]
