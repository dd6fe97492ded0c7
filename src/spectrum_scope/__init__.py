"""Exact tools for the Young-frame spectrum measurement on tensor-power states.

Measuring which irreducible block of the N-fold tensor decomposition a state
falls into yields a Young frame whose normalized rows estimate the spectrum.
This package computes the exact outcome distribution, quantifies the
exponential decay of estimation errors through the relative-entropy rate
function, and samples outcomes at scales far beyond enumeration via letter
insertion.
"""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    EmptyRegionError,
    ResourceLimitError,
)
from .frames import (
    Spectrum,
    YoungFrame,
    dim_poly_bound,
    dim_symmetric_irrep,
    dim_unitary_irrep,
    enumerate_frames,
    frame_count,
    frame_rows,
    frame_to_estimate,
    log_dim_symmetric_irrep,
    log_dim_unitary_irrep,
)
from .schur import (
    CharacterBounds,
    DiagonalState,
    SchurTable,
    WeightTable,
    brute_force_frame_probability,
    character_bounds_check,
    character_from_weights,
    schur_log,
    sn_character,
    weight_multiplicities,
)
from .measure import (
    BallComplement,
    FrameSet,
    HalfSpace,
    PredicateRegion,
    Region,
    SchurWeylDistribution,
    distribution_mode,
    exact_distribution,
    expectation_of,
    region_log_probability,
    region_probability,
)
from .ldp import (
    LegendreResult,
    RatePoint,
    RateProfile,
    RegionInfimum,
    cgf,
    cgf_gradient,
    empirical_cgf,
    inf_rate_over_region,
    j_equivalence_gap,
    legendre_of_cgf,
    rate,
    rate_scan,
)
from .rsk import (
    EmpiricalDistribution,
    FitReport,
    SamplerConfig,
    empirical_distribution,
    sample_frame_counts,
)

__all__ = [
    "__version__",
    "ConvergenceError",
    "EmptyRegionError",
    "ResourceLimitError",
    "Spectrum",
    "YoungFrame",
    "dim_poly_bound",
    "dim_symmetric_irrep",
    "dim_unitary_irrep",
    "enumerate_frames",
    "frame_count",
    "frame_rows",
    "frame_to_estimate",
    "log_dim_symmetric_irrep",
    "log_dim_unitary_irrep",
    "CharacterBounds",
    "DiagonalState",
    "SchurTable",
    "WeightTable",
    "brute_force_frame_probability",
    "character_bounds_check",
    "character_from_weights",
    "schur_log",
    "sn_character",
    "weight_multiplicities",
    "BallComplement",
    "FrameSet",
    "HalfSpace",
    "PredicateRegion",
    "Region",
    "SchurWeylDistribution",
    "distribution_mode",
    "exact_distribution",
    "expectation_of",
    "region_log_probability",
    "region_probability",
    "LegendreResult",
    "RatePoint",
    "RateProfile",
    "RegionInfimum",
    "cgf",
    "cgf_gradient",
    "empirical_cgf",
    "inf_rate_over_region",
    "j_equivalence_gap",
    "legendre_of_cgf",
    "rate",
    "rate_scan",
    "EmpiricalDistribution",
    "FitReport",
    "SamplerConfig",
    "empirical_distribution",
    "sample_frame_counts",
]
