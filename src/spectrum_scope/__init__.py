"""Exact tools for the Young-frame spectrum measurement on tensor-power states.

Measuring which irreducible block of the N-fold tensor decomposition a state
falls into yields a Young frame whose normalized rows estimate the spectrum.
This package computes the exact outcome distribution, quantifies the
exponential decay of estimation errors through the relative-entropy rate
function, and samples outcomes at scales far beyond enumeration via letter
insertion.
"""

__version__ = "0.1.0"

import importlib

# public names by defining module, resolved on first access (PEP 562) so that
# a command loads only the modules it runs
_EXPORTS = {
    "errors": ("ConvergenceError", "EmptyRegionError", "ResourceLimitError"),
    "frames": (
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
    ),
    "schur": ("SchurTable", "schur_log"),
    "characters": (
        "CharacterBounds",
        "WeightTable",
        "brute_force_frame_probability",
        "character_bounds_check",
        "character_from_weights",
        "sn_character",
        "weight_multiplicities",
    ),
    "measure": ("SchurWeylDistribution", "distribution_mode", "exact_distribution"),
    "regions": (
        "BallComplement",
        "FrameSet",
        "HalfSpace",
        "PredicateRegion",
        "Region",
        "expectation_of",
        "region_log_probability",
        "region_probability",
    ),
    "ldp": (
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
    ),
    "rsk": (
        "EmpiricalDistribution",
        "FitReport",
        "SamplerConfig",
        "empirical_distribution",
        "sample_frame_counts",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
