"""Exact reliability polynomials for d-dimensional consecutive-k-out-of-n:F systems.

A system is an ``n_1 x ... x n_d`` array of independent binary components
that fails iff some contiguous ``s_1 x ... x s_d`` subarray has failed
entirely.  This package computes the failure and reliability polynomials in
the per-component failure probability q exactly (integer coefficients, no
floating point), counts failed configurations, cross-checks everything
against a brute-force oracle, and estimates large instances by Monte Carlo.
"""

from .engine import (
    CellMaskTable,
    EngineConfig,
    build_cell_mask_table,
    count_sequence,
    enumerate_elementary_failures,
    failed_count,
    failure_polynomial,
    reliability_polynomial,
)
from .model import (
    IntPolynomial,
    ResourceLimitError,
    ShapeError,
    SystemShape,
    polynomial_from_json,
    polynomial_to_json,
    validate_shape,
)
from .montecarlo import McEstimate, estimate_failure_probability
from .oracle import (
    WeightTally,
    brute_force_tally,
    detect_failures,
    tally_to_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "CellMaskTable",
    "EngineConfig",
    "IntPolynomial",
    "McEstimate",
    "ResourceLimitError",
    "ShapeError",
    "SystemShape",
    "WeightTally",
    "__version__",
    "brute_force_tally",
    "build_cell_mask_table",
    "count_sequence",
    "detect_failures",
    "enumerate_elementary_failures",
    "estimate_failure_probability",
    "failed_count",
    "failure_polynomial",
    "polynomial_from_json",
    "polynomial_to_json",
    "reliability_polynomial",
    "tally_to_polynomial",
    "validate_shape",
]
