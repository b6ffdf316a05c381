"""Three identical cavities exchanging photon pairs.

Restricted-manifold simulation toolkit: basis enumeration, exact and
large-hopping dynamics, closed-form amplitude families, geometric
entanglement, extremum scans, and a reproducible verification suite.
"""

from .basis import (
    BasisState,
    CavityLevel,
    Manifold,
    StateVector,
    enumerate_manifold,
    parse_level,
    permute_cavities,
    product_state,
    symmetrize,
)
from .dressed import DressedParams, mixing_angle, splitting
from .dynamics import (
    Block,
    Generator,
    build_full_generator,
    build_large_xi_generator,
    project_onto,
)
from .evolve import Trajectory, propagate
from .analytic import (
    FAMILIES,
    AmplitudeSet,
    Family,
    matrix_representation,
    pattern_compression,
)
from .entanglement import (
    OverlapResult,
    closed_form_overlap_n2,
    max_product_overlap,
)
from .scan import (
    DwellTime,
    Extremum,
    PeriodInfo,
    detect_period,
    dwell_time,
    dwell_times,
    family_objective,
    parse_objective,
    scan_extrema,
)
from .verification import CheckResult, render_table, run_suite

__version__ = "0.1.0"

__all__ = [
    "AmplitudeSet",
    "BasisState",
    "Block",
    "CavityLevel",
    "CheckResult",
    "DressedParams",
    "DwellTime",
    "Extremum",
    "FAMILIES",
    "Family",
    "Generator",
    "Manifold",
    "OverlapResult",
    "PeriodInfo",
    "StateVector",
    "Trajectory",
    "build_full_generator",
    "build_large_xi_generator",
    "closed_form_overlap_n2",
    "detect_period",
    "dwell_time",
    "dwell_times",
    "enumerate_manifold",
    "family_objective",
    "matrix_representation",
    "max_product_overlap",
    "mixing_angle",
    "parse_level",
    "parse_objective",
    "pattern_compression",
    "permute_cavities",
    "product_state",
    "project_onto",
    "propagate",
    "render_table",
    "run_suite",
    "scan_extrema",
    "splitting",
    "symmetrize",
]
