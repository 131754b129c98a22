"""Structural zero-controllability analysis for sparse discrete-time systems.

Given only the zero/nonzero structure of a state matrix (and optionally an
input matrix), this package decides whether the system is generically
controllable / zero controllable, selects minimal driver-node sets that make
it steerable to the zero state, and cross-validates every structural verdict
numerically on random admissible realizations.
"""

from .drivers import (
    BPattern,
    DriverSet,
    build_b_pattern,
    enumerate_minimal_driver_sets,
    greedy_driver_set,
    minimal_driver_set,
    validate_driver_set,
)
from .fileio import PatternFormatError, parse_pattern_file, serialize_pattern_file
from .dotexport import export_dot
from .graph import (
    EdgeSymbol,
    PathMonomial,
    SccDecomposition,
    SystemGraph,
    WalkCountError,
    build_graph,
    entry_paths,
    find_cycle,
    has_cycle,
    reachable_from,
    scc_decompose,
)
from .numeric import (
    DEFAULT_BASE_SEED,
    MonteCarloStats,
    NumericCheck,
    Realization,
    SteeringResult,
    ValueSpec,
    count_nonzero_eigenvalues,
    deadbeat_steer,
    is_controllable_numeric,
    is_zero_controllable_numeric,
    monte_carlo_verify,
    sample_realization,
    steering_residual,
)
from .patterns import PatternMatrix
from .structural import (
    ControllabilityReport,
    Decomposition,
    ZcReport,
    compute_nu,
    generic_rank,
    is_generically_controllable,
    is_generically_zero_controllable,
    is_irreducible,
    is_structurally_nilpotent,
    reducible_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "BPattern",
    "ControllabilityReport",
    "DEFAULT_BASE_SEED",
    "Decomposition",
    "DriverSet",
    "EdgeSymbol",
    "MonteCarloStats",
    "NumericCheck",
    "PathMonomial",
    "PatternFormatError",
    "PatternMatrix",
    "Realization",
    "SccDecomposition",
    "SteeringResult",
    "SystemGraph",
    "ValueSpec",
    "WalkCountError",
    "ZcReport",
    "build_b_pattern",
    "build_graph",
    "compute_nu",
    "count_nonzero_eigenvalues",
    "deadbeat_steer",
    "entry_paths",
    "enumerate_minimal_driver_sets",
    "export_dot",
    "find_cycle",
    "generic_rank",
    "greedy_driver_set",
    "has_cycle",
    "is_controllable_numeric",
    "is_generically_controllable",
    "is_generically_zero_controllable",
    "is_irreducible",
    "is_structurally_nilpotent",
    "is_zero_controllable_numeric",
    "minimal_driver_set",
    "monte_carlo_verify",
    "parse_pattern_file",
    "reachable_from",
    "reducible_decomposition",
    "sample_realization",
    "scc_decompose",
    "serialize_pattern_file",
    "steering_residual",
    "validate_driver_set",
]
