"""Sparsest single-input placement for LTI systems.

Finds the minimum number of state variables one input must actuate for
the pair (A, b) to be controllable, by covering the nonzero patterns of
A's left-eigenvectors, then realizes and certifies a concrete b. Also
solves the structural (pattern-level) counterpart for comparison.
"""
from .errors import (
    DimensionError,
    DimensionMismatch,
    EigensolveFailed,
    IndexOutOfRange,
    Infeasible,
    MincontrolError,
    MissingSelfLoops,
    NotSimple,
    NotSquare,
    NumericalBreakdown,
    ParseError,
    RepairFailed,
    TooLarge,
    VerificationFailed,
    ZeroPattern,
)
from .mcp import (
    McpSolution,
    RealizationConfig,
    RealizationStats,
    build_cover_instance,
    realize_with_stats,
    solve_mcp,
    support_from_cover,
)
from .numerics import (
    LeftEigenbasis,
    check_residuals,
    is_simple,
    left_eigenbasis,
    perturb_nonzero,
)
from .oracle import OracleResult, brute_force_mcp
from .setcover import (
    CoverSolution,
    SetCoverInstance,
    solve_exact,
    solve_greedy,
)
from .structural import (
    SccDag,
    compatible_mscp_solution,
    is_structurally_controllable,
    scc_dag,
    solve_mscp,
    state_digraph,
)
from .structure import (
    StructuralMatrix,
    StructuralVector,
    structural_geq,
    structural_pattern,
)
from .tolerances import Tolerances
from .verify import (
    KalmanResult,
    PbhEigenvalueResult,
    PbhEigenvectorResult,
    VerificationReport,
    kalman_test,
    pbh_eigenvalue_test,
    pbh_eigenvector_test,
    verification_report,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionError",
    "DimensionMismatch",
    "EigensolveFailed",
    "IndexOutOfRange",
    "Infeasible",
    "MincontrolError",
    "MissingSelfLoops",
    "NotSimple",
    "NotSquare",
    "NumericalBreakdown",
    "ParseError",
    "RepairFailed",
    "TooLarge",
    "VerificationFailed",
    "ZeroPattern",
    "McpSolution",
    "RealizationConfig",
    "RealizationStats",
    "build_cover_instance",
    "realize_with_stats",
    "solve_mcp",
    "support_from_cover",
    "LeftEigenbasis",
    "check_residuals",
    "is_simple",
    "left_eigenbasis",
    "perturb_nonzero",
    "OracleResult",
    "brute_force_mcp",
    "CoverSolution",
    "SetCoverInstance",
    "solve_exact",
    "solve_greedy",
    "SccDag",
    "compatible_mscp_solution",
    "is_structurally_controllable",
    "scc_dag",
    "solve_mscp",
    "state_digraph",
    "StructuralMatrix",
    "StructuralVector",
    "structural_geq",
    "structural_pattern",
    "Tolerances",
    "KalmanResult",
    "PbhEigenvalueResult",
    "PbhEigenvectorResult",
    "VerificationReport",
    "kalman_test",
    "pbh_eigenvalue_test",
    "pbh_eigenvector_test",
    "verification_report",
]
