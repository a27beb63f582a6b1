"""One tolerance rule for the whole library.

Every function that takes a tolerance rejects NaN, infinity and a
negative value with a ValueError that names the tolerance, whether it
comes loose or inside ``Tolerances``.
"""
import numpy as np
import pytest

from mincontrol import (
    LeftEigenbasis,
    RealizationConfig,
    StructuralMatrix,
    StructuralVector,
    Tolerances,
    check_residuals,
    is_simple,
    kalman_test,
    left_eigenbasis,
    pbh_eigenvalue_test,
    pbh_eigenvector_test,
    realize_with_stats,
    structural_pattern,
    verification_report,
)
from mincontrol.structure import _nonzero_mask
from mincontrol.verify import staircase
from conftest import GOLDEN_A, GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS

B = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
BASIS = LeftEigenbasis(GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS)

#: (tolerance name, call with the tolerance set to x), one per entry point.
CALLS = {
    "Tolerances.residual_tol": ("residual_tol", lambda x: Tolerances(residual_tol=x)),
    "Tolerances.gap_tol": ("gap_tol", lambda x: Tolerances(gap_tol=x)),
    "Tolerances.rank_tol": ("rank_tol", lambda x: Tolerances(rank_tol=x)),
    "Tolerances.zero_tol": ("zero_tol", lambda x: Tolerances(zero_tol=x)),
    "Tolerances.tau": ("tau", lambda x: Tolerances(tau=x)),
    "RealizationConfig": ("tau", lambda x: RealizationConfig(tau=x)),
    "realize_with_stats": (
        "zero_tol",
        lambda x: realize_with_stats(
            StructuralVector.from_support([2, 3, 4], 5), BASIS.vectors, zero_tol=x
        ),
    ),
    "is_simple": ("gap_tol", lambda x: is_simple(GOLDEN_EIGENVALUES, x)),
    "LeftEigenbasis": (
        "gap_tol",
        lambda x: LeftEigenbasis(GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS, gap_tol=x),
    ),
    "left_eigenbasis.gap_tol": ("gap_tol", lambda x: left_eigenbasis(GOLDEN_A, gap_tol=x)),
    "left_eigenbasis.residual_tol": (
        "residual_tol",
        lambda x: left_eigenbasis(GOLDEN_A, residual_tol=x),
    ),
    "check_residuals": ("residual_tol", lambda x: check_residuals(GOLDEN_A, BASIS, x)),
    "_nonzero_mask": ("zero_tol", lambda x: _nonzero_mask(BASIS.vectors, x)),
    "structural_pattern": ("zero_tol", lambda x: structural_pattern(B, x)),
    "StructuralMatrix.from_numeric": (
        "zero_tol",
        lambda x: StructuralMatrix.from_numeric(GOLDEN_A, x),
    ),
    "pbh_eigenvector_test": ("tau", lambda x: pbh_eigenvector_test(BASIS, B, x)),
    "kalman_test": ("rank_tol", lambda x: kalman_test(GOLDEN_A, B, x)),
    "pbh_eigenvalue_test": (
        "rank_tol",
        lambda x: pbh_eigenvalue_test(GOLDEN_A, B, GOLDEN_EIGENVALUES, x),
    ),
    "staircase": ("rank_tol", lambda x: staircase(GOLDEN_A, B, x)),
    "verification_report.rank_tol": (
        "rank_tol",
        lambda x: verification_report(B, A=GOLDEN_A, basis=BASIS, rank_tol=x),
    ),
    "verification_report.tau": (
        "tau",
        lambda x: verification_report(B, A=GOLDEN_A, basis=BASIS, tau=x),
    ),
    # Checked even where no test that reads the tolerance runs.
    "verification_report.rank_tol without a matrix": (
        "rank_tol",
        lambda x: verification_report(B, basis=BASIS, rank_tol=x),
    ),
    "verification_report.tau without a basis": (
        "tau",
        lambda x: verification_report(B, A=GOLDEN_A, tau=x),
    ),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("call", list(CALLS))
def test_bad_tolerance_is_rejected(call, value):
    name, run = CALLS[call]
    with pytest.raises(ValueError, match=f"^{name} must be .* and finite$"):
        run(value)
