from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=150,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")

DATA_DIR = Path(__file__).parent / "data"

# 5x5 worked system: simple spectrum {1..5}, two decoupled scalar states.
GOLDEN_A = np.array(
    [
        [3.0, 1.5, -1.5, -1.0, 0.5],
        [0.0, 2.0, 0.0, 0.0, 0.0],
        [-2.0, -1.5, 2.5, -1.0, -0.5],
        [0.0, 0.0, 0.0, 3.0, 0.0],
        [2.0, 1.5, 1.5, 1.0, 4.5],
    ]
)

# Left eigenvectors of GOLDEN_A in integer scaling, ordered by descending
# eigenvalue (5, 4, 3, 2, 1).
GOLDEN_EIGENVALUES = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
GOLDEN_LEFT_EIGENVECTORS = np.array(
    [
        [1.0, 1.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 1.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 1.0, 1.0, 0.0],
    ]
)

GOLDEN_PATTERNS = ["**00*", "00*0*", "000*0", "0*000", "*0**0"]

# Reachability display for b = [0,1,1,1,0]: row k holds (A^(k-1) b)^T.
GOLDEN_KRYLOV_ROWS = np.array(
    [
        [0.0, 1.0, 1.0, 1.0, 0.0],
        [-1.0, 2.0, 0.0, 3.0, 4.0],
        [-1.0, 4.0, -6.0, 9.0, 22.0],
        [14.0, 8.0, -39.0, 27.0, 103.0],
        [137.0, 16.0, -216.0, 81.0, 472.0],
    ]
)

GOLDEN_COVER_SETS = [{1, 5}, {1, 4}, {2, 5}, {3, 5}, {1, 2}]


@pytest.fixture(scope="session")
def golden_a():
    return GOLDEN_A.copy()


@pytest.fixture(scope="session")
def golden_basis():
    from mincontrol import left_eigenbasis

    return left_eigenbasis(GOLDEN_A)


@pytest.fixture(scope="session")
def golden_path():
    return str(DATA_DIR / "golden5.json")


def random_simple_matrix(rng, n, gap_tol=1e-6):
    """Uniform [-1, 1] matrix, redrawn until the spectrum is simple."""
    from mincontrol import is_simple

    while True:
        A = rng.uniform(-1.0, 1.0, (n, n))
        if is_simple(np.linalg.eigvals(A), gap_tol):
            return A


def sparse_simple_matrix(rng, n, density=0.035):
    """Diagonal about 1..n with jitter, uniform [-1, 1] entries off it at
    the given density: the family of the benchmark's mcp-large inputs."""
    A = np.diag(np.arange(1, n + 1) + rng.uniform(-0.2, 0.2, n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    A[mask] = rng.uniform(-1.0, 1.0, int(mask.sum()))
    return A


# Reference oracles. The package decides controllability on the staircase
# form and never forms the Krylov matrix; these rank it directly, the way
# the paper states the Kalman test, for the suites to compare against.

def numerical_rank(M, rank_tol=None) -> int:
    """Number of singular values above ``rank_tol * sigma_max``.

    ``rank_tol=None`` uses ``eps * max(rows, cols)``. The zero matrix has
    rank 0. A real (boolean, integer or floating) M stays real, so its
    SVD runs in real arithmetic (float64); anything else is decided in
    complex128. Raises NumericalBreakdown when M has non-finite entries
    or the SVD does not converge.
    """
    from mincontrol import DimensionMismatch, NumericalBreakdown

    M = np.asarray(M)
    M = M.astype(float if M.dtype.kind in "biuf" else complex, copy=False)
    if M.ndim != 2 or M.size == 0:
        raise DimensionMismatch(f"expected a nonempty 2-d matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise NumericalBreakdown(
            f"{M.shape[0]}x{M.shape[1]} matrix has non-finite entries "
            "(an intermediate overflowed); its numerical rank is undefined"
        )
    if rank_tol is None:
        rank_tol = np.finfo(float).eps * max(M.shape)
    try:
        s = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"rank decision failed: {exc}") from exc
    if s.size == 0 or s[0] == 0:
        return 0
    return int(np.sum(s > rank_tol * s[0]))


def controllability_matrix(A, b) -> np.ndarray:
    """The n x n matrix [b, Ab, ..., A^(n-1) b]."""
    from mincontrol.numerics import as_square_matrix, as_vector

    A = as_square_matrix(A)
    n = A.shape[0]
    b = as_vector(b, n)
    C = np.empty((n, n), dtype=complex)
    C[:, 0] = b
    for k in range(1, n):
        C[:, k] = A @ C[:, k - 1]
    return C


def is_cover(instance, indices) -> bool:
    """Whether the union of the chosen (1-based) sets equals the universe."""
    from mincontrol import IndexOutOfRange

    chosen = set(indices)
    for i in chosen:
        if not 1 <= i <= instance.n_sets:
            raise IndexOutOfRange(f"set index {i} outside 1..{instance.n_sets}")
    covered = set()
    for i in chosen:
        covered |= instance.sets[i - 1]
    return covered == instance.universe
