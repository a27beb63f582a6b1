"""Sparsest-input placement: reduction to set cover plus numerical realization.

The pipeline: threshold the whole left-eigenbasis once into a boolean
incidence, whose rows are the eigenvector patterns and whose column i is
the set-cover instance's set i (the eigenvectors that are nonzero at
position i), solve the cover on its bitmasks, and realize a
numerical input vector on the chosen support that is non-orthogonal to
every eigenvector (one cumsum and one Gram product, or the per-vector loop
when a rounding margin does not clear). The eigenbasis certifies the result
(``verify.verification_report``): when its lower bound on the distance
of (A, b) to uncontrollability clears the rank threshold, the Kalman
rank and every PBH-eigenvalue rank are full. Otherwise one orthogonal
staircase reduction of (A, b) (``verify.staircase``) gives them from
pencils of that one form, each cleared by the eigenbasis's lower bound
on its smallest singular value or ranked by one SVD.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    Infeasible,
    RepairFailed,
    VerificationFailed,
    ZeroPattern,
)
from .numerics import LeftEigenbasis, as_square_matrix, as_vector, validated_basis
from .numerics import _orthogonality_margin
from .setcover import (
    EXACT_UNIVERSE_LIMIT,
    CoverSolution,
    SetCoverInstance,
    solve_exact,
    solve_greedy,
)
from .structure import StructuralVector, _nonzero_mask, _patterns
from .tolerances import DEFAULT_TAU, DEFAULT_ZERO_TOL, Tolerances, check_tolerance
from .verify import VerificationReport, verification_report


#: Step 3's initial multiplier of each eigenvector, its re-alignment
#: increment, and step 4's zero-entry repair increment.
ALPHA, EPS1, EPS2 = 1.0, 0.1, 0.1


@dataclass(frozen=True)
class RealizationConfig:
    """tau, the relative threshold below which an inner product counts as zero."""

    tau: float = DEFAULT_TAU

    def __post_init__(self):
        check_tolerance("tau", self.tau)


@dataclass(frozen=True)
class RealizationStats:
    """Iteration counts, recorded to check the procedure's stated bounds."""

    step3_corrections: tuple[int, ...]
    step4_multipliers: dict[int, int] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class McpSolution:
    """Chosen support, its pattern, the realized vector, and the certificate.

    ``basis`` is the validated left-eigenbasis the solve ran on, and
    ``cover_instance`` the set-cover instance reduced from it, whose
    incidence is the one store of ``eigenvector_patterns`` (one pattern
    per left eigenvector, in basis order, built when read).
    """

    pattern: StructuralVector
    vector: np.ndarray
    mode: str
    certificate: VerificationReport
    cover_instance: SetCoverInstance
    basis: LeftEigenbasis

    def __post_init__(self):
        vec = np.asarray(self.vector, dtype=complex)
        vec.setflags(write=False)
        object.__setattr__(self, "vector", vec)
        if not np.array_equal(np.flatnonzero(vec), self.pattern.positions):
            raise ValueError("vector support does not match the pattern")

    @cached_property
    def eigenvector_patterns(self) -> tuple[StructuralVector, ...]:
        return _patterns(self.cover_instance.incidence.T)

    @property
    def support(self) -> tuple[int, ...]:
        return self.pattern.support

    @property
    def size(self) -> int:
        return self.pattern.nnz


def build_cover_instance(patterns: Sequence[StructuralVector]) -> SetCoverInstance:
    """Reduce eigenvector patterns to a set-cover instance.

    With patterns of length n, set i (one per vector position) collects
    the indices j of the patterns that have a star at position i; the
    universe is {1..len(patterns)}. Choosing positions whose sets cover
    the universe is equivalent to choosing a support that leaves no
    pattern orthogonal to it.
    """
    if len(patterns) == 0:
        raise DimensionMismatch("at least one pattern is required")
    n = len(patterns[0])
    if any(len(pat) != n for pat in patterns):
        raise DimensionMismatch("patterns have differing lengths")
    return _cover_instance(np.array([pat._flags() for pat in patterns]))


def _cover_instance(incidence: np.ndarray) -> SetCoverInstance:
    """``build_cover_instance`` on the patterns' incidence: set i is column i."""
    empty = np.flatnonzero(~incidence.any(axis=1))
    if empty.size:
        raise ZeroPattern(f"pattern {empty[0] + 1} is all-zero; no support can reach it")
    incidence.flags.writeable = False
    return SetCoverInstance._of(incidence.T)


def support_from_cover(indices: Iterable[int], n: int) -> StructuralVector:
    """Pattern of length n with stars exactly at the chosen positions."""
    return StructuralVector.from_support(indices, n)


def _orthogonality_violation(bp, conj_restricted, norms, tau) -> int | None:
    """Index of the first vector numerically orthogonal to bp, if any.

    ``conj_restricted`` stacks the conjugated restricted vectors as rows
    and ``norms`` holds their norms. The scale is relative to the
    restricted vectors: the procedure works entirely inside the support
    subspace, so a vector whose restriction is tiny still only needs a
    healthy angle there, not a large raw inner product.
    """
    nb = np.linalg.norm(bp)
    hits = np.flatnonzero(np.abs(conj_restricted @ bp) <= tau * norms * nb)
    return int(hits[0]) if hits.size else None


def realize_with_stats(
    pattern: StructuralVector,
    vectors: Sequence,
    config: RealizationConfig | None = None,
    zero_tol: float = DEFAULT_ZERO_TOL,
) -> tuple[np.ndarray, RealizationStats]:
    """Numerical vector matching ``pattern``, non-orthogonal to every vector.

    Follows the bounded accumulate-and-repair construction: restrict the
    vectors to the support, add them up with re-alignment whenever a
    partial sum turns orthogonal to a processed vector, then repair any
    zero entries. Returns the vector with the iteration counts. Raises
    Infeasible when some vector vanishes on the support (no solution
    exists) and RepairFailed when an iteration bound is exhausted.
    """
    n = len(pattern)
    vecs = [as_vector(v, n) for v in vectors]
    if pattern.nnz == 0:
        raise Infeasible("the requested support is empty")
    stacked = np.array(vecs).reshape(len(vecs), n)
    tau = (config or RealizationConfig()).tau
    return _realize(pattern, stacked, _nonzero_mask(stacked, zero_tol), tau)


def _realize(
    pattern: StructuralVector, stacked: np.ndarray, nonzero: np.ndarray, tau: float
) -> tuple[np.ndarray, RealizationStats]:
    """``realize_with_stats`` on validated vectors stacked as rows.

    ``nonzero`` is their incidence (``structure._nonzero_mask``),
    ``pattern`` has at least one star and ``tau`` is valid.
    """
    # Step 1: the support must intersect every vector's nonzero pattern.
    on_support = pattern.positions
    missed = np.flatnonzero(~nonzero[:, on_support].any(axis=1))
    if missed.size:
        raise Infeasible(
            f"vector {missed[0] + 1} has no nonzero entry on the requested support"
        )

    # Step 2: work in the support subspace, with the restricted vectors as rows.
    p = pattern.nnz
    restricted = stacked[:, on_support]
    b = np.zeros(len(pattern), dtype=complex)

    # Without a nudge, step 3's partial sums are one cumsum (the loop's order
    # and bits), and one Gram product checks each against the vectors done by
    # then. If there are vectors, all clear tau by more than rounding and the
    # last sum has no zero entry, steps 3 and 4 would change nothing.
    sums = np.cumsum(np.vstack([np.zeros(p), ALPHA * restricted]), axis=0)[1:]
    clear = _orthogonality_margin(restricted, sums, tau)[1]  # vector i, sum j
    clear |= np.tri(len(stacked), k=-1, dtype=bool)  # vector i > j is not yet checked
    if len(stacked) and clear.all() and _nonzero_mask(sums[-1], tau).all():
        b[on_support] = sums[-1]
        return b, RealizationStats((0,) * len(stacked), {})

    conj_restricted = restricted.conj()
    # Row by row, so each norm is the vector's own to the bit (a norm
    # along axis=1 sums in another order and can differ in the last digit).
    norms = np.array([np.linalg.norm(r) for r in restricted])

    # Step 3: accumulate multiples of the restricted vectors, nudging the
    # partial sum whenever it becomes orthogonal to a processed vector.
    # Each outer round needs at most |J_e|+1 nudges.
    bp = np.zeros(p, dtype=complex)
    step3_counts = []
    for j in range(len(stacked)):
        bp = bp + ALPHA * restricted[j]
        bound = j + 2
        count = 0
        processed, processed_norms = conj_restricted[: j + 1], norms[: j + 1]
        viol = _orthogonality_violation(bp, processed, processed_norms, tau)
        while viol is not None and count < bound:
            bp = bp + EPS1 * restricted[viol]
            count += 1
            viol = _orthogonality_violation(bp, processed, processed_norms, tau)
        if viol is not None:
            raise RepairFailed(
                f"orthogonality to vector {viol + 1} persisted after {count} "
                "re-alignments; the input is numerically pathological"
            )
        step3_counts.append(count)

    # Step 4: repair zero entries (``_nonzero_mask`` under tau), adding
    # multiples of a vector that is nonzero at the offending position (the
    # lowest-index one), at most p + |J| + 1 multiples per entry. A position
    # no vector touches is unconstrained (it enters no inner product), so
    # the coordinate direction itself serves as the repair vector there.
    step4_counts: dict[int, int] = {}
    multiplier_bound = p + len(stacked) + 1
    for k in range(p):
        if _nonzero_mask(bp, tau)[k]:
            continue
        pos = int(on_support[k]) + 1
        touching = np.flatnonzero(nonzero[:, pos - 1])
        if touching.size:
            direction = restricted[touching[0]]
        else:
            direction = np.zeros(p, dtype=complex)
            direction[k] = 1.0
        for mult in range(1, multiplier_bound + 1):
            bp = bp + EPS2 * direction
            if _nonzero_mask(bp, tau)[: k + 1].all() and (
                _orthogonality_violation(bp, conj_restricted, norms, tau) is None
            ):
                step4_counts[pos] = mult
                break
        else:
            raise RepairFailed(
                f"entry at position {pos} could not be made nonzero within "
                f"{multiplier_bound} multiplier steps"
            )

    if not _nonzero_mask(bp, tau).all() or (
        _orthogonality_violation(bp, conj_restricted, norms, tau) is not None
    ):
        raise RepairFailed("a residual violation survived the repair loops")

    # Step 5: scatter back to full dimension.
    b[on_support] = bp
    return b, RealizationStats(tuple(step3_counts), step4_counts)


def solve_mcp(
    A=None,
    *,
    basis: LeftEigenbasis | None = None,
    mode: str = "exact",
    tol: Tolerances = Tolerances(),
    exact_limit: int = EXACT_UNIVERSE_LIMIT,
) -> McpSolution:
    """End-to-end sparsest-input solve for a simple matrix.

    Accepts the matrix, a precomputed left-eigenbasis, or both; the basis
    is computed or validated under ``tol`` (``numerics.validated_basis``)
    and returned as the solution's ``basis``. ``mode`` selects the exact
    or the greedy cover solver. The certificate of record is the Kalman
    rank whenever the matrix is available: full when the eigenbasis
    bounds the pair's distance to uncontrollability above the rank
    threshold, else read off one staircase reduction that also gives the
    PBH-eigenvalue ranks (an SVD only for a pencil the eigenbasis bound
    does not clear); the eigenvector non-orthogonality test otherwise.
    Raises VerificationFailed (with the offending solution attached) when
    the certificate does not confirm controllability under ``tol``.
    """
    if mode not in ("exact", "greedy"):
        raise ValueError(f"mode must be 'exact' or 'greedy', got {mode!r}")
    if A is None and basis is None:
        raise ValueError("either a matrix or an eigenbasis is required")
    if A is not None:
        A = as_square_matrix(A)
    basis = validated_basis(A, basis, tol.residual_tol, tol.gap_tol)
    # One threshold of the whole basis: row j is vector j's pattern and
    # column i is set i, for the instance, its cover and step 1.
    incidence = _nonzero_mask(basis.vectors, tol.zero_tol)
    instance = _cover_instance(incidence)
    cover: CoverSolution = (
        solve_exact(instance, exact_limit) if mode == "exact" else solve_greedy(instance)
    )
    pattern = StructuralVector.from_support(cover.indices, basis.n)
    b, _ = _realize(pattern, basis.vectors, incidence, tol.tau)
    report = verification_report(
        A=A, b=b, basis=basis, rank_tol=tol.rank_tol, tau=tol.tau
    )
    solution = McpSolution(
        pattern=pattern,
        vector=b,
        mode=mode,
        certificate=report,
        cover_instance=instance,
        basis=basis,
    )
    if not report.controllable:
        rank = report.kalman.rank if report.kalman else "n/a"
        raise VerificationFailed(
            "the realized vector failed the controllability certificate "
            f"(kalman rank {rank}); check the tolerance configuration",
            report=report,
            solution=solution,
        )
    return solution
