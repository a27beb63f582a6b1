"""Brute-force reference solver for small instances.

Enumerates candidate supports in cardinality-ascending order and tests
feasibility directly against the eigenvector patterns (a support works
iff every left-eigenvector has a nonzero entry inside it), so the
set-cover pipeline can be validated end to end. Winning supports are
additionally realized and rank-certified on the one eigenbasis.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import TooLarge
from .mcp import _cover_instance, _realize
from .numerics import as_square_matrix, left_eigenbasis
from .structure import StructuralVector, _nonzero_mask
from .tolerances import Tolerances
from .verify import _certify

#: Enumeration is 2^n; keep the default ceiling modest.
DEFAULT_SIZE_LIMIT = 12


@dataclass(frozen=True)
class OracleResult:
    """Minimum support size, every optimal support, and their rank verdicts."""

    min_support_size: int
    optimal_supports: tuple[tuple[int, ...], ...]
    kalman_verdicts: tuple[bool, ...]


def brute_force_mcp(
    A, n_limit: int = DEFAULT_SIZE_LIMIT, *, tol: Tolerances = Tolerances()
) -> OracleResult:
    """Exhaustive minimum-support search for an n x n simple matrix, n <= n_limit."""
    A = as_square_matrix(A)
    n = A.shape[0]
    if n > n_limit:
        raise TooLarge(f"n={n} exceeds the brute-force limit {n_limit}")
    basis = left_eigenbasis(A, tol.residual_tol, tol.gap_tol)
    # The solve's instance: it raises ZeroPattern on an all-zero pattern.
    incidence = _cover_instance(_nonzero_mask(basis.vectors, tol.zero_tol)).incidence.T
    eigen_supports = [set((np.flatnonzero(row) + 1).tolist()) for row in incidence]

    for k in range(1, n + 1):
        feasible = [
            combo
            for combo in itertools.combinations(range(1, n + 1), k)
            if all(sup.intersection(combo) for sup in eigen_supports)
        ]
        if not feasible:
            continue
        verdicts = []
        for combo in feasible:
            pattern = StructuralVector.from_support(combo, n)
            b, _ = _realize(pattern, basis.vectors, incidence, tol.tau)
            verdicts.append(_certify(A, b, tol.rank_tol, basis, pbh=False)[1].controllable)
        return OracleResult(
            min_support_size=k,
            optimal_supports=tuple(feasible),
            kalman_verdicts=tuple(verdicts),
        )
    raise AssertionError("unreachable: the full support is always feasible")
