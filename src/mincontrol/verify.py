"""Controllability certification: two PBH tests and the Kalman rank test.

The Kalman test is the certificate of record (it needs no eigen data);
the PBH tests serve as diagnostics. All verdicts depend on tolerances,
which the report always embeds; when the tests disagree the report
says so instead of silently reconciling them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown
from .numerics import (
    LeftEigenbasis,
    as_square_matrix,
    as_vector,
    controllability_matrix,
    numerical_rank,
)
from .tolerances import DEFAULT_TAU


@dataclass(frozen=True)
class PbhEigenvalueResult:
    controllable: bool
    ranks: tuple[int, ...]


@dataclass(frozen=True)
class PbhEigenvectorResult:
    controllable: bool
    violator: int | None
    min_inner: float


@dataclass(frozen=True)
class KalmanResult:
    """``rank`` is None when the Krylov matrix broke down (inconclusive)."""

    controllable: bool
    rank: int | None


@dataclass(frozen=True)
class VerificationReport:
    """Verdicts of the tests that could run, plus the tolerances used."""

    pbh_eigenvalue: PbhEigenvalueResult | None
    pbh_eigenvector: PbhEigenvectorResult | None
    kalman: KalmanResult | None
    rank_tol: float | None
    tau: float

    @property
    def controllable(self) -> bool:
        """Certificate of record: Kalman when available, else PBH eigenvector."""
        if self.kalman is not None:
            return self.kalman.controllable
        if self.pbh_eigenvector is not None:
            return self.pbh_eigenvector.controllable
        if self.pbh_eigenvalue is not None:
            return self.pbh_eigenvalue.controllable
        raise ValueError("empty report")

    @property
    def verdicts(self) -> tuple[bool, ...]:
        return tuple(
            r.controllable
            for r in (self.pbh_eigenvalue, self.pbh_eigenvector, self.kalman)
            if r is not None
        )

    @property
    def consistent(self) -> bool:
        """Whether every test that ran reached the same verdict."""
        return len(set(self.verdicts)) <= 1


def pbh_eigenvalue_test(
    A, b, eigenvalues, rank_tol: float | None = None
) -> PbhEigenvalueResult:
    """rank([A - lambda I | b]) = n for every supplied eigenvalue.

    Checking the spectrum suffices: for any other lambda the first block
    alone already has full rank. That is n SVDs of n x (n+1) pencils.
    When A, b and lambda all have zero imaginary parts (decided from the
    values, whatever the dtype) the pencil is real and its rank is
    decided in real arithmetic; otherwise in complex.
    """
    A = as_square_matrix(A)
    n = A.shape[0]
    b = as_vector(b, n)
    lam = np.asarray(eigenvalues, dtype=complex).ravel()
    if lam.size == 0:
        raise DimensionMismatch("eigenvalue sequence must be nonempty")
    real = not (A.imag.any() or b.imag.any())
    diag = np.arange(n)
    pencils = {}  # one buffer per arithmetic, reused across eigenvalues
    ranks = []
    for ev in lam:
        if real and ev.imag == 0:
            dtype, block, column, shift = float, A.real, b.real, ev.real
        else:
            dtype, block, column, shift = complex, A, b, ev
        if dtype not in pencils:
            pencils[dtype] = np.empty((n, n + 1), dtype=dtype)
            pencils[dtype][:, n] = column
        pencil = pencils[dtype]
        pencil[:, :n] = block
        pencil[diag, diag] -= shift
        ranks.append(numerical_rank(pencil, rank_tol))
    return PbhEigenvalueResult(
        controllable=all(r == n for r in ranks), ranks=tuple(ranks)
    )


def pbh_eigenvector_test(
    basis: LeftEigenbasis, b, tau: float = DEFAULT_TAU
) -> PbhEigenvectorResult:
    """No left-eigenvector may be orthogonal to b.

    Orthogonality is relative: pair j fails when
    |v_j . b| <= tau * ||v_j|| * ||b||. Returns the first violating pair
    index (1-based) and the smallest raw inner product seen.
    """
    b = as_vector(b, basis.n)
    nb = np.linalg.norm(b)
    violator = None
    min_inner = np.inf
    for j, (_, v) in enumerate(basis, start=1):
        inner = abs(np.vdot(v, b))
        min_inner = min(min_inner, inner)
        if violator is None and inner <= tau * np.linalg.norm(v) * nb:
            violator = j
    return PbhEigenvectorResult(
        controllable=violator is None, violator=violator, min_inner=float(min_inner)
    )


def kalman_test(A, b, rank_tol: float | None = None) -> KalmanResult:
    """Full numerical rank of [b, Ab, ..., A^(n-1) b]."""
    A = as_square_matrix(A)
    n = A.shape[0]
    b = as_vector(b, n)
    rank = numerical_rank(controllability_matrix(A, b), rank_tol)
    return KalmanResult(controllable=rank == n, rank=rank)


def _kalman_verdict(A, b, rank_tol: float | None = None) -> KalmanResult:
    """``kalman_test``, with a NumericalBreakdown recorded as inconclusive.

    A breakdown (say, a Krylov matrix that overflowed) certifies nothing,
    so the verdict is "not controllable" with an undefined rank; callers
    that need the typed error call ``kalman_test`` directly.
    """
    try:
        return kalman_test(A, b, rank_tol)
    except NumericalBreakdown:
        return KalmanResult(controllable=False, rank=None)


def verification_report(
    b,
    A=None,
    basis: LeftEigenbasis | None = None,
    rank_tol: float | None = None,
    tau: float = DEFAULT_TAU,
) -> VerificationReport:
    """Run every test the available data permits and bundle the verdicts."""
    if A is None and basis is None:
        raise ValueError("verification needs a matrix, an eigenbasis, or both")
    kalman = _kalman_verdict(A, b, rank_tol) if A is not None else None
    pbh_vec = pbh_eigenvector_test(basis, b, tau) if basis is not None else None
    pbh_val = (
        pbh_eigenvalue_test(A, b, basis.eigenvalues, rank_tol)
        if A is not None and basis is not None
        else None
    )
    return VerificationReport(
        pbh_eigenvalue=pbh_val,
        pbh_eigenvector=pbh_vec,
        kalman=kalman,
        rank_tol=rank_tol,
        tau=tau,
    )
