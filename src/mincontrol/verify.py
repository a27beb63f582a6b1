"""Controllability certification in one pass: eigenbasis bounds, then at most one reduction.

``staircase`` reduces (A, b) to controller-Hessenberg form once, in
O(n^3): b goes to beta e1 and A to an upper Hessenberg H by unitary
similarity (Paige, "Properties of numerical algorithms related to
computing controllability", and Van Dooren, "The generalized
eigenstructure problem in linear system theory", both IEEE TAC 26(1),
1981). Every PBH-eigenvalue rank is that of a pencil of the form, and
the Kalman rank follows from the pencils of its reachable block; that
is the certificate of record. Every rank follows one rule (``_ranks``):
a pencil has full rank when a rigorous lower bound on its smallest
singular value exceeds delta, and otherwise one SVD decides.

One pass (``_certify``) gives every PBH-eigenvalue rank and the Kalman
rank; ``kalman_test``, ``pbh_eigenvalue_test`` and
``verification_report`` call it. It bounds the pencils from a left
eigenbasis (``_lower_bound``), the caller's when it holds one, else A's
own from one ``eig`` (``_modes``), at each eigenvalue and over the whole
plane: the latter bounds the pair's distance to uncontrollability
(Eising, "Between controllable and uncontrollable", Systems & Control
Letters 4, 1984). When that clears delta every rank is full and nothing
is reduced; otherwise the pass reduces once and takes an SVD only of
the pencils no bound clears. The PBH eigenvector test needs the
eigenbasis instead. All verdicts depend on tolerances, which the report
always embeds; when the tests disagree the report says so instead of
silently reconciling them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalBreakdown
from .numerics import LeftEigenbasis, _orthogonality_margin, _rounding, as_square_matrix
from .numerics import as_vector, power_of_two_exponent, times_power_of_two
from .tolerances import DEFAULT_TAU, check_tolerance


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
    controllable: bool
    rank: int


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


@dataclass(frozen=True, eq=False)
class Staircase:
    """Controller-Hessenberg ("staircase") form of a pair (A, b).

    ``form`` is the n x (n + 1) array [beta e1 | H]: with Q unitary,
    Q^H (t b) = beta e1 and H = Q^H (s A) Q upper Hessenberg, where
    s = 2^``scale`` and t are the powers of two that bring the largest
    real or imaginary part of A and of b into [1/2, 1). ``k`` is the position
    of the first of |beta|, |h21|, ..., |h_{n,n-1}| at or below ``tol``
    (in the units of H; n when none is): b reaches at most k coordinates
    of the form once that value is set to zero.
    """

    k: int
    form: np.ndarray
    scale: int
    tol: float

    @property
    def n(self) -> int:
        return self.form.shape[0]


def _reflector(x: np.ndarray) -> tuple[np.ndarray | None, complex]:
    """Unit v with (I - 2 v v^H) x = alpha e1, and that alpha.

    x[0] must be an entry of largest modulus. v is None (no reflection
    needed) when x vanishes below its first entry; then alpha is that
    entry. The sign of alpha is opposite to the phase of x[0], so forming
    v never cancels, and v is zero wherever x is.
    """
    if not x[1:].any():
        return None, x[0]
    norm = np.sqrt(np.vdot(x, x).real)
    phase = x[0] / abs(x[0])
    v = x.copy()
    v[0] += phase * norm
    v /= np.sqrt(2 * norm * (norm + abs(x[0])))  # ||v||, in closed form
    return v, -phase * norm


def _scaled_pair(A, b, rank_tol: float | None) -> tuple[np.ndarray, int, float, float]:
    """[t b | s A], log2 s, delta and the reduction's backward error, for ``staircase``.

    s and t are the powers of two that bring the largest real or imaginary
    part of A and of b into [1/2, 1); the array is float64 when A and b
    have zero imaginary parts, complex otherwise. delta = rank_tol *
    ||sA||_F (4 n eps ||sA||_F for ``rank_tol=None``); the backward error
    is half the default delta, whatever ``rank_tol`` is. Every caller
    takes these values from here, so they agree to the bit.
    """
    if rank_tol is not None:
        check_tolerance("rank_tol", rank_tol)
    A = as_square_matrix(A)
    n = A.shape[0]
    b = as_vector(b, n)
    if not (A.imag.any() or b.imag.any()):
        A, b = A.real, b.real
    scale = power_of_two_exponent(A)
    C = np.empty((n, n + 1), dtype=A.dtype)
    C[:, 0] = times_power_of_two(b, power_of_two_exponent(b))
    C[:, 1:] = times_power_of_two(A, scale)
    eps = np.finfo(float).eps
    norm = np.linalg.norm(C[:, 1:])
    tol = float((4 * n * eps if rank_tol is None else rank_tol) * norm)
    return C, scale, tol, float(2 * n * eps * norm)


def staircase(A, b, rank_tol: float | None = None) -> Staircase:
    """Reduce (A, b) to controller-Hessenberg form with Householder reflectors.

    A and b are first scaled by exact powers of two (see ``Staircase``),
    so no intermediate overflows and scaling A or b by a power of two
    changes no decision. One reflector sends b to beta e1;
    each later one acts on coordinates j+1..n only (so e1 stays fixed)
    and zeroes column j of H below h_{j+1,j}. The arithmetic is float64
    when A and b have zero imaginary parts (decided from the values,
    whatever the dtype), complex otherwise.

    A value at or below delta = rank_tol * ||sA||_F counts as zero for
    ``k`` (setting it to zero perturbs the pair by at most delta); the
    form keeps it, so its pencils are unitarily equivalent to those of
    the scaled pair. Since t b has its largest part in [1/2, 1), |beta|
    lies in [1/2, sqrt(n)): a nonzero b counts unless delta is of order
    one. For ``rank_tol=None`` delta = 4 n eps ||sA||_F = 8 n u (u =
    eps / 2). The reduction and the backward-stable eigensolver that
    supplies the PBH eigenvalues each perturb the pencils by about
    c n u ||sA||_F: a product of reflectors applied in floating point is
    exact for data perturbed by c n u relative to what it acts on, c a
    small integer constant (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., section 19.3). delta takes c = 4 for each. The
    worst-case bounds are larger, c n^2 u (Golub and Van Loan, "Matrix
    Computations", section 7.4.3). On the seeded families of the tests
    every rank decision stays the same for any factor from 1 to 16 in
    place of the 4 in delta: below that, the smallest singular value of
    a deficient pencil at a computed eigenvalue (the eigenvalue's error,
    amplified by its condition) exceeds delta; above it, that of a
    controllable n = 200 pair falls below delta.

    Each reflector targets the largest entry of the column it reduces,
    moved to the front by a symmetric permutation, so it touches only
    that column's nonzero coordinates: an exact zero pattern that makes
    the pair uncontrollable survives the reduction as an exact zero.
    """
    return _reduce(*_scaled_pair(A, b, rank_tol)[:3])


def _reduce(C: np.ndarray, scale: int, tol: float) -> Staircase:
    """``staircase`` on a scaled pair from ``_scaled_pair``, reduced in place."""
    n = C.shape[0]
    k = n
    for j in range(n):
        # x: t b (j = 0), then column j of H on coordinates j..n-1
        x = C[j:, j]
        p = j + int(np.argmax(np.abs(x)))
        if p > j:  # pivot: move x's largest entry to coordinate j
            C[[j, p], j:] = C[[p, j], j:]
            C[:, [j + 1, p + 1]] = C[:, [p + 1, j + 1]]
        v, alpha = _reflector(x)
        if abs(alpha) <= tol:
            k = min(k, j)
        if v is not None:  # Z <- P Z on rows j.., Z P on every row
            x[:] = 0
            x[0] = alpha
            Z, vc = C[:, j + 1:], v.conj()
            Z -= np.outer(2 * (Z @ v), vc)
            Z[j:] -= np.outer(v, 2 * (vc @ Z[j:]))
    return Staircase(k=k, form=C, scale=scale, tol=tol)


def _decide(f, *args, **kwargs):
    """f(*args, **kwargs), with a LAPACK failure raised as NumericalBreakdown."""
    try:
        return f(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"rank decision failed: {exc}") from exc


def _lower_bound(
    M: np.ndarray, v: np.ndarray, U: np.ndarray, mu: np.ndarray
) -> tuple[np.ndarray, float]:
    """Lower bounds on sigma_min([v | M - nu I]) at every eigenvalue mu_j
    of M, and one that holds at every complex nu.

    U holds left eigenvectors of M as rows (u_j M ~ mu_j u_j), in any
    scaling. With its rows normalized, E = UM - diag(mu) U and w = Uv,
    writing a left singular vector as y = aU gives ||y P(nu)||^2 >=
    (sigma_min(U) ||a (diag(mu) - nu I)|| - ||a|| ||E||)^2 + |a w|^2
    with ||y|| <= sigma_max(U) ||a||. At nu = mu_j, the smallest
    eigenvalue of the diagonal-plus-rank-one matrix sigma_min(U)^2
    |diag(mu) - mu_j I|^2 + w w^H is at least l_j = min(min_i d_i / 2,
    |w_j|^2 / (1 + 2 sum_i |w_i|^2 / d_i)), i != j, d_i = sigma_min(U)^2
    |mu_i - mu_j|^2, from its secular equation; so sigma_min(P(mu_j)) >=
    (sqrt(l_j) - ||E||) / sigma_max(U). Any other nu has a nearest
    eigenvalue mu_j, and |mu_i - nu| >= |mu_i - mu_j| / 2 for i != j, so
    the same bound with every d_i divided by 4 holds at nu; its minimum
    over j bounds the distance to uncontrollability of (M, v), the
    minimum of sigma_min(P(nu)) over the plane (Eising, "Between
    controllable and uncontrollable", Systems & Control Letters 4, 1984).

    It holds for any U: inaccurate pairs only make ||E|| larger, and
    nearly parallel rows (M defective or nearly so) make sigma_min(U),
    and the bound with it, small. One SVD of U serves every shift and the
    plane. ||E||, the singular values of U and w carry a rounding slack
    (as in ``check_residuals``), and a bound is 0 wherever a value is
    not finite. The arithmetic is real when U, M and mu are.
    """
    n = M.shape[0]
    if not (U.imag.any() or M.imag.any() or mu.imag.any()):
        U, M, mu = U.real, M.real, mu.real
    u, floor = _rounding(n)
    with np.errstate(all="ignore"):
        U = U / np.linalg.norm(U, axis=1)[:, None]
        rows = np.linalg.norm(U, axis=1)
        frobenius = np.linalg.norm(rows)
        try:
            sigma = np.linalg.svd(U, compute_uv=False)
        except np.linalg.LinAlgError:
            return np.zeros(n), 0.0
        low = max(sigma[-1] - u * frobenius, 0.0) * (1 - u)
        high = sigma[0] + u * frobenius
        muU = mu[:, None] * U
        residual = np.linalg.norm(U @ M - muU) * (1 + u)
        residual += u * (frobenius * np.linalg.norm(M) + np.linalg.norm(muU)) + floor
        w, werr = np.abs(U @ v), u * rows * np.linalg.norm(v)
        gaps = (low * np.abs(mu[:, None] - mu)) ** 2
        np.fill_diagonal(gaps, np.inf)
        secular = ((w + werr) ** 2) @ (1 / gaps)
        nearest, reach = gaps.min(axis=0), np.maximum(w - werr, 0) ** 2
        ell = np.minimum(nearest / 2, reach / (1 + 2 * secular))
        plane = np.minimum(nearest / 8, reach / (1 + 8 * secular)).min()
        bound = (np.sqrt(ell) * (1 - u) - residual) / high
        whole = (np.sqrt(plane) * (1 - u) - residual) / high
    finite = np.isfinite(mu)
    whole = float(whole) if np.isfinite(whole) and finite.all() else 0.0
    return np.where(np.isfinite(bound) & finite, bound, 0.0), whole


def _modes(C: np.ndarray, backward: float = 0.0) -> tuple[np.ndarray, np.ndarray, float]:
    """The eigenvalues mu of H = C[:, 1:], and ``_lower_bound``'s bounds on
    sigma_min([C[:, 0] | H - nu I]) at each mu and over the plane, less
    ``backward``, all from one ``eig`` of H^T (whose right eigenvectors
    are H's left ones)."""
    H = C[:, 1:]
    modes, Z = _decide(np.linalg.eig, H.T)
    lower, whole = _lower_bound(H, C[:, 0], Z.T, modes)
    return modes, lower - backward, whole - backward


def _extend(lower: np.ndarray, shifts: np.ndarray, at: np.ndarray) -> np.ndarray:
    """max_j(lower_j - |nu - mu_j|) at every nu of ``at``, over the finite
    shifts mu_j: sigma_min of a pencil [beta e1 | H - nu I] is 1-Lipschitz
    in nu, so a lower bound at mu_j holds, less the distance, at nu."""
    finite = np.isfinite(shifts)
    gaps = np.abs(at[:, None] - shifts[finite])
    return np.max(lower[finite] - gaps, axis=1, initial=-np.inf)


def _ranks(
    C: np.ndarray, shifts, lower: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Numerical ranks of [beta e1 | H - mu I], one per shift mu.

    The rank is the number of singular values above ``tol``. It is n
    without an SVD where ``lower``, a rigorous lower bound on sigma_min
    of the pencil, exceeds ``tol``, or where mu is not finite (then |mu|
    exceeds ||H|| + tol by far); otherwise one SVD decides it. Real shifts
    of a real form are ranked in float64, the others in complex
    arithmetic. Returns the ranks and the bounds, in which the sigma_min
    of every SVD that ran stands in for the bound it replaced.
    """
    n = C.shape[0]
    shifts = np.asarray(shifts, dtype=complex)
    ranks = np.full(shifts.size, n)
    lower = np.array(lower, dtype=float)
    diagonal = np.arange(n)
    for i in np.flatnonzero(np.isfinite(shifts) & ~(lower > tol)):
        mu = shifts[i].real if C.dtype.kind == "f" and shifts[i].imag == 0 else shifts[i]
        M = C.astype(np.result_type(C, mu))
        M[diagonal, diagonal + 1] -= mu
        s = _decide(np.linalg.svd, M, compute_uv=False)
        ranks[i], lower[i] = int(np.sum(s > tol)), s[-1]
    return ranks, lower


def _kalman(form: Staircase, shifts: np.ndarray, lower: np.ndarray) -> KalmanResult:
    """Rank of [b, Ab, ..., A^(n-1) b]: k less the unreachable modes of H11.

    The modes are the eigenvalues mu of H11 = H[:k, :k], the block b
    reaches in exact arithmetic; each is ranked by the pencil
    [beta e1 | H11 - mu I] (``_ranks``). In exact arithmetic H11 with
    beta e1 is reachable and H11 is non-derogatory, so each mu with rank
    below k is one unreachable dimension. A pair can lie within rounding
    of an uncontrollable one with no small subdiagonal (Paige 1981), so k
    alone would overstate the rank.

    When k = n the modes are the form's own, ``eigvals(H)``, and each
    takes its bound from ``lower``, bounds on sigma_min of the form's
    pencils at ``shifts`` (``_extend``). Otherwise the modes and their
    bounds come from H11's own left eigenvectors (``_modes``).
    """
    k = form.k
    if not k:
        return KalmanResult(controllable=False, rank=0)
    C = form.form[:k, : k + 1]
    if k == form.n:
        modes = _decide(np.linalg.eigvals, C[:, 1:])
        lower = _extend(lower, shifts, modes)
    else:
        modes, lower, _ = _modes(C)
    rank = k - int(np.sum(_ranks(C, modes, lower, form.tol)[0] < k))
    return KalmanResult(controllable=rank == form.n, rank=rank)


def _scaled_eigenvalues(scale: int, eigenvalues) -> np.ndarray:
    with np.errstate(over="ignore"):
        return times_power_of_two(as_vector(eigenvalues), scale)


def pbh_eigenvector_test(
    basis: LeftEigenbasis, b, tau: float = DEFAULT_TAU
) -> PbhEigenvectorResult:
    """No left-eigenvector may be orthogonal to b.

    Orthogonality is relative: pair j fails when
    |v_j . b| <= tau * ||v_j|| * ||b||. Returns the first violating pair
    index (1-based) and the smallest raw inner product seen.
    """
    check_tolerance("tau", tau)
    b = as_vector(b, basis.n)
    nb = np.linalg.norm(b)
    # One product bounds every |v_j . b|. A pair that clears tau cannot fail,
    # and can hold the smallest only if its lower bound reaches the least
    # upper bound of the cleared pairs; np.vdot takes the rest, to the bit.
    inner, clear, slack = (x[:, 0] for x in _orthogonality_margin(basis.vectors, b[None], tau))
    reach = np.min(inner[clear] + slack[clear], initial=np.inf)
    violator = None
    min_inner = np.inf
    for j in np.flatnonzero(~clear | (inner <= reach + slack)).tolist():
        v = basis.vectors[j]
        inner_j = abs(np.vdot(v, b))
        min_inner = min(min_inner, inner_j)
        if violator is None and inner_j <= tau * np.linalg.norm(v) * nb:
            violator = j + 1
    return PbhEigenvectorResult(
        controllable=violator is None, violator=violator, min_inner=float(min_inner)
    )


def _certify(
    A,
    b,
    rank_tol: float | None,
    basis: LeftEigenbasis | None = None,
    eigenvalues=None,
    pbh: bool = True,
    kalman: bool = True,
) -> tuple[PbhEigenvalueResult | None, KalmanResult | None]:
    """The PBH-eigenvalue ranks (``pbh``) and the Kalman result (``kalman``)
    of (A, b), from one certificate pass.

    A left eigenbasis of A bounds sigma_min of the scaled pair's pencils
    from below (``_lower_bound``), at each of its eigenvalues and over the
    whole plane: ``basis`` when given, else one ``eig`` of sA (``_modes``).
    The form's pencils differ from those by the reduction's backward
    error, at most delta / 2 for the default delta (see ``staircase``),
    which is subtracted whatever ``rank_tol`` is. The PBH shifts are the
    basis eigenvalues, or ``eigenvalues`` when given; these take their
    bounds from the basis eigenvalues near them (``_extend``).

    When the whole-plane bound, so lowered, exceeds delta, every PBH rank
    is n and so is the Kalman rank, and neither the reduction nor any
    pencil SVD runs. That is the result the reduction would give. Every
    pencil of the form, at any complex mu, has sigma_min above delta. A
    |beta| or subdiagonal at or below delta, set to zero, would leave an
    uncontrollable form within delta, singular at some mu; so k = n, and
    every PBH shift and Kalman mode has full rank.

    Otherwise ``staircase`` runs once, and ``_ranks`` ranks the PBH
    shifts, for the PBH result and, when b reaches the whole form
    (k = n), for the Kalman modes: those are a second computed copy of the
    spectrum and take their bounds from the shifts' (``_kalman``), the
    sigma_min of a shift that took an SVD included. So a pair ranks only
    the pencils the basis cannot clear: where b is nearly orthogonal to a
    left eigenvector, two eigenvalues nearly coincide or the matrix is
    nearly defective.
    """
    C, scale, tol, backward = _scaled_pair(A, b, rank_tol)
    n = C.shape[0]
    given = None if eigenvalues is None else _scaled_eigenvalues(scale, eigenvalues)
    if basis is None:
        modes, lower, whole = _modes(C, backward)
    else:
        modes = _scaled_eigenvalues(scale, basis.eigenvalues)
        lower, whole = _lower_bound(C[:, 1:], C[:, 0], basis.vectors.conj(), modes)
        lower, whole = lower - backward, whole - backward
    shifts = modes if given is None else given
    if whole > tol:
        ranks, result = np.full(shifts.size, n), KalmanResult(controllable=True, rank=n)
    else:
        form = _reduce(C, scale, tol)
        if given is not None:
            lower = _extend(lower, modes, given)
        if pbh or form.k == n:
            ranks, lower = _ranks(form.form, shifts, lower, tol)
        result = _kalman(form, shifts, lower) if kalman else None
    if not pbh:
        return None, result
    ranks = tuple(int(r) for r in ranks)
    return PbhEigenvalueResult(controllable=all(r == n for r in ranks), ranks=ranks), result


def pbh_eigenvalue_test(
    A, b, eigenvalues, rank_tol: float | None = None
) -> PbhEigenvalueResult:
    """rank([A - lambda I | b]) = n for every supplied eigenvalue.

    Checking the spectrum suffices: for any other lambda the first block
    alone already has full rank. Each rank is that of the unitarily
    equivalent pencil [beta e1 | H - s lambda I] of one ``staircase``
    reduction (b scaled by t instead of s), ranked by the certificate pass
    (``_certify``) on one ``eig`` of sA.
    """
    return _certify(A, b, rank_tol, eigenvalues=eigenvalues, kalman=False)[0]


def kalman_test(A, b, rank_tol: float | None = None) -> KalmanResult:
    """Rank of [b, Ab, ..., A^(n-1) b], read off one ``staircase`` reduction.

    The Krylov matrix itself is never formed, so its powers cannot
    overflow and its rank is not blurred by their growing scale. The
    certificate pass (``_certify``) bounds the pencils from one ``eig`` of
    sA.
    """
    return _certify(A, b, rank_tol, pbh=False)[1]


def verification_report(
    b,
    A=None,
    basis: LeftEigenbasis | None = None,
    rank_tol: float | None = None,
    tau: float = DEFAULT_TAU,
) -> VerificationReport:
    """Run every test the available data permits and bundle the verdicts.

    With a matrix, one certificate pass (``_certify``) gives the Kalman
    result and, on the basis when one is given, the PBH-eigenvalue ranks:
    the values ``kalman_test`` and ``pbh_eigenvalue_test`` give. With a
    basis, the PBH eigenvector test runs too. The report embeds both
    tolerances, so both are checked whichever tests run.
    """
    if A is None and basis is None:
        raise ValueError("verification needs a matrix, an eigenbasis, or both")
    check_tolerance("tau", tau)
    if rank_tol is not None:
        check_tolerance("rank_tol", rank_tol)
    pbh_vec = pbh_eigenvector_test(basis, b, tau) if basis is not None else None
    pbh_val = kalman = None
    if A is not None:
        pbh_val, kalman = _certify(A, b, rank_tol, basis, pbh=basis is not None)
    return VerificationReport(
        pbh_eigenvalue=pbh_val,
        pbh_eigenvector=pbh_vec,
        kalman=kalman,
        rank_tol=rank_tol,
        tau=tau,
    )
