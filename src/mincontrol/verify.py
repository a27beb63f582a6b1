"""Controllability certification from one orthogonal staircase reduction.

``staircase`` reduces (A, b) to controller-Hessenberg form once, in
O(n^3): b goes to beta e1 and A to an upper Hessenberg H by unitary
similarity (Paige, "Properties of numerical algorithms related to
computing controllability", and Van Dooren, "The generalized
eigenstructure problem in linear system theory", both IEEE TAC 26(1),
1981). Every PBH-eigenvalue rank is that of a pencil of the form, ranked
in O(n^2) (``_ranks``), and the Kalman rank follows from the pencils of
its reachable block; that is the certificate of record. No SVD runs
unless a pencil is close to rank deficient. When the eigenbasis is at
hand too (every ``solve_mcp`` run), one SVD of the basis bounds the
smallest singular value of every PBH pencil from below at once
(``_basis_bound``), and only the shifts that bound cannot clear are
ranked pencil by pencil: those where b is nearly orthogonal to a left
eigenvector, or two eigenvalues nearly coincide. The PBH eigenvector
test needs the eigenbasis instead. All verdicts depend on tolerances,
which the report always embeds; when the tests disagree the report says
so instead of silently reconciling them.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NumericalBreakdown
from .numerics import LeftEigenbasis, as_square_matrix, as_vector
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
    s = ``scale`` and t are the powers of two that bring the largest real
    or imaginary part of A and of b into [1/2, 1). ``k`` is the position
    of the first of |beta|, |h21|, ..., |h_{n,n-1}| at or below ``tol``
    (in the units of H; n when none is): b reaches at most k coordinates
    of the form once that value is set to zero.
    """

    k: int
    form: np.ndarray
    scale: float
    tol: float

    @property
    def n(self) -> int:
        return self.form.shape[0]


def _power_of_two_scale(X: np.ndarray) -> float:
    """2^-e, with 2^(e-1) <= the largest |part| of X < 2^e (1 for zero X)."""
    peak = np.abs(X.real).max()
    if X.dtype.kind == "c":
        peak = max(peak, np.abs(X.imag).max())
    return float(np.ldexp(1.0, -int(np.frexp(peak)[1])))


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
    A = as_square_matrix(A)
    n = A.shape[0]
    b = as_vector(b, n)
    if not (A.imag.any() or b.imag.any()):
        A, b = A.real, b.real
    scale = _power_of_two_scale(A)
    C = np.empty((n, n + 1), dtype=A.dtype)
    C[:, 0] = b * _power_of_two_scale(b)
    C[:, 1:] = A * scale
    eps = np.finfo(float).eps
    tol = float((4 * n * eps if rank_tol is None else rank_tol) * np.linalg.norm(C[:, 1:]))
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


# A pencil's rank is taken as full without an SVD when the upper bound on its
# smallest singular value exceeds this many times delta. On the seeded
# families of the tests the bound overstates that value by at most 6.6x.
_ESTIMATE_MARGIN = 64.0

# Pencils are bounded in batches whose stacked triangles take at most this
# many bytes, which caps the memory the certificate adds to a solve.
_BATCH_BYTES = 3 << 20


def _estimated_sigma_min(C: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Upper bounds on sigma_min([beta e1 | H - mu I]) for every shift mu.

    C = [beta e1 | H] is upper trapezoidal, and so is each pencil. The
    pencils are handled together, column by column (``R[c]`` holds rows
    0..c of column c for every shift), in O(n^2) each: rotations of
    column c with the last column fold it into the leading triangle R,
    which keeps the singular values; then one step of inverse iteration
    on R^H R from the LINPACK start (each u_i of unit modulus, chosen to
    grow z = R^-H u) gives w = R^-1 z, and sigma_min <= ||R w|| / ||w|| =
    ||z|| / ||w||. The bound is 0 where a solve breaks down (a zero pivot
    or an overflow).
    """
    n, m = C.shape[0], shifts.size
    dtype = np.result_type(C, shifts)
    R = [np.repeat(C[: c + 1, c, None].astype(dtype), m, axis=1) for c in range(n + 1)]
    for c in range(1, n + 1):
        R[c][c - 1] -= shifts
    last = R[n]
    for j in range(n - 1, -1, -1):  # rotate columns j and n to zero last[j]
        a, g = R[j][j].copy(), last[j].copy()
        r = np.hypot(np.abs(a), np.abs(g))
        a[r == 0], r[r == 0] = 1, 1
        a /= r
        g /= r
        cj, cn = R[j], last[: j + 1]
        R[j], last[: j + 1] = cj * a.conj() + cn * g.conj(), cn * a - cj * g
    z = np.zeros((n, m), dtype=dtype)
    with np.errstate(all="ignore"):
        for i in range(n):  # R^H z = u: row i of R^H is column i of R, conjugated
            s = np.einsum("lm,lm->m", R[i][:i].conj(), z[:i])
            size = np.abs(s)
            u = np.where(size > 0, -s / np.where(size > 0, size, 1), 1)
            z[i] = (u - s) / R[i][i].conj()
        w = z.copy()
        for c in range(n - 1, -1, -1):  # R w = z, column by column
            w[c] /= R[c][c]
            w[:c] -= R[c][:c] * w[c]
        bound = np.linalg.norm(z, axis=0) / np.linalg.norm(w, axis=0)
    return np.where(np.isfinite(bound), bound, 0.0)


def _ranks(C: np.ndarray, shifts, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Numerical ranks of [beta e1 | H - mu I], one per shift mu.

    The rank is the number of singular values above ``tol``. It is n
    without an SVD when ``_estimated_sigma_min`` exceeds _ESTIMATE_MARGIN
    times ``tol``, or when mu is not finite (then |mu| exceeds ||H|| + tol
    by far); otherwise one SVD decides it. Real shifts of a real form are
    ranked in float64, the others in complex arithmetic.

    Returns the ranks and, per shift, whether sigma_min of its pencil is
    known to exceed 2 ``tol``: from the bound when it exceeds twice the
    margin (on the same less-than-64x overstatement that taking the rank
    as n from the bound assumes), from the SVD when the shift took one.
    It is False for a non-finite shift.

    ``verification_report`` sends here only the shifts that the basis
    lower bound (``_basis_bound``) leaves at or below 2 delta, and the
    Kalman modes no anchor matches; ``pbh_eigenvalue_test`` and
    ``kalman_test`` send every shift.
    """
    n = C.shape[0]
    shifts = np.asarray(shifts, dtype=complex)
    ranks = np.full(shifts.size, n)
    anchored = np.zeros(shifts.size, dtype=bool)
    finite = np.isfinite(shifts)
    if C.dtype.kind == "f":
        real = finite & (shifts.imag == 0)
        groups = ((real, shifts.real), (finite & ~real, shifts))
    else:
        groups = ((finite, shifts),)
    diagonal = np.arange(n)
    for selected, values in groups:
        idx = np.flatnonzero(selected)
        if not idx.size:
            continue
        mus = values[idx]
        triangle = (n + 1) * (n + 2) // 2 * np.result_type(C, mus).itemsize
        size = max(1, _BATCH_BYTES // triangle)
        bound = np.concatenate(
            [_estimated_sigma_min(C, mus[s : s + size]) for s in range(0, mus.size, size)]
        )
        anchored[idx] = bound > 2 * _ESTIMATE_MARGIN * tol
        for i in np.flatnonzero(~(bound > _ESTIMATE_MARGIN * tol)):
            M = C.astype(np.result_type(C, mus))
            M[diagonal, diagonal + 1] -= mus[i]
            try:
                s = np.linalg.svd(M, compute_uv=False)
            except np.linalg.LinAlgError as exc:
                raise NumericalBreakdown(f"rank decision failed: {exc}") from exc
            ranks[idx[i]] = int(np.sum(s > tol))
            anchored[idx[i]] = s[-1] > 2 * tol
    return ranks, anchored


def _basis_bound(A, b, basis: LeftEigenbasis, form: Staircase, shifts: np.ndarray) -> np.ndarray:
    """Lower bounds on sigma_min([t b | sA - mu_j I]) at every shift mu_j.

    The shifts are s lambda_j for the basis eigenvalues, in the units of
    ``form``. With U the conjugated basis (rows u_i, u_i A ~ lambda_i
    u_i) normalized, E = U(sA) - diag(mu) U and w = U(tb), writing a
    left singular vector as y = aU gives ||y P_j||^2 >=
    (sigma_min(U) ||a (diag(mu) - mu_j I)|| - ||a|| ||E||)^2 + |a w|^2
    with ||y|| <= sigma_max(U) ||a||. The smallest eigenvalue of the
    diagonal-plus-rank-one matrix sigma_min(U)^2 |diag(mu) - mu_j I|^2
    + w w^H is at least l_j = min(min_i d_i / 2, |w_j|^2 / (1 + 2
    sum_i |w_i|^2 / d_i)), i != j, d_i = sigma_min(U)^2 |mu_i - mu_j|^2,
    from its secular equation; so sigma_min(P_j) >= (sqrt(l_j) - ||E||)
    / sigma_max(U). It holds for any basis: an inaccurate one only makes
    ||E|| larger. One SVD of U serves every shift. ||E||, the singular
    values of U and w carry a rounding slack (as in
    ``check_residuals``), and the bound is 0 wherever a value is not
    finite. The arithmetic is real when U and A are.
    """
    n = form.n
    A, b = as_square_matrix(A), as_vector(b, n)
    U = basis.vectors.conj()
    if not (U.imag.any() or A.imag.any() or shifts.imag.any()):
        U, A, shifts = U.real, A.real, shifts.real
    u = 8 * (n + 2) * np.finfo(float).eps
    floor = n * np.sqrt(np.finfo(float).tiny)
    with np.errstate(all="ignore"):
        U = U / np.linalg.norm(U, axis=1)[:, None]
        rows = np.linalg.norm(U, axis=1)
        frobenius = np.linalg.norm(rows)
        try:
            sigma = np.linalg.svd(U, compute_uv=False)
        except np.linalg.LinAlgError:
            return np.zeros(n)
        low = max(sigma[-1] - u * frobenius, 0.0) * (1 - u)
        high = sigma[0] + u * frobenius
        sA, tb = A * form.scale, b * _power_of_two_scale(b)
        muU = shifts[:, None] * U
        residual = np.linalg.norm(U @ sA - muU) * (1 + u)
        residual += u * (frobenius * np.linalg.norm(sA) + np.linalg.norm(muU)) + floor
        w, werr = np.abs(U @ tb), u * rows * np.linalg.norm(tb)
        gaps = (low * np.abs(shifts[:, None] - shifts)) ** 2
        np.fill_diagonal(gaps, np.inf)
        secular = ((w + werr) ** 2) @ (1 / gaps)
        ell = np.minimum(gaps.min(axis=0) / 2, np.maximum(w - werr, 0) ** 2 / (1 + 2 * secular))
        bound = (np.sqrt(ell) * (1 - u) - residual) / high
    return np.where(np.isfinite(bound) & np.isfinite(shifts), bound, 0.0)


def _near(modes: np.ndarray, anchors: np.ndarray, tol: float) -> np.ndarray:
    """Whether each mode lies within ``tol`` of some anchor.

    Modes are compared in batches of at most _BATCH_BYTES of differences.
    """
    near = np.zeros(modes.size, dtype=bool)
    if anchors.size:
        size = max(1, _BATCH_BYTES // (anchors.size * anchors.itemsize))
        for s in range(0, modes.size, size):
            near[s : s + size] = (np.abs(modes[s : s + size, None] - anchors) <= tol).any(axis=1)
    return near


def _kalman(form: Staircase, anchors: np.ndarray | None = None) -> KalmanResult:
    """Rank of [b, Ab, ..., A^(n-1) b]: k less the unreachable modes of H11.

    The modes are the eigenvalues mu of H11 = H[:k, :k], the block b
    reaches in exact arithmetic; each is ranked by the pencil
    [beta e1 | H11 - mu I]. In exact arithmetic H11 with beta e1 is
    reachable and H11 is non-derogatory, so each mu with rank below k is
    one unreachable dimension. A pair can lie within rounding of an
    uncontrollable one with no small subdiagonal (Paige 1981), so k alone
    would overstate the rank.

    ``anchors`` are shifts at which sigma_min of the pencil of the whole
    form is known to exceed 2 delta (see ``_ranks``). When k = n, a mode
    within delta of an anchor has rank n without a pencil of its own:
    sigma_min is 1-Lipschitz in the shift, so at the mode it exceeds
    2 delta - delta = delta.
    """
    k = form.k
    try:
        modes = np.linalg.eigvals(form.form[:k, 1 : k + 1]) if k else np.empty(0)
    except np.linalg.LinAlgError as exc:
        raise NumericalBreakdown(f"rank decision failed: {exc}") from exc
    ranks = np.full(k, k)
    unmatched = np.ones(k, dtype=bool)
    if anchors is not None and k == form.n:
        unmatched = ~_near(modes, anchors, form.tol)
    ranks[unmatched] = _ranks(form.form[:k, : k + 1], modes[unmatched], form.tol)[0]
    rank = k - int(np.sum(ranks < k))
    return KalmanResult(controllable=rank == form.n, rank=rank)


def _scaled_eigenvalues(form: Staircase, eigenvalues) -> np.ndarray:
    lam = np.asarray(eigenvalues, dtype=complex).ravel()
    if lam.size == 0:
        raise DimensionMismatch("eigenvalue sequence must be nonempty")
    if not np.isfinite(lam).all():
        raise ValueError("eigenvalues must be finite")
    with np.errstate(over="ignore"):
        return lam * form.scale


def _pbh_eigenvalue(form: Staircase, ranks: np.ndarray) -> PbhEigenvalueResult:
    ranks = tuple(int(r) for r in ranks)
    return PbhEigenvalueResult(controllable=all(r == form.n for r in ranks), ranks=ranks)


def pbh_eigenvalue_test(
    A, b, eigenvalues, rank_tol: float | None = None
) -> PbhEigenvalueResult:
    """rank([A - lambda I | b]) = n for every supplied eigenvalue.

    Checking the spectrum suffices: for any other lambda the first block
    alone already has full rank. Each rank is that of the unitarily
    equivalent pencil [beta e1 | H - s lambda I] of one ``staircase``
    reduction (b scaled by t instead of s); see ``_ranks`` for how it is
    decided and what it costs.
    """
    form = staircase(A, b, rank_tol)
    shifts = _scaled_eigenvalues(form, eigenvalues)
    return _pbh_eigenvalue(form, _ranks(form.form, shifts, form.tol)[0])


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
    """Rank of [b, Ab, ..., A^(n-1) b], read off one ``staircase`` reduction.

    The Krylov matrix itself is never formed, so its powers cannot
    overflow and its rank is not blurred by their growing scale. See
    ``_kalman`` for the rule.
    """
    return _kalman(staircase(A, b, rank_tol))


def verification_report(
    b,
    A=None,
    basis: LeftEigenbasis | None = None,
    rank_tol: float | None = None,
    tau: float = DEFAULT_TAU,
) -> VerificationReport:
    """Run every test the available data permits and bundle the verdicts.

    With a matrix, one ``staircase`` reduction gives both the Kalman
    result and (with a basis) the PBH-eigenvalue ranks, the same values
    ``kalman_test`` and ``pbh_eigenvalue_test`` give. The PBH shifts are
    ranked first. ``_basis_bound`` bounds sigma_min of every PBH pencil
    of the scaled pair from below; the form's pencils differ from those
    by the reduction's backward error, at most delta / 2 for the default
    delta (see ``staircase``; a smaller ``rank_tol`` counts as the
    default here). A shift whose bound exceeds 2 delta has rank n
    without a pencil of its own, and above 3 delta its pencil in the form
    has sigma_min above 2 delta. Every other shift goes to ``_ranks``.
    When b reaches the whole form (k = n) both tests rank pencils of
    [beta e1 | H], and a Kalman mode within delta of a shift with
    sigma_min above 2 delta takes rank n from it (see ``_kalman``). The
    modes and the shifts are two computed copies of one spectrum, so a
    certified pair whose every mode lies within delta of a shift that
    clears 3 delta ranks no pencil at all.
    """
    if A is None and basis is None:
        raise ValueError("verification needs a matrix, an eigenbasis, or both")
    pbh_vec = pbh_eigenvector_test(basis, b, tau) if basis is not None else None
    kalman = pbh_val = None
    if A is not None:
        form = staircase(A, b, rank_tol)
        anchors = None
        if basis is not None:
            shifts = _scaled_eigenvalues(form, basis.eigenvalues)
            bound = _basis_bound(A, b, basis, form, shifts)
            default_tol = 4 * form.n * np.finfo(float).eps * np.linalg.norm(form.form[:, 1:])
            unit = max(form.tol, default_tol)
            ranks, anchored = np.full(shifts.size, form.n), bound > 3 * unit
            rest = np.flatnonzero(~(bound > 2 * unit))
            ranks[rest], anchored[rest] = _ranks(form.form, shifts[rest], form.tol)
            pbh_val, anchors = _pbh_eigenvalue(form, ranks), shifts[anchored]
        kalman = _kalman(form, anchors)
    return VerificationReport(
        pbh_eigenvalue=pbh_val,
        pbh_eigenvector=pbh_vec,
        kalman=kalman,
        rank_tol=rank_tol,
        tau=tau,
    )
