"""Complex dense linear algebra: left-eigenbases and their validation.

Matrices and vectors are plain numpy arrays (complex128); the validators
here enforce the shape/finiteness invariants at operation boundaries.
The eigensolve relies on LAPACK's dense nonsymmetric driver via
``numpy.linalg.eig``, which is the standard Hessenberg + shifted-QR
route; left eigenvectors are obtained as right eigenvectors of the
conjugate transpose.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigensolveFailed, NotSimple, NumericalBreakdown
from .tolerances import DEFAULT_GAP_TOL, DEFAULT_RESIDUAL_TOL, check_tolerance

#: Relative magnitude below which an entry is ignored when fixing the
#: phase of an eigenvector (the "first nonzero entry" of the sign rule).
_PHASE_TOL = 1e-9


def as_square_matrix(A) -> np.ndarray:
    """Validate and return A as a finite, C-ordered complex n x n array."""
    A = np.asarray(A, dtype=complex, order="C")
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise ValueError("matrix entries must be finite")
    return A


def as_vector(v, n: int | None = None) -> np.ndarray:
    """Validate and return v as a finite, contiguous complex vector (of length n if given)."""
    v = np.asarray(v, dtype=complex, order="C")
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch(f"expected a nonempty vector, got shape {v.shape}")
    if n is not None and v.size != n:
        raise DimensionMismatch(f"expected length {n}, got {v.size}")
    if not np.isfinite(v).all():
        raise ValueError("vector entries must be finite")
    return v


def _largest_part(X: np.ndarray):
    """The largest |real| or |imag| part of X; NaN when a part is NaN."""
    peak = np.abs(X.real).max()
    return np.maximum(peak, np.abs(X.imag).max()) if X.dtype.kind == "c" else peak


def power_of_two_exponent(X: np.ndarray) -> int:
    """e with the largest |part| of 2^e X in [1/2, 1) (0 for zero X)."""
    return -int(np.frexp(_largest_part(X))[1])


def times_power_of_two(X, e: int):
    """X * 2^e, exact unless it overflows or underflows: one product when
    2^e is a float, else (X below 2^-1024) two that both scale up."""
    if e <= 1023:
        return X * float(np.ldexp(1.0, e))
    return X * float(np.ldexp(1.0, 1023)) * float(np.ldexp(1.0, e - 1023))


def _rounding(n: int) -> tuple[float, float]:
    """(u, floor): a length-n product or norm errs by at most u relative, plus floor
    once squares underflow (Higham, "Accuracy and Stability...", ch. 3)."""
    return 8 * (n + 2) * np.finfo(float).eps, n * np.sqrt(np.finfo(float).tiny)


def _orthogonality_margin(V, B, tau: float):
    """(inner, clear, slack): |v . b| for each row v of V and b of B from one
    product; where it exceeds tau ||v|| ||b|| however it and the norms are
    computed (``_rounding``); how far another computation may lie. No norm
    from 2^500 up clears: its square might overflow."""
    u, floor = _rounding(V.shape[1])
    with np.errstate(all="ignore"):
        inner = np.abs(V.conj() @ B.T)
        norms = np.linalg.norm(V, axis=1)[:, None], np.linalg.norm(B, axis=1)
        vnorm, bnorm = (np.where(x < 2.0**500, x + floor, np.inf) for x in norms)
        scale = vnorm * bnorm
        return inner, inner > (tau * (1 + 8 * u) + 4 * u) * scale, 4 * u * scale


def is_simple(eigenvalues, gap_tol: float = DEFAULT_GAP_TOL) -> bool:
    """Whether all eigenvalues are pairwise distinct under the gap tolerance.

    True iff the minimum pairwise distance exceeds
    ``gap_tol * max modulus``, so scaling the spectrum changes nothing;
    an all-zero spectrum of two or more values is never simple.
    """
    lam = np.asarray(eigenvalues, dtype=complex).ravel()
    if lam.size == 0:
        raise DimensionMismatch("eigenvalue sequence must be nonempty")
    check_tolerance("gap_tol", gap_tol)
    if lam.size == 1:
        return True
    lam = times_power_of_two(lam, power_of_two_exponent(lam))
    diffs = np.abs(lam[:, None] - lam[None, :])
    min_gap = diffs[~np.eye(lam.size, dtype=bool)].min()
    return bool(min_gap > gap_tol * np.abs(lam).max())


@dataclass(frozen=True, eq=False)
class LeftEigenbasis:
    """n (eigenvalue, left-eigenvector) pairs of a simple n x n matrix.

    ``vectors[j]`` is the left eigenvector for ``eigenvalues[j]``:
    v† A = lambda v†. ``left_eigenbasis`` sorts its pairs by descending
    real part, then descending imaginary part, so repeated runs produce
    identical output and downstream set labels stay stable. Building a
    basis checks that its values are finite, its vectors nonzero and its
    eigenvalues simple under ``gap_tol``; ``validated_basis`` checks it
    against A.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    gap_tol: float = DEFAULT_GAP_TOL

    def __post_init__(self):
        # Private copies: the basis freezes its own arrays, never the caller's.
        V = as_square_matrix(np.array(self.vectors, dtype=complex, order="C"))
        lam = as_vector(np.array(self.eigenvalues, dtype=complex), V.shape[0])
        norms = np.linalg.norm(V, axis=1)
        if np.any(norms == 0):
            raise ValueError("eigenvectors must be nonzero")
        if not is_simple(lam, self.gap_tol):
            raise NotSimple("eigenvalues are not pairwise distinct under gap_tol")
        lam.setflags(write=False)
        V.setflags(write=False)
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "vectors", V)

    @property
    def n(self) -> int:
        return self.eigenvalues.size

    def __iter__(self):
        return zip(self.eigenvalues, self.vectors)


def check_residuals(
    A, basis: LeftEigenbasis, residual_tol: float = DEFAULT_RESIDUAL_TOL
):
    """Raise EigensolveFailed if any pair violates ||v†A - lambda v†|| <= tol ||A||.

    A and the eigenvalues are scaled by the power of two that brings A's
    largest real or imaginary part into [1/2, 1) before any norm is
    taken, so no square overflows or underflows; a message gives the
    residual in the units of A. Raises NumericalBreakdown when the SVD
    giving ||A||_2, run only when bounds on it cannot decide, fails.
    """
    check_tolerance("residual_tol", residual_tol)
    A = as_square_matrix(A)
    if A.shape[0] != basis.n:
        raise DimensionMismatch(
            f"matrix is {A.shape[0]}x{A.shape[0]} but basis has {basis.n} pairs"
        )
    e = power_of_two_exponent(A)
    A = times_power_of_two(A, e)
    # One product decides every pair when each residual clears its bound by
    # more than the rounding that can separate it from the per-pair loop below
    # (``_rounding``; a product errs by at most about u*(sqrt(n)*||A||_2 +
    # |lambda|)*||v||), for every ||sA||_2 from the largest column norm to the
    # Frobenius norm, which bound it and the SVD's value to within n*u.
    # Otherwise (an overflow, inf or NaN included) the SVD runs and the loop
    # decides, so its verdict and its message are the ones given.
    n = basis.n
    with np.errstate(all="ignore"):
        Vc = basis.vectors.conj()
        lams = times_power_of_two(basis.eigenvalues, e)
        res = np.linalg.norm(Vc @ A - lams[:, None] * Vc, axis=1)
        vnorm = np.linalg.norm(Vc, axis=1)
        u, floor = _rounding(n)
        low, high = np.linalg.norm(A, axis=0).max(), np.linalg.norm(A)
        slack = u * ((np.sqrt(n) * high * (1 + n * u) + np.abs(lams)) * vnorm + res) + floor
        if np.all(res + slack < residual_tol * low * (1 - n * u) * (vnorm * (1 - u) - floor)):
            return
        try:
            scale = np.linalg.svd(A, compute_uv=False)[0]  # ||sA||_2
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown(f"the 2-norm of the matrix failed: {exc}") from exc
        for j, (lam, v) in enumerate(zip(lams, basis.vectors), start=1):
            res = np.linalg.norm(v.conj() @ A - lam * v.conj())
            if not res <= residual_tol * scale * np.linalg.norm(v):  # NaN fails too
                raise EigensolveFailed(
                    f"pair {j} residual {times_power_of_two(res, -e):.3e} exceeds "
                    f"{residual_tol:.1e} * ||A||"
                )


def left_eigenbasis(
    A,
    residual_tol: float = DEFAULT_RESIDUAL_TOL,
    gap_tol: float = DEFAULT_GAP_TOL,
) -> LeftEigenbasis:
    """Compute the left-eigenbasis of a simple matrix.

    Each returned vector has unit Euclidean norm with its first nonzero
    entry made real and positive, so repeated runs produce identical
    output. Raises NotSimple when the eigenvalue gap check fails and
    EigensolveFailed when LAPACK does not converge or overflows, or a
    residual exceeds ``residual_tol * ||A||``.
    """
    A = as_square_matrix(A)
    try:
        mu, W = np.linalg.eig(A.conj().T)
    except np.linalg.LinAlgError as exc:
        raise EigensolveFailed(str(exc)) from exc
    if not (np.isfinite(mu).all() and np.isfinite(W).all()):
        raise EigensolveFailed("the eigensolve overflowed: a value is not finite")
    lam = mu.conj()
    order = np.lexsort((-lam.imag, -lam.real))
    lam = lam[order]
    V = W[:, order].T
    # Each norm is its row's own np.linalg.norm, and each phase factor is
    # the scalar abs(p) / p of numpy's scalar arithmetic: a norm along an
    # axis, or factors divided as one array, can differ in the last digit.
    V = V / np.array([np.linalg.norm(v) for v in V])[:, None]
    mags = np.abs(V)
    lead = np.argmax(mags > _PHASE_TOL * mags.max(axis=1, keepdims=True), axis=1)
    V *= np.array([abs(p) / p for p in V[np.arange(V.shape[0]), lead]])[:, None]
    try:
        basis = LeftEigenbasis(lam, V, gap_tol=gap_tol)
    except NotSimple as exc:
        raise NotSimple(
            "matrix eigenvalues are not pairwise distinct under gap_tol; "
            "the single-input placement problem needs a simple matrix"
        ) from exc
    check_residuals(A, basis, residual_tol)
    return basis


def validated_basis(
    A, basis: LeftEigenbasis | None, residual_tol: float, gap_tol: float
) -> LeftEigenbasis:
    """A's left-eigenbasis (``left_eigenbasis``), or ``basis`` checked
    against A (when given) and the tolerances, with each check run once.

    A basis passed ``is_simple`` under its own ``gap_tol`` when it was
    built, so it passes under any smaller one; it is checked again only
    under a larger (or NaN) ``gap_tol``.
    """
    if basis is None:
        return left_eigenbasis(A, residual_tol, gap_tol)
    if not gap_tol <= basis.gap_tol and not is_simple(basis.eigenvalues, gap_tol):
        raise NotSimple("supplied eigenvalues are not pairwise distinct")
    if A is not None:
        check_residuals(A, basis, residual_tol)
    return basis


def perturb_nonzero(A, magnitude: float, seed: int) -> np.ndarray:
    """Add iid uniform noise on [-magnitude, magnitude] to each nonzero entry.

    Deterministic for a given seed. Real matrices stay real. The range
    [-magnitude, magnitude] must have a finite width, so magnitude is at
    most half the largest float.
    """
    A = np.asarray(A)
    if not 0 <= magnitude <= np.finfo(float).max / 2:  # NaN fails too
        raise ValueError(
            "magnitude must be nonnegative, finite and at most half the largest float"
        )
    rng = np.random.default_rng(seed)
    noise = rng.uniform(-magnitude, magnitude, A.shape)
    out = np.array(A, dtype=complex if np.iscomplexobj(A) else float, copy=True)
    out[A != 0] += noise[A != 0]
    return out
