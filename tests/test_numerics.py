import warnings

import numpy as np
import pytest

from mincontrol import (
    DimensionMismatch,
    EigensolveFailed,
    LeftEigenbasis,
    NotSimple,
    NumericalBreakdown,
    check_residuals,
    is_simple,
    left_eigenbasis,
    kalman_test,
    pbh_eigenvalue_test,
    pbh_eigenvector_test,
    perturb_nonzero,
    solve_mcp,
    structural_pattern,
    verification_report,
)
from mincontrol.numerics import _PHASE_TOL
from conftest import (
    GOLDEN_EIGENVALUES,
    GOLDEN_KRYLOV_ROWS,
    GOLDEN_LEFT_EIGENVECTORS,
    controllability_matrix,
    numerical_rank,
    random_simple_matrix,
    sparse_simple_matrix,
)


def assert_proportional(u, v, atol=1e-10):
    """u and v span the same line."""
    u, v = np.asarray(u, complex), np.asarray(v, complex)
    k = np.argmax(np.abs(v))
    assert abs(v[k]) > 0
    np.testing.assert_allclose(u, (u[k] / v[k]) * v, atol=atol)


class TestLeftEigenbasis:
    def test_worked_example(self, golden_a, golden_basis):
        np.testing.assert_allclose(
            golden_basis.eigenvalues, GOLDEN_EIGENVALUES, atol=1e-9
        )
        for computed, reference in zip(golden_basis.vectors, GOLDEN_LEFT_EIGENVECTORS):
            assert_proportional(computed, reference)

    def test_diagonal(self):
        basis = left_eigenbasis(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(basis.eigenvalues, [2.0, 1.0], atol=1e-12)
        assert_proportional(basis.vectors[0], [0.0, 1.0])
        assert_proportional(basis.vectors[1], [1.0, 0.0])

    def test_residual_bound_random(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = random_simple_matrix(rng, 4)
            basis = left_eigenbasis(A, residual_tol=1e-8)
            scale = np.linalg.norm(A, 2)
            for lam, v in basis:
                residual = np.linalg.norm(v.conj() @ A - lam * v.conj())
                assert residual <= 1e-8 * scale

    def test_unit_norm_and_phase(self, golden_basis):
        for v in golden_basis.vectors:
            assert np.linalg.norm(v) == pytest.approx(1.0)
            lead = v[np.abs(v) > 1e-9 * np.abs(v).max()][0]
            assert lead.imag == pytest.approx(0.0, abs=1e-12)
            assert lead.real > 0

    def test_not_simple(self):
        with pytest.raises(NotSimple):
            left_eigenbasis(np.eye(3))

    def test_complex_matrix(self):
        A = np.array([[1j, 1.0], [0.0, 2.0]])
        basis = left_eigenbasis(A)
        for lam, v in basis:
            np.testing.assert_allclose(v.conj() @ A, lam * v.conj(), atol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            left_eigenbasis(np.ones((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            left_eigenbasis(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_overflowing_spectrum(self):
        # Finite entries whose eigenvalue 2e308 lies beyond the float range.
        with pytest.raises(EigensolveFailed, match="overflowed"):
            left_eigenbasis(np.full((2, 2), 1e308))


class TestUserSuppliedBasis:
    def test_supplied_basis_passes_residual_check(self, golden_a):
        basis = LeftEigenbasis(GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS)
        check_residuals(golden_a, basis)
        assert basis.n == 5

    def test_supplied_bad_vectors_fail_residual_check(self, golden_a):
        wrong = GOLDEN_LEFT_EIGENVECTORS.copy()
        wrong[0, 0] = 5.0
        basis = LeftEigenbasis(GOLDEN_EIGENVALUES, wrong)
        with pytest.raises(EigensolveFailed):
            check_residuals(golden_a, basis)

    def test_pair_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LeftEigenbasis([1.0, 2.0], np.eye(3))

    def test_repeated_eigenvalues_rejected(self):
        with pytest.raises(NotSimple):
            LeftEigenbasis([1.0, 1.0], np.eye(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            LeftEigenbasis([1.0, 2.0], np.array([[1.0, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("where", ["eigenvalue", "vector"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(1.0, -np.inf)])
    def test_nonfinite_rejected(self, where, value):
        eigenvalues = np.array([1.0, 2.0, 3.0], dtype=complex)
        vectors = np.eye(3, dtype=complex)
        (eigenvalues if where == "eigenvalue" else vectors[1])[1] = value
        with pytest.raises(ValueError, match="^eigenvalues and eigenvectors must be finite$"):
            LeftEigenbasis(eigenvalues, vectors)


def phase_loop_reference(A):
    """left_eigenbasis's vectors, normalized and phase-fixed one at a time."""
    A = np.asarray(A, dtype=complex)
    mu, W = np.linalg.eig(A.conj().T)
    lam = mu.conj()
    V = W[:, np.lexsort((-lam.imag, -lam.real))].T.copy()
    for j in range(V.shape[0]):
        v = V[j] / np.linalg.norm(V[j])
        mags = np.abs(v)
        lead = int(np.argmax(mags > _PHASE_TOL * mags.max()))
        V[j] = v * (abs(v[lead]) / v[lead])
    return V


class TestPhaseFixMatchesLoop:
    """The array-level normalization and phase fix equal the per-vector loop bitwise."""

    @pytest.mark.parametrize("seed", range(6))
    def test_real_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        n = 5 + 7 * seed
        A = np.diag(np.arange(1.0, n + 1)) + np.triu(rng.uniform(-1, 1, (n, n)), 1)
        basis = left_eigenbasis(A)
        assert not basis.eigenvalues.imag.any()
        assert np.array_equal(basis.vectors, phase_loop_reference(A))

    @pytest.mark.parametrize("seed", range(6))
    def test_complex_spectrum(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = 4 + 9 * seed
        for A in (
            random_simple_matrix(rng, n),
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)),
        ):
            basis = left_eigenbasis(A)
            assert basis.eigenvalues.imag.any()
            assert np.array_equal(basis.vectors, phase_loop_reference(A))

    @pytest.mark.parametrize("ratio", [1.5, 1.0001])
    def test_leading_entry_just_above_phase_tol(self, ratio):
        # The rows of S are the left eigenvectors of S^-1 D S (conjugated).
        # In the first, the leading entry's modulus sits just above
        # _PHASE_TOL times the peak, so the phase fix must pick that entry.
        S = np.array(
            [
                [ratio * _PHASE_TOL * np.exp(0.7j), 1.0, -0.5j],
                [0.3, 1.0, 0.2],
                [0.1, -0.4, 1.0],
            ]
        )
        A = np.linalg.solve(S, np.diag([3.0, 2.0, 1.0]) @ S)
        basis = left_eigenbasis(A)
        reference = phase_loop_reference(A)
        assert np.array_equal(basis.vectors, reference)
        v = basis.vectors[0]
        assert _PHASE_TOL < abs(v[0]) / np.abs(v).max() < 2 * _PHASE_TOL
        assert v[0].real > 0 and abs(v[0].imag) < 1e-15 * v[0].real


def residual_loop_reference(A, basis, residual_tol):
    """check_residuals's per-pair loop: the message of the first failing pair, or None."""
    A = np.asarray(A, dtype=complex)
    scale = np.linalg.svd(A, compute_uv=False)[0]
    for j, (lam, v) in enumerate(basis, start=1):
        res = np.linalg.norm(v.conj() @ A - lam * v.conj())
        if res > residual_tol * scale * np.linalg.norm(v):
            return f"pair {j} residual {res:.3e} exceeds {residual_tol:.1e} * ||A||"
    return None


def basis_at_residual_ratios(A, ratios, residual_tol):
    """A user basis of A whose pair j has residual ratios[j] * tol * ||A||_2 * ||v_j||.

    Each exact left eigenvector v is moved to v + t*e along a fixed unit
    direction e, with t solved for the requested ratio.
    """
    exact = left_eigenbasis(A)
    A = np.asarray(A, dtype=complex)
    scale = np.linalg.svd(A, compute_uv=False)[0]
    e = np.linspace(1.0, 2.0, A.shape[0]) * np.exp(1j * np.arange(A.shape[0]))
    e /= np.linalg.norm(e)
    vectors = []
    for (lam, v), ratio in zip(exact, ratios):
        if ratio == 0:
            vectors.append(v)
            continue
        gain = np.linalg.norm(e.conj() @ A - lam * e.conj())
        t = ratio * residual_tol * scale / gain
        for _ in range(3):  # ||v + t e|| moves with t
            t = ratio * residual_tol * scale * np.linalg.norm(v + t * e) / gain
        vectors.append(v + t * e)
    basis = LeftEigenbasis(exact.eigenvalues, vectors)
    for (lam, v), ratio in zip(basis, ratios):
        if ratio:
            res = np.linalg.norm(v.conj() @ A - lam * v.conj())
            assert res / (residual_tol * scale * np.linalg.norm(v)) == pytest.approx(
                ratio, rel=1e-7
            )
    return basis


class TestResidualDecisionMatchesLoop:
    """check_residuals's one-product decision equals the per-pair loop."""

    TOL = 1e-8

    def outcome(self, A, basis, residual_tol):
        try:
            check_residuals(A, basis, residual_tol)
        except EigensolveFailed as exc:
            return str(exc)
        return None

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "ratio", [1 - 1e-6, 1 + 1e-6, 0.5, 2.0], ids=["below", "above", "half", "double"]
    )
    def test_one_pair_near_the_bound(self, seed, ratio):
        rng = np.random.default_rng(seed)
        n = 3 + 2 * seed
        A = random_simple_matrix(rng, n)
        for j in range(n):
            ratios = [0.0] * n
            ratios[j] = ratio
            basis = basis_at_residual_ratios(A, ratios, self.TOL)
            expected = residual_loop_reference(A, basis, self.TOL)
            assert (expected is None) == (ratio < 1)
            assert self.outcome(A, basis, self.TOL) == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_every_pair_near_the_bound(self, seed):
        rng = np.random.default_rng(50 + seed)
        n = 4 + seed
        A = random_simple_matrix(rng, n) * 10.0 ** (3 * seed - 4)
        for signs in ([-1] * n, [1] * n, rng.choice([-1, 1], n).tolist()):
            ratios = [1 + s * 1e-6 for s in signs]
            basis = basis_at_residual_ratios(A, ratios, self.TOL)
            expected = residual_loop_reference(A, basis, self.TOL)
            assert (expected is None) == (max(signs) < 0)
            assert self.outcome(A, basis, self.TOL) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_bound_at_the_loops_own_ratio(self, seed):
        # residual_tol is pair j's ratio as the loop computes it, moved by
        # a few ulps: closer to the bound than the one product's rounding,
        # so the array decision must defer to the loop either way.
        rng = np.random.default_rng(80 + seed)
        n = 12 + 12 * seed
        A = random_simple_matrix(rng, n)
        exact = left_eigenbasis(A)
        vectors = exact.vectors + 1e-9 * rng.standard_normal((n, n))
        basis = LeftEigenbasis(exact.eigenvalues, vectors)
        Ac = A.astype(complex)
        scale = np.linalg.svd(Ac, compute_uv=False)[0]
        for lam, v in basis:
            res = np.linalg.norm(v.conj() @ Ac - lam * v.conj())
            ratio = res / (scale * np.linalg.norm(v))
            for ulps in range(-3, 4):
                tol = ratio * (1 + ulps * np.finfo(float).eps)
                expected = residual_loop_reference(A, basis, tol)
                assert self.outcome(A, basis, tol) == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_pairs_within_two_of_the_bound(self, seed, monkeypatch):
        # n = 64-100, the benchmark's mcp-large family, with some pairs'
        # residuals between 1/2 and 2 times residual_tol * ||A||_2. The
        # largest column norm is within 2e-5 of ||A||_2 here, so the norm
        # bounds pass the pairs below 0.9 without an SVD of A, and those
        # just below 1 need it.
        rng = np.random.default_rng(30 + seed)
        svd, svds = np.linalg.svd, []

        def counting(M, *args, **kwargs):
            svds.append(np.shape(M))
            return svd(M, *args, **kwargs)

        outcomes = []
        for n in (64, 82, 100):
            A = sparse_simple_matrix(rng, n)
            for spread in ((0.5, 0.9), (1 - 5e-6, 1 - 1e-6), (0.5, 2.0)):
                ratios = np.where(rng.random(n) < 0.2, rng.uniform(*spread, n), 0.0)
                basis = basis_at_residual_ratios(A, ratios, self.TOL)
                expected = residual_loop_reference(A, basis, self.TOL)
                assert (expected is None) == (ratios.max() < 1)
                monkeypatch.setattr(np.linalg, "svd", counting)
                svds.clear()
                assert self.outcome(A, basis, self.TOL) == expected
                monkeypatch.setattr(np.linalg, "svd", svd)
                outcomes.append((expected is None, bool(svds)))
        assert {(True, False), (True, True), (False, True)} <= set(outcomes)


class TestIsSimple:
    def test_worked_spectrum(self):
        assert is_simple([1, 2, 3, 4, 5], gap_tol=1e-9)

    def test_repeated(self):
        assert not is_simple([1.0, 1.0], gap_tol=1e-9)
        assert not is_simple([1.0, 1.0], gap_tol=0.5)

    def test_below_gap(self):
        assert not is_simple([1.0, 1.0 + 1e-12], gap_tol=1e-9)

    def test_single_value(self):
        assert is_simple([3.5], gap_tol=1e-9)

    def test_complex_pairs(self):
        assert is_simple([1 + 1j, 1 - 1j], gap_tol=1e-9)

    @pytest.mark.parametrize("c", [1e-300, 1e-14, 1e-10, 1.0, 1e200])
    def test_gap_relative_to_the_largest_modulus(self, c):
        # Scaling the spectrum changes no verdict.
        assert is_simple(c * GOLDEN_EIGENVALUES, gap_tol=1e-9)
        assert not is_simple(c * np.array([1.0, 1.0 + 1e-12]), gap_tol=1e-9)

    def test_all_zero_spectrum(self):
        assert not is_simple([0.0, 0.0], gap_tol=1e-9)
        assert not is_simple(np.zeros(4), gap_tol=1e-9)
        assert is_simple([0.0], gap_tol=1e-9)

    @pytest.mark.parametrize("gap_tol", [0.0, -1e-9, np.nan, np.inf])
    def test_gap_tol_must_be_positive_and_finite(self, gap_tol):
        with pytest.raises(ValueError, match="gap_tol must be positive and finite"):
            is_simple([1.0, 2.0], gap_tol)

    @pytest.mark.parametrize(
        "lam, simple",
        [
            ([1.5e308 + 1.5e308j, 1.0], True),
            ([1e308 - 1e308j, 1e308 + 1e308j], True),
            ([1.7e308, -1.7e308, 0.0], True),
            ([1.5e308 + 1.5e308j, 1.5e308 + 1.5e308j], False),
            ([1.7e308, 1.7e308 * (1 - 1e-12)], False),
        ],
    )
    def test_overflowing_differences(self, lam, simple):
        # A difference or a modulus overflows in the spectrum's own units;
        # the verdict is still that of the spectrum / 4, and no warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert is_simple(lam) is simple
            assert is_simple(np.array(lam) / 4) is simple

    def test_supplied_basis_with_an_overflowing_gap(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = LeftEigenbasis([1.5e308 + 1.5e308j, 1.0], np.eye(2))
        assert basis.n == 2


class TestNumericalRank:
    def test_worked_reachability_rows(self):
        assert numerical_rank(GOLDEN_KRYLOV_ROWS) == 5

    def test_zero_matrix(self):
        assert numerical_rank(np.zeros((3, 3))) == 0

    def test_two_outer_products(self):
        rng = np.random.default_rng(3)
        u1, v1 = rng.normal(size=4), rng.normal(size=4)
        u2, v2 = rng.normal(size=4), rng.normal(size=4)
        assert numerical_rank(np.outer(u1, v1)) == 1
        assert numerical_rank(np.outer(u2, v2)) == 1
        assert numerical_rank(np.outer(u1, v1) + np.outer(u2, v2)) == 2

    def test_monotone_in_columns(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(4, 2))
        for _ in range(4):
            col = rng.normal(size=(4, 1))
            extended = np.hstack([M, col])
            assert numerical_rank(extended) >= numerical_rank(M)
            M = extended

    def test_explicit_tolerance(self):
        M = np.diag([1.0, 1e-6])
        assert numerical_rank(M, rank_tol=1e-3) == 1
        assert numerical_rank(M, rank_tol=1e-9) == 2

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf)])
    def test_nonfinite_is_numerical_breakdown(self, bad):
        M = np.eye(3, dtype=complex)
        M[1, 2] = bad
        with pytest.raises(NumericalBreakdown) as info:
            numerical_rank(M)
        assert not isinstance(info.value, ValueError)

    def test_svd_failure_is_numerical_breakdown(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalBreakdown, match="SVD did not converge"):
            numerical_rank(np.eye(2))

    @pytest.mark.parametrize(
        "M, dtype",
        [
            (np.eye(3, dtype=bool), np.float64),
            (np.eye(3, dtype=int), np.float64),
            (np.eye(3), np.float64),
            (np.eye(3, dtype=np.float32), np.float64),
            (np.eye(3, dtype=complex), np.complex128),
            ([[1, 0], [0, 1j]], np.complex128),
        ],
    )
    def test_real_matrix_stays_real(self, monkeypatch, M, dtype):
        seen = []
        svd = np.linalg.svd

        def spy(X, *args, **kwargs):
            seen.append(X.dtype)
            return svd(X, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        assert numerical_rank(M) == len(M)
        assert seen == [dtype]


def undecided_golden_basis():
    """Golden's pairs with eigenvalue 1 moved by 5e-8: its residual, 5e-8
    ||v||, lies between 1e-8 times A's largest column norm (4.56) and its
    Frobenius norm (8.44), so only ||A||_2 (6.16) decides it: it passes."""
    return LeftEigenbasis(GOLDEN_EIGENVALUES + [5e-8, 0, 0, 0, 0], GOLDEN_LEFT_EIGENVECTORS)


class TestCheckResiduals:
    def test_svd_failure_is_numerical_breakdown(self, monkeypatch, golden_a):
        basis = undecided_golden_basis()
        check_residuals(golden_a, basis)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalBreakdown, match="2-norm"):
            check_residuals(golden_a, basis)

    def test_golden_solve_takes_no_svd_of_the_matrix(self, monkeypatch, golden_a):
        # check_residuals takes ||sA||_2, s = 1/8 here, only when its
        # bounds cannot decide: the spy sees sA for the undecided basis,
        # and never in golden's solve, whose residuals are at rounding.
        svd, seen = np.linalg.svd, []

        def spy(M, *args, **kwargs):
            seen.append(np.array(M))
            return svd(M, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        check_residuals(golden_a, undecided_golden_basis())
        assert any(np.array_equal(M, golden_a / 8) for M in seen)
        seen.clear()
        solve_mcp(golden_a)
        assert not any(np.array_equal(M, golden_a / 8) for M in seen)

    def test_huge_entries(self):
        # Rounding-level residual entries near 1e184 would overflow their
        # squares; in the scaled units of A they cannot.
        A = 1e200 * random_simple_matrix(np.random.default_rng(424), 6)
        with np.errstate(over="raise", invalid="raise"):
            basis = left_eigenbasis(A)
        assert np.isfinite(basis.eigenvalues).all()

    def test_eigenvalue_far_beyond_the_scale_fails(self):
        # Scaled with A, the eigenvalue overflows and its residual is NaN:
        # that fails the pair as the unscaled residual of 1e10 does.
        basis = LeftEigenbasis([1e10, 2e-300], np.eye(2))
        with pytest.raises(EigensolveFailed, match="pair 1 residual"):
            check_residuals(np.diag([1e-300, 2e-300]), basis)

    @pytest.mark.parametrize("e", [-900, -600, 0, 600, 900])
    def test_message_gives_the_unscaled_residual(self, e):
        # Scaled by 2^e, the same pairs fail with the residual scaled by
        # exactly 2^e, in the message too.
        A = random_simple_matrix(np.random.default_rng(7), 5)
        exact = left_eigenbasis(A)
        moved = exact.eigenvalues + 1e-3
        v = exact.vectors[0]
        residual = np.linalg.norm(v.conj() @ A - moved[0] * v.conj())
        c = 2.0**e
        basis = LeftEigenbasis(c * moved, exact.vectors)
        with pytest.raises(EigensolveFailed) as info:
            check_residuals(c * A, basis)
        assert str(info.value) == f"pair 1 residual {c * residual:.3e} exceeds 1.0e-08 * ||A||"


class TestControllabilityMatrix:
    def test_worked_example(self, golden_a):
        C = controllability_matrix(golden_a, [0.0, 1.0, 1.0, 1.0, 0.0])
        np.testing.assert_allclose(C, GOLDEN_KRYLOV_ROWS.T, atol=1e-9)
        np.testing.assert_allclose(C[1], [1.0, 2.0, 4.0, 8.0, 16.0], atol=1e-9)

    def test_identity(self):
        C = controllability_matrix(np.eye(2), [1.0, 0.0])
        np.testing.assert_array_equal(C, np.array([[1.0, 1.0], [0.0, 0.0]]))

    def test_repeated_multiply_oracle(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(3, 3))
        b = np.array([1.0, 0.0, 0.0])
        C = controllability_matrix(A, b)
        col = b.astype(complex)
        for k in range(3):
            np.testing.assert_allclose(C[:, k], col, atol=1e-12)
            col = A @ col

    def test_column_recurrence_exact_integer(self):
        A = np.array([[2, 1, 0], [0, 3, 1], [1, 0, 1]], dtype=float)
        b = np.array([1.0, 2.0, 3.0])
        C = controllability_matrix(A, b)
        for k in range(2):
            assert np.array_equal(C[:, k + 1], A @ C[:, k])

    def test_dimension_mismatch(self, golden_a):
        with pytest.raises(DimensionMismatch):
            controllability_matrix(golden_a, [1.0, 2.0])


class TestPerturbNonzero:
    def test_deterministic(self, golden_a):
        a = perturb_nonzero(golden_a, 1e-10, seed=42)
        b = perturb_nonzero(golden_a, 1e-10, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_only_nonzeros_touched(self, golden_a):
        out = perturb_nonzero(golden_a, 1e-10, seed=0)
        assert np.array_equal(out == 0, golden_a == 0)
        delta = np.abs(out - golden_a)
        assert delta.max() <= 1e-10
        assert delta[golden_a != 0].min() > 0

    @pytest.mark.parametrize("magnitude", [-1.0, np.nan, np.inf, 1e308, 8.99e307])
    def test_range_must_be_finite(self, golden_a, magnitude):
        # [-magnitude, magnitude] wider than the float range made numpy's
        # uniform raise OverflowError.
        with pytest.raises(ValueError, match="magnitude must be nonnegative, finite"):
            perturb_nonzero(golden_a, magnitude, seed=0)

    def test_widest_finite_range(self, golden_a):
        out = perturb_nonzero(golden_a, np.finfo(float).max / 2, seed=0)
        assert np.isfinite(out).all()


def _layouts(X):
    """X as Fortran-ordered, transposed-view, strided and negative-stride
    arrays of equal value and dtype."""
    X = np.asarray(X)
    spread = np.zeros(tuple(2 * d for d in X.shape), X.dtype)
    spread[(slice(None, None, 2),) * X.ndim] = X
    return {
        "fortran": np.asfortranarray(X),
        "transposed": np.ascontiguousarray(X.T).T,
        "strided": spread[(slice(None, None, 2),) * X.ndim],
        "reversed": np.ascontiguousarray(X[::-1])[::-1],
    }


class TestArrayLayouts:
    """Every array entry point reads a Fortran-ordered, transposed or
    strided input as its C-ordered copy: the same result, to the bit."""

    n = 12

    @pytest.fixture(params=["real", "complex"])
    def system(self, request):
        rng = np.random.default_rng(3)
        A = sparse_simple_matrix(rng, self.n, density=0.3)
        b = rng.uniform(-1.0, 1.0, self.n)
        b[::3] = 0.0
        if request.param == "complex":
            A = A + 1j * np.where(A != 0, rng.uniform(-1.0, 1.0, A.shape), 0.0)
            b = b + 1j * np.where(b != 0, rng.uniform(-1.0, 1.0, self.n), 0.0)
        return A, b, left_eigenbasis(A)

    @staticmethod
    def variants(A, b, basis):
        """(layout, A, b, vectors, eigenvalues), each array in that layout."""
        arrays = [_layouts(x) for x in (A, b, basis.vectors, basis.eigenvalues)]
        for layout in arrays[0]:
            yield (layout, *(x[layout] for x in arrays))

    def test_layouts_hold_the_same_values(self, system):
        A, b, basis = system
        for layout, A2, b2, V2, lam2 in self.variants(A, b, basis):
            assert not A2.flags.c_contiguous or not b2.flags.c_contiguous, layout
            for x, y in ((A, A2), (b, b2), (basis.vectors, V2), (basis.eigenvalues, lam2)):
                assert x.dtype == y.dtype and np.array_equal(x, y), layout

    def test_solve_mcp(self, system):
        A, b, basis = system
        want = solve_mcp(A)
        for layout, A2, _, V2, lam2 in self.variants(A, b, basis):
            for got in (solve_mcp(A2), solve_mcp(A2, basis=LeftEigenbasis(lam2, V2))):
                assert got.support == want.support, layout
                assert got.vector.tobytes() == want.vector.tobytes(), layout
                assert got.certificate == want.certificate, layout

    def test_left_eigenbasis(self, system):
        A, b, basis = system
        for layout, A2, *_ in self.variants(A, b, basis):
            got = left_eigenbasis(A2)
            assert got.eigenvalues.tobytes() == basis.eigenvalues.tobytes(), layout
            assert got.vectors.tobytes() == basis.vectors.tobytes(), layout

    def test_supplied_basis_is_stored_c_ordered(self, system):
        A, b, basis = system
        for layout, _, _, V2, lam2 in self.variants(A, b, basis):
            got = LeftEigenbasis(lam2, V2)
            assert got.vectors.flags.c_contiguous, layout
            assert got.vectors.tobytes() == basis.vectors.tobytes(), layout

    def test_check_residuals(self, system):
        A, b, basis = system
        shifted = LeftEigenbasis(basis.eigenvalues + 1e-3, basis.vectors)
        with pytest.raises(EigensolveFailed) as want:
            check_residuals(A, shifted)
        for layout, A2, _, V2, lam2 in self.variants(A, b, basis):
            assert check_residuals(A2, LeftEigenbasis(lam2, V2)) is None, layout
            with pytest.raises(EigensolveFailed) as got:
                check_residuals(A2, LeftEigenbasis(lam2 + 1e-3, V2))
            assert str(got.value) == str(want.value), layout

    def test_kalman_test(self, system):
        A, b, basis = system
        want = kalman_test(A, b)
        for layout, A2, b2, *_ in self.variants(A, b, basis):
            assert kalman_test(A2, b2) == want, layout

    def test_pbh_eigenvalue_test(self, system):
        A, b, basis = system
        want = pbh_eigenvalue_test(A, b, basis.eigenvalues)
        for layout, A2, b2, _, lam2 in self.variants(A, b, basis):
            assert pbh_eigenvalue_test(A2, b2, lam2) == want, layout

    def test_pbh_eigenvector_test(self, system):
        A, b, basis = system
        want = pbh_eigenvector_test(basis, b)
        for layout, _, b2, V2, lam2 in self.variants(A, b, basis):
            assert pbh_eigenvector_test(LeftEigenbasis(lam2, V2), b2) == want, layout

    def test_verification_report(self, system):
        A, b, basis = system
        want = verification_report(b, A, basis)
        for layout, A2, b2, V2, lam2 in self.variants(A, b, basis):
            got = verification_report(b2, A2, LeftEigenbasis(lam2, V2))
            assert got == want, layout

    def test_structural_pattern(self, system):
        A, b, basis = system
        want = structural_pattern(b)
        assert want.nnz == np.count_nonzero(b)
        for layout, _, b2, V2, _ in self.variants(A, b, basis):
            assert structural_pattern(b2) == want, layout
            for v, v2 in zip(basis.vectors, V2):
                assert structural_pattern(v2) == structural_pattern(v), layout
