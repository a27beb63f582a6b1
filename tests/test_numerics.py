import numpy as np
import pytest

from mincontrol import (
    DimensionMismatch,
    EigensolveFailed,
    LeftEigenbasis,
    NotSimple,
    NumericalBreakdown,
    check_residuals,
    controllability_matrix,
    is_simple,
    left_eigenbasis,
    numerical_rank,
    perturb_nonzero,
)
from conftest import (
    GOLDEN_EIGENVALUES,
    GOLDEN_KRYLOV_ROWS,
    GOLDEN_LEFT_EIGENVECTORS,
    random_simple_matrix,
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


class TestUserSuppliedBasis:
    def test_from_pairs_validates_residual(self, golden_a):
        basis = LeftEigenbasis.from_pairs(
            GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS, A=golden_a
        )
        assert basis.source == "user-supplied"
        assert basis.n == 5

    def test_from_pairs_bad_vectors(self, golden_a):
        wrong = GOLDEN_LEFT_EIGENVECTORS.copy()
        wrong[0, 0] = 5.0
        with pytest.raises(EigensolveFailed):
            LeftEigenbasis.from_pairs(GOLDEN_EIGENVALUES, wrong, A=golden_a)

    def test_pair_count_mismatch(self):
        with pytest.raises(DimensionMismatch):
            LeftEigenbasis.from_pairs([1.0, 2.0], np.eye(3))

    def test_repeated_eigenvalues_rejected(self):
        with pytest.raises(NotSimple):
            LeftEigenbasis.from_pairs([1.0, 1.0], np.eye(2))

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            LeftEigenbasis.from_pairs([1.0, 2.0], np.array([[1.0, 0.0], [0.0, 0.0]]))


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


class TestCheckResiduals:
    def test_svd_failure_is_numerical_breakdown(self, monkeypatch, golden_a):
        basis = LeftEigenbasis(GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(NumericalBreakdown, match="2-norm"):
            check_residuals(golden_a, basis)


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
