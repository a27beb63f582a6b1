import numpy as np
import pytest

from mincontrol import (
    DimensionMismatch,
    LeftEigenbasis,
    NumericalBreakdown,
    brute_force_mcp,
    kalman_test,
    left_eigenbasis,
    pbh_eigenvalue_test,
    pbh_eigenvector_test,
    solve_mcp,
    verification_report,
)
from conftest import GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS, random_simple_matrix

B_WORKED = np.array([0.0, 1.0, 1.0, 1.0, 0.0])


@pytest.fixture(scope="module")
def integer_basis(golden_a):
    return LeftEigenbasis.from_pairs(GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS, A=golden_a)


class TestPbhEigenvalue:
    def test_worked_controllable(self, golden_a):
        res = pbh_eigenvalue_test(golden_a, B_WORKED, GOLDEN_EIGENVALUES)
        assert res.controllable
        assert res.ranks == (5, 5, 5, 5, 5)

    def test_decoupled_mode(self):
        res = pbh_eigenvalue_test(np.diag([1.0, 2.0]), [1.0, 0.0], [1.0, 2.0])
        assert not res.controllable
        assert res.ranks == (2, 1)

    def test_unit_vector_fails(self, golden_a):
        res = pbh_eigenvalue_test(golden_a, np.eye(5)[1], GOLDEN_EIGENVALUES)
        assert not res.controllable

    def test_dimension_mismatch(self, golden_a):
        with pytest.raises(DimensionMismatch):
            pbh_eigenvalue_test(golden_a, [1.0, 0.0], GOLDEN_EIGENVALUES)


class TestPbhEigenvector:
    def test_worked_inner_products(self, integer_basis):
        res = pbh_eigenvector_test(integer_basis, B_WORKED)
        assert res.controllable
        assert res.violator is None
        assert res.min_inner == pytest.approx(1.0)
        # the worked constraints: b2, b3, b4, b2, b3 + b4
        inners = [abs(np.vdot(v, B_WORKED)) for v in integer_basis.vectors]
        assert inners == [1.0, 1.0, 1.0, 1.0, 2.0]

    def test_violating_unit_vector(self, integer_basis):
        res = pbh_eigenvector_test(integer_basis, np.eye(5)[1])
        assert not res.controllable
        assert res.violator == 2
        assert res.min_inner == pytest.approx(0.0)

    def test_zero_vector(self, integer_basis):
        res = pbh_eigenvector_test(integer_basis, np.zeros(5))
        assert not res.controllable
        assert res.violator == 1

    def test_scaling_invariance(self, integer_basis):
        rng = np.random.default_rng(2)
        b = rng.normal(size=5)
        base = pbh_eigenvector_test(integer_basis, b).controllable
        for alpha in (2.0, 1e9, 1e-9, -3.0, 1j):
            assert pbh_eigenvector_test(integer_basis, alpha * b).controllable == base


class TestKalman:
    def test_worked_rank(self, golden_a):
        res = kalman_test(golden_a, B_WORKED)
        assert res.controllable
        assert res.rank == 5

    def test_scalar_zero(self):
        res = kalman_test(np.array([[0.0]]), [0.0])
        assert not res.controllable
        assert res.rank == 0

    def test_pipeline_self_check(self):
        rng = np.random.default_rng(8)
        A = random_simple_matrix(rng, 4)
        solution = solve_mcp(A)
        assert kalman_test(A, solution.vector).controllable


class TestEquivalence:
    def test_all_tests_agree_on_exact_integer_example(self, golden_a, integer_basis):
        report = verification_report(
            B_WORKED, A=golden_a, basis=integer_basis
        )
        assert report.consistent
        assert report.controllable

    def test_random_pairs_agree(self):
        rng = np.random.default_rng(77)
        disagreements = []
        for _ in range(40):
            n = int(rng.integers(3, 7))
            A = random_simple_matrix(rng, n)
            b = rng.uniform(-1.0, 1.0, n)
            basis = left_eigenbasis(A)
            report = verification_report(b, A=A, basis=basis)
            if not report.consistent:
                disagreements.append((A, b, report))
        assert disagreements == []


class TestVerificationReport:
    def test_full_report(self, golden_a, integer_basis):
        report = verification_report(B_WORKED, A=golden_a, basis=integer_basis)
        assert report.kalman is not None
        assert report.pbh_eigenvalue is not None
        assert report.pbh_eigenvector is not None
        assert report.verdicts == (True, True, True)

    def test_matrix_only(self, golden_a):
        report = verification_report(B_WORKED, A=golden_a)
        assert report.kalman is not None
        assert report.pbh_eigenvalue is None
        assert report.pbh_eigenvector is None
        assert report.controllable

    def test_basis_only(self, integer_basis):
        report = verification_report(B_WORKED, basis=integer_basis)
        assert report.kalman is None
        assert report.controllable  # certificate falls back to the eigenvector test

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            verification_report(B_WORKED)

    def test_kalman_breakdown_is_inconclusive(self):
        # [b, Ab, A^2 b] overflows: kalman_test raises, the report and the
        # oracle record an undefined rank and a negative verdict instead.
        A = np.diag([1e200, 2e200, 3e200])
        b = np.ones(3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalBreakdown):
                kalman_test(A, b)
            report = verification_report(b, A=A, basis=left_eigenbasis(A))
            oracle = brute_force_mcp(A)
        assert report.kalman.rank is None
        assert not report.kalman.controllable
        assert not report.controllable
        assert report.pbh_eigenvector.controllable
        assert oracle.kalman_verdicts == (False,)

    def test_tolerances_recorded(self, golden_a, integer_basis):
        report = verification_report(
            B_WORKED, A=golden_a, basis=integer_basis, rank_tol=1e-12, tau=1e-8
        )
        assert report.rank_tol == 1e-12
        assert report.tau == 1e-8
