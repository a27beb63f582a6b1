import numpy as np
import pytest

from mincontrol import (
    DimensionMismatch,
    LeftEigenbasis,
    NumericalBreakdown,
    brute_force_mcp,
    kalman_test,
    left_eigenbasis,
    numerical_rank,
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



def reference_pbh_ranks(A, b, eigenvalues, rank_tol=None):
    """One complex pencil per eigenvalue, ranked in complex arithmetic."""
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    eye = np.eye(len(A))
    pencils = (
        np.hstack([A - ev * eye, b[:, None]]).astype(complex)
        for ev in np.asarray(eigenvalues, dtype=complex)
    )
    return tuple(numerical_rank(P, rank_tol) for P in pencils)


def real_spectrum_matrix(rng, n):
    """Sparse real matrix around diag(1..n): a real, simple spectrum."""
    A = np.diag(np.arange(1.0, n + 1) + rng.uniform(-0.1, 0.1, n))
    return A + (rng.random((n, n)) < 0.2) * rng.uniform(-0.3, 0.3, (n, n))


class TestPbhRanksAgainstComplexReference:
    """Real-arithmetic pencils reach the ranks of the complex reference."""

    def cases(self):
        rng = np.random.default_rng(404)
        for k in range(32):
            n = 4 + k % 9
            kind = k % 4
            if kind == 0:  # real, with a mixed real/complex spectrum
                A = rng.uniform(-1, 1, (n, n))
            elif kind == 1:  # real, with a real spectrum
                A = real_spectrum_matrix(rng, n)
            else:  # two modes living on coordinates 1 and 2: a complex pair
                A = real_spectrum_matrix(rng, n)
                A[:2, :2] = [[0.5, -2.0], [2.0, 0.5]]
                if kind == 3:  # complex A
                    A = A + 0.3j * rng.uniform(-1, 1, (n, n))
                A[:2, 2:] = 0.0
            b_real = rng.normal(size=n) * (rng.random(n) < 0.6)
            if kind >= 2:
                b_real[:2] = 0.0  # leaves those two modes uncontrollable
            b_complex = b_real + 1j * rng.normal(size=n) * (rng.random(n) < 0.5)
            lam = np.linalg.eigvals(A)
            for b in (b_real, b_complex):
                yield A, b, lam
                yield A.astype(complex), b.astype(complex), lam.astype(complex)

    def test_seeded_ranks(self):
        real_spectra = mixed_spectra = deficient = deficient_complex = 0
        for A, b, lam in self.cases():
            res = pbh_eigenvalue_test(A, b, lam)
            assert res.ranks == reference_pbh_ranks(A, b, lam)
            real_spectra += not lam.imag.any()
            mixed_spectra += bool(lam.imag.any())
            deficient += any(r < len(A) for r in res.ranks)
            deficient_complex += any(
                r < len(A) for r, ev in zip(res.ranks, lam) if ev.imag != 0
            )
        assert real_spectra and mixed_spectra and deficient and deficient_complex

    def test_explicit_rank_tol(self):
        rng = np.random.default_rng(405)
        for _ in range(10):
            A = real_spectrum_matrix(rng, 8)
            b = rng.normal(size=8) * (rng.random(8) < 0.5)
            lam = np.linalg.eigvals(A)
            for rank_tol in (1e-12, 1e-3, 0.2):
                for A_, b_ in ((A, b), (A.astype(complex), b + 0j)):
                    assert pbh_eigenvalue_test(A_, b_, lam, rank_tol).ranks == (
                        reference_pbh_ranks(A, b, lam, rank_tol)
                    )

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rank_deficient(self, dtype):
        A = np.diag([1.0, 2.0]).astype(dtype)
        b = np.array([1.0, 0.0], dtype=dtype)
        assert pbh_eigenvalue_test(A, b, [1.0, 2.0]).ranks == (2, 1)
        assert reference_pbh_ranks(A, b, [1.0, 2.0]) == (2, 1)

    @pytest.mark.parametrize(
        "A, b, eigenvalues, dtypes",
        [
            (np.diag([1.0, 2.0]) + 0j, [1.0, 1.0], [1.0, 2.0], ["float64"] * 2),
            (np.diag([1.0, 2.0]), [1.0, 1j], [1.0, 2.0], ["complex128"] * 2),
            (np.diag([1.0, 2.0]), [1.0, 1.0], [1.0, 2.0 + 0j], ["float64"] * 2),
            (
                np.diag([1.0, 2.0]),
                [1.0, 1.0],
                [1.0, 2.0 + 1e-300j],
                ["float64", "complex128"],
            ),
            (np.diag([1.0, 2.0 + 1e-300j]), [1.0, 1.0], [1.0, 2.0], ["complex128"] * 2),
        ],
    )
    def test_arithmetic_follows_the_values(self, monkeypatch, A, b, eigenvalues, dtypes):
        seen = []
        svd = np.linalg.svd

        def spy(X, *args, **kwargs):
            seen.append(X.dtype.name)
            return svd(X, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        pbh_eigenvalue_test(A, b, eigenvalues)
        assert seen == dtypes


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
