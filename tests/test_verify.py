import numpy as np
import pytest
from scipy.linalg import hessenberg

from mincontrol import (
    DimensionMismatch,
    KalmanResult,
    LeftEigenbasis,
    brute_force_mcp,
    check_residuals,
    kalman_test,
    left_eigenbasis,
    pbh_eigenvalue_test,
    pbh_eigenvector_test,
    solve_mcp,
    verification_report,
)
from mincontrol import verify
from mincontrol.setcover import EXACT_UNIVERSE_LIMIT
from mincontrol.tolerances import DEFAULT_GAP_TOL
from conftest import (
    GOLDEN_EIGENVALUES,
    GOLDEN_LEFT_EIGENVECTORS,
    controllability_matrix,
    numerical_rank,
    random_simple_matrix,
    sparse_simple_matrix,
)

B_WORKED = np.array([0.0, 1.0, 1.0, 1.0, 0.0])


def checked_basis(A, eigenvalues, vectors, gap_tol=DEFAULT_GAP_TOL):
    """A supplied basis, checked against A as ``solve_mcp`` checks it."""
    basis = LeftEigenbasis(eigenvalues, vectors, gap_tol=gap_tol)
    check_residuals(A, basis)
    return basis


@pytest.fixture(scope="module")
def integer_basis(golden_a):
    return checked_basis(golden_a, GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS)


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

    @pytest.mark.parametrize(
        "eigenvalues, error, message",
        [
            ([], DimensionMismatch, "expected a nonempty vector"),
            ([[1.0, 2.0]], DimensionMismatch, "expected a nonempty vector"),
            ([1.0, np.nan], ValueError, "vector entries must be finite"),
        ],
    )
    def test_eigenvalues_are_a_finite_vector(self, eigenvalues, error, message):
        with pytest.raises(error, match=message):
            pbh_eigenvalue_test(np.diag([1.0, 2.0]), [1.0, 1.0], eigenvalues)



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


def staircase_reference_ranks(A, b, eigenvalues, rank_tol):
    """The staircase contract, computed independently of ``verify``.

    Scale A and b by the powers of two that bring their largest real or
    imaginary part into [1/2, 1), reflect b to beta e1 in numpy, reduce
    with LAPACK gehrd (``scipy.linalg.hessenberg``, which fixes e1), and
    count the singular values of [beta e1 | H - s lambda I] above
    delta = rank_tol * ||sA||_F.
    """
    A = np.asarray(A, dtype=complex)
    b = np.asarray(b, dtype=complex)
    n = len(b)
    s = 2.0 ** -np.frexp(np.abs(A.view(float)).max())[1]
    A = s * A
    b = b * 2.0 ** -np.frexp(np.abs(b.view(float)).max())[1]
    beta = np.linalg.norm(b)
    reflector = np.eye(n, dtype=complex)
    if beta > 0:
        v = b.copy()
        v[0] += (b[0] / abs(b[0]) if b[0] != 0 else 1.0) * beta
        v /= np.linalg.norm(v)
        reflector -= 2 * np.outer(v, v.conj())
    form = np.column_stack([beta * np.eye(n)[0], hessenberg(reflector @ A @ reflector)])
    delta = rank_tol * np.linalg.norm(A)
    return tuple(
        int(np.sum(np.linalg.svd(form - s * ev * np.eye(n, n + 1, 1), compute_uv=False) > delta))
        for ev in np.asarray(eigenvalues, dtype=complex)
    )


def unitary(rng, n, complex_entries):
    """A dense random orthogonal (or unitary) matrix: Q of a Gaussian's QR."""
    Z = rng.normal(size=(n, n))
    if complex_entries:
        Z = Z + 1j * rng.normal(size=(n, n))
    return np.linalg.qr(Z)[0]


def spy_pencil_svds(monkeypatch):
    """Spy on the pencil SVDs: the list holds, per ``_ranks`` call, the
    number of pencils that call took an SVD of."""
    calls = []
    ranks, svd = verify._ranks, np.linalg.svd

    def ranks_spy(*args):
        calls.append(0)
        return ranks(*args)

    def svd_spy(X, *args, **kwargs):
        if X.shape[1] == X.shape[0] + 1:
            calls[-1] += 1
        return svd(X, *args, **kwargs)

    monkeypatch.setattr(verify, "_ranks", ranks_spy)
    monkeypatch.setattr(np.linalg, "svd", svd_spy)
    return calls


def spy_staircase(monkeypatch):
    """Spy on the staircase reductions: the list holds each one's k."""
    calls = []
    reduce = verify._reduce

    def spy(*args, **kwargs):
        form = reduce(*args, **kwargs)
        calls.append(form.k)
        return form

    monkeypatch.setattr(verify, "_reduce", spy)
    return calls


def check_ranked_once(monkeypatch, A, b, basis):
    """``verification_report`` gives the stand-alone tests' results, and on
    a k = n pair takes at most n pencil SVDs plus one per deficient PBH
    rank (a mode next to a deficient shift takes no bound from it)."""
    calls = spy_pencil_svds(monkeypatch)
    report = verification_report(b, A=A, basis=basis)
    monkeypatch.undo()
    n = len(A)
    deficient = sum(r < n for r in report.pbh_eigenvalue.ranks)
    if verify.staircase(A, b).k == n:
        assert sum(calls) <= n + deficient
    assert report.kalman == kalman_test(A, b)
    assert report.pbh_eigenvalue == pbh_eigenvalue_test(A, b, basis.eigenvalues)
    return report


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
        # Real and complex arithmetic agree at every threshold. At 1e-12 the
        # ranks are those of the whole-pencil SVD; at the coarse thresholds,
        # where the two rules differ, they follow the staircase contract.
        rng = np.random.default_rng(405)
        coarse_deficits = 0
        for _ in range(10):
            A = real_spectrum_matrix(rng, 8)
            b = rng.normal(size=8) * (rng.random(8) < 0.5)
            lam = np.linalg.eigvals(A)
            for rank_tol in (1e-12, 1e-3, 0.2):
                ranks = pbh_eigenvalue_test(A, b, lam, rank_tol).ranks
                complex_ranks = pbh_eigenvalue_test(A + 0j, b + 0j, lam, rank_tol).ranks
                assert complex_ranks == ranks
                if rank_tol == 1e-12:
                    assert ranks == reference_pbh_ranks(A, b, lam, rank_tol)
                else:
                    assert ranks == staircase_reference_ranks(A, b, lam, rank_tol)
                    coarse_deficits += any(r < 8 for r in ranks)
        assert coarse_deficits

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_rank_deficient(self, dtype):
        A = np.diag([1.0, 2.0]).astype(dtype)
        b = np.array([1.0, 0.0], dtype=dtype)
        assert pbh_eigenvalue_test(A, b, [1.0, 2.0]).ranks == (2, 1)
        assert reference_pbh_ranks(A, b, [1.0, 2.0]) == (2, 1)

    def test_rotated_ranks(self, monkeypatch):
        # The same pairs under a dense unitary similarity: no exact zero is
        # left for the staircase to cut at, yet the PBH ranks still match
        # the reference and the Kalman rank drops one per unreachable mode.
        # The combined report ranks each pencil once and agrees with both.
        rng = np.random.default_rng(406)
        deficient = 0
        for A, b, lam in self.cases():
            Q = unitary(rng, len(A), np.iscomplexobj(A) or np.iscomplexobj(b))
            A, b = Q @ A @ Q.conj().T, Q @ b
            ranks = reference_pbh_ranks(A, b, lam)
            assert pbh_eigenvalue_test(A, b, lam).ranks == ranks
            unreachable = sum(r < len(A) for r in ranks)
            assert kalman_test(A, b) == KalmanResult(
                controllable=not unreachable, rank=len(A) - unreachable
            )
            check_ranked_once(monkeypatch, A, b, left_eigenbasis(A))
            deficient += bool(unreachable)
        assert deficient

    @pytest.mark.parametrize(
        "A, b, eigenvalues, dtypes",
        [
            (np.diag([1.0, 2.0]) + 0j, [1.0, 1.0], [1.0, 2.0], ("float64", [])),
            (np.diag([1.0, 2.0]), [1.0, 1j], [1.0, 2.0], ("complex128", [])),
            (np.diag([1.0, 2.0]), [1.0, 1.0], [1.0, 2.0 + 0j], ("float64", [])),
            (np.diag([1.0, 2.0]), [1.0, 1.0], [1.0, 2.0 + 1e-300j], ("float64", [])),
            (np.diag([1.0, 2.0 + 1e-300j]), [1.0, 1.0], [1.0, 2.0], ("complex128", [])),
            (np.diag([1.0, 2.0]), [1.0, 0.0], [1.0, 2.0], ("float64", ["float64"])),
            (np.diag([1.0, 2.0]), [1.0, 0.0], [1.0, 2.0 + 1e-300j], ("float64", ["complex128"])),
            (np.diag([1.0, 2.0 + 1e-300j]), [1.0, 0.0], [1.0, 2.0], ("complex128", ["complex128"])),
        ],
    )
    def test_arithmetic_follows_the_values(self, monkeypatch, A, b, eigenvalues, dtypes):
        # dtypes: the arithmetic of the scaled pair (the bound's and the
        # staircase reduction's) and of each pencil SVD that settles a rank
        # the bound could not (only where a pencil is rank deficient). The
        # reduction runs only there: elsewhere the whole-plane bound clears
        # the pair.
        pairs, reductions, ranked = [], [], []
        scaled_pair, reduce, svd = verify._scaled_pair, verify._reduce, np.linalg.svd

        def scaled_pair_spy(*args):
            pair = scaled_pair(*args)
            pairs.append(pair[0].dtype.name)
            return pair

        def reduce_spy(*args, **kwargs):
            form = reduce(*args, **kwargs)
            reductions.append(form.form.dtype.name)
            return form

        def svd_spy(X, *args, **kwargs):
            if X.shape[1] == X.shape[0] + 1:
                ranked.append(X.dtype.name)
            return svd(X, *args, **kwargs)

        monkeypatch.setattr(verify, "_scaled_pair", scaled_pair_spy)
        monkeypatch.setattr(verify, "_reduce", reduce_spy)
        monkeypatch.setattr(np.linalg, "svd", svd_spy)
        pbh_eigenvalue_test(A, b, eigenvalues)
        assert set(pairs) == {dtypes[0]}
        assert (reductions, ranked) == ([dtypes[0]] if dtypes[1] else [], dtypes[1])


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


def reference_pbh_vec(basis, b, tau=1e-10):
    """pbh_eigenvector_test's per-pair loop: the first violator and the
    smallest |v . b|, each inner product by np.vdot and each norm on its own."""
    b = np.asarray(b, dtype=complex)
    nb = np.linalg.norm(b)
    inners = [abs(np.vdot(v, b)) for v in basis.vectors]
    violators = [
        j
        for j, (inner, v) in enumerate(zip(inners, basis.vectors), start=1)
        if inner <= tau * np.linalg.norm(v) * nb
    ]
    return (violators or [None])[0], min(inners)


class TestPbhEigenvectorAgainstLoop:
    """The violator and the bits of min_inner equal the per-pair loop's."""

    def check(self, basis, b, tau=1e-10):
        res = pbh_eigenvector_test(basis, b, tau)
        violator, min_inner = reference_pbh_vec(basis, b, tau)
        assert (res.violator, res.controllable) == (violator, violator is None)
        assert np.float64(res.min_inner).tobytes() == np.float64(min_inner).tobytes()
        return violator

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_bases(self, seed):
        # n = 64-100, the benchmark's mcp-large family; b on one, three or
        # all positions, so that some vectors are nearly orthogonal to b.
        rng = np.random.default_rng(60 + seed)
        violators = []
        for n in (64, 82, 100):
            basis = left_eigenbasis(sparse_simple_matrix(rng, n))
            for size in (1, 3, n):
                b = np.zeros(n, dtype=complex)
                b[rng.choice(n, size, replace=False)] = rng.uniform(0.5, 2.0, size)
                violators.append(self.check(basis, b))
        assert violators.count(None) >= 3 and len(set(violators)) >= 3

    @pytest.mark.parametrize("seed", range(3))
    def test_tau_at_a_pairs_own_ratio(self, seed):
        # tau is pair j's ratio |v_j . b| / (||v_j|| ||b||) moved by
        # 16 (n + 2) eps / ratio relative: within the one product's
        # rounding margin, so the per-pair loop decides, and j violates
        # exactly when tau lies above its ratio.
        rng = np.random.default_rng(70 + seed)
        n = 20 + 20 * seed
        basis = left_eigenbasis(random_simple_matrix(rng, n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ratios = [
            abs(np.vdot(v, b)) / (np.linalg.norm(v) * np.linalg.norm(b)) for v in basis.vectors
        ]
        for j in np.argsort(ratios)[:5]:
            for sign in (-1, 1):
                shift = sign * 16 * (n + 2) * np.finfo(float).eps / ratios[j]
                tau = ratios[j] * (1 + shift)
                violator = self.check(basis, b, tau)
                assert (violator == j + 1) == (sign > 0 and j == np.argmin(ratios[: j + 1]))

    def test_non_finite_products(self):
        # Rows of +-2^1000 overflow their inner products with b to inf or
        # NaN; they clear nothing, so np.vdot takes them: the first inf
        # row violates (inf <= inf), and no NaN is ever the smallest.
        rng = np.random.default_rng(75)
        n = 8
        V = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        V[5], V[7] = 2.0**1000, 2.0**1000
        V[6] = 2.0**1000 * np.resize([1, -1], n)
        basis = LeftEigenbasis(np.arange(n, dtype=float), V)
        b = 2.0**100 * np.ones(n)
        inners = [np.vdot(v, b) for v in V]
        assert np.isinf(inners[5]) and np.isnan(inners[6])
        assert self.check(basis, b) == 6


class TestKalman:
    def test_worked_rank(self, golden_a):
        res = kalman_test(golden_a, B_WORKED)
        assert res.controllable
        assert res.rank == 5

    def test_scalar_zero(self):
        res = kalman_test(np.array([[0.0]]), [0.0])
        assert not res.controllable
        assert res.rank == 0

    def test_matches_krylov_reference(self):
        # Against the rank of the explicit [b, Ab, ..., A^(n-1) b], which is
        # well enough conditioned to rank at n <= 6: block-triangular pairs
        # with a known reachable dimension k, under a dense similarity.
        rng = np.random.default_rng(13)
        for trial in range(60):
            n = 3 + trial % 4
            k = trial % (n + 1)
            A = rng.uniform(-1, 1, (n, n))
            b = np.zeros(n)
            b[:k] = rng.uniform(-1, 1, k)
            A[k:, :k] = 0
            Q = unitary(rng, n, trial % 2 == 1)
            A, b = Q @ A @ Q.conj().T, Q @ b
            assert numerical_rank(controllability_matrix(A, b), 1e-10) == k
            assert kalman_test(A, b) == KalmanResult(controllable=k == n, rank=k)

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
        # [b, Ab, A^2 b] would overflow, but the staircase never forms it:
        # the pair is certified, with no overflow anywhere on the way.
        A = np.diag([1e200, 2e200, 3e200])
        b = np.ones(3)
        with np.errstate(over="raise", invalid="raise"):
            kalman = kalman_test(A, b)
            report = verification_report(b, A=A, basis=left_eigenbasis(A))
            oracle = brute_force_mcp(A)
        assert kalman == KalmanResult(controllable=True, rank=3)
        assert report.kalman == kalman
        assert report.pbh_eigenvalue.ranks == (3, 3, 3)
        assert report.controllable and report.consistent
        assert report.pbh_eigenvector.controllable
        assert oracle.optimal_supports == ((1, 2, 3),)
        assert oracle.kalman_verdicts == (True,)

    def test_inaccurate_basis_modes_clear_by_extension(self, monkeypatch):
        # Eigenvalues moved by about 10 delta still pass the residual check.
        # The basis bound counts the move in ||E|| and still clears the
        # whole plane, so no reduction runs. With the whole-plane bound
        # withheld it clears every PBH shift by far more than 10 delta, so
        # every Kalman mode, 10 delta from its shift, clears too: no pencil
        # takes an SVD. Both give the results of the stand-alone tests.
        rng = np.random.default_rng(409)
        A = real_spectrum_matrix(rng, 8)
        b = rng.normal(size=8)
        form = verify.staircase(A, b)
        computed = left_eigenbasis(A)
        moved = computed.eigenvalues + 10 * form.tol / 2.0**form.scale
        basis = checked_basis(A, moved, computed.vectors)
        assert form.k == 8 and not moved.imag.any()
        reductions = spy_staircase(monkeypatch)
        gated = verification_report(b, A=A, basis=basis)
        assert reductions == []
        lower_bound = verify._lower_bound
        monkeypatch.setattr(verify, "_lower_bound", lambda *args: (lower_bound(*args)[0], 0.0))
        calls = spy_pencil_svds(monkeypatch)
        report = verification_report(b, A=A, basis=basis)
        monkeypatch.undo()
        assert calls == [0, 0] and report == gated
        assert report.kalman == kalman_test(A, b) == KalmanResult(controllable=True, rank=8)
        assert report.pbh_eigenvalue.controllable
        assert report.pbh_eigenvalue == pbh_eigenvalue_test(A, b, moved)

    def test_tolerances_recorded(self, golden_a, integer_basis):
        report = verification_report(
            B_WORKED, A=golden_a, basis=integer_basis, rank_tol=1e-12, tau=1e-8
        )
        assert report.rank_tol == 1e-12
        assert report.tau == 1e-8


def sparse_system(rng, n, density=0.02):
    """Diagonal 1..n with jitter, plus off-diagonal entries of the given density."""
    A = np.diag(np.arange(1.0, n + 1) + rng.uniform(-0.1, 0.1, n))
    return A + (rng.random((n, n)) < density) * rng.uniform(-1.0, 1.0, (n, n))


def scaled_pencil_sigma_min(A, b, form, eigenvalues):
    """SVD sigma_min of [t b | sA - s lambda I] per eigenvalue, in the units
    of ``form``: s = 2^scale, t the power of two that brings b's largest
    real or imaginary part into [1/2, 1)."""
    sA = np.asarray(A, dtype=complex) * 2.0**form.scale
    b = np.asarray(b, dtype=complex)
    tb = b * 2.0 ** -np.frexp(np.abs(b.view(float)).max())[1]
    eye = np.eye(len(b))
    return np.array(
        [
            np.linalg.svd(np.column_stack([tb, sA - 2.0**form.scale * ev * eye]), compute_uv=False)[-1]
            for ev in np.asarray(eigenvalues, dtype=complex)
        ]
    )


def basis_bound(A, b, basis, rank_tol=None):
    """``_lower_bound`` of the scaled pair [t b | sA - s lambda I] at the
    basis eigenvalues and over the plane, as ``verification_report`` takes
    it, with the form."""
    form = verify.staircase(A, b, rank_tol)
    shifts = verify._scaled_eigenvalues(form.scale, basis.eigenvalues)
    b = np.asarray(b, dtype=complex)
    sA = np.asarray(A, dtype=complex) * 2.0**form.scale
    tb = verify.times_power_of_two(b, verify.power_of_two_exponent(b))
    return (*verify._lower_bound(sA, tb, basis.vectors.conj(), shifts), form)


def zero_bound(M, v, U, mu):
    return np.zeros(mu.size), 0.0


def plane_samples(rng, eigenvalues, count=24):
    """Eigenvalues, midpoints of random pairs of them and uniform points
    of their bounding box, widened by a tenth of the largest modulus:
    where the smallest sigma_min over the plane may lie."""
    lam = np.asarray(eigenvalues, dtype=complex)
    pad = np.abs(lam).max() / 10
    i, j = rng.integers(lam.size, size=(2, count))
    re = rng.uniform(lam.real.min() - pad, lam.real.max() + pad, count)
    im = rng.uniform(lam.imag.min() - pad, lam.imag.max() + pad, count)
    return np.concatenate([lam, (lam[i] + lam[j]) / 2, re + 1j * im])


class TestBasisBound:
    """The eigenbasis lower bound on sigma_min of every PBH pencil."""

    @staticmethod
    def check_sound(A, b, basis, rank_tol=None):
        """Neither the bound at the shifts nor the whole-plane bound exceeds
        the SVD's sigma_min, the latter at the eigenvalues and at sampled
        points of the plane; returns the share of shifts the bound clears
        (above 2 delta)."""
        bound, whole, form = basis_bound(A, b, basis, rank_tol)
        sigma = scaled_pencil_sigma_min(A, b, form, basis.eigenvalues)
        assert (bound <= sigma).all() and whole <= bound.min()
        points = plane_samples(np.random.default_rng(len(b)), basis.eigenvalues, 12)[len(b) :]
        assert whole <= scaled_pencil_sigma_min(A, b, form, points).min()
        return np.mean(bound > 2 * form.tol)

    def test_dense_and_sparse(self):
        rng = np.random.default_rng(420)
        cleared = []
        for n in (5, 20, 60):
            A = random_simple_matrix(rng, n)
            for b in (rng.normal(size=n), rng.normal(size=n) * (rng.random(n) < 0.3)):
                self.check_sound(A, b, left_eigenbasis(A))
        for n in (20, 100, 200):
            A = sparse_system(rng, n)
            cleared.append(self.check_sound(A, rng.normal(size=n), left_eigenbasis(A)))
            if n < 200:
                self.check_sound(A, rng.normal(size=n) * (rng.random(n) < 0.3), left_eigenbasis(A))
        # on sparse systems with a dense b the bound clears nearly every shift
        assert min(cleared) > 0.9

    def test_non_normal_systems(self):
        # Strong upper-triangular coupling makes the eigenvector matrix
        # ill-conditioned (condition numbers up to about 2e6 here). In the
        # 2x2 pair the bound lies within 4% of sigma_min / sigma_max(U),
        # so it depends on the division by sigma_max(U).
        rng = np.random.default_rng(427)
        for n in (4, 8, 12):
            for c in (1.0, 5.0, 20.0):
                A = np.diag(np.arange(1.0, n + 1)) + c * np.triu(rng.uniform(-1, 1, (n, n)), 1)
                assert self.check_sound(A, rng.normal(size=n), left_eigenbasis(A)) == 1.0
        A = np.array([[-0.5379008593666206, -1.910165137561883], [0.0, 1.3903518696792778]])
        self.check_sound(A, [-0.5083766305175591, -0.00890182842059353], left_eigenbasis(A))

    def test_complex_matrices(self):
        rng = np.random.default_rng(421)
        for n in (4, 12, 30):
            A = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert self.check_sound(A, b, left_eigenbasis(A)) > 0.5

    def test_real_matrix_with_rounding_level_imaginary_parts(self):
        # zgeev returns the real eigenvalues of a dense real matrix with
        # imaginary parts at the rounding level, and vectors likewise.
        rng = np.random.default_rng(422)
        seen = 0
        for n in (8, 15, 34):
            A = rng.uniform(-1, 1, (n, n))
            basis = left_eigenbasis(A)
            lam = basis.eigenvalues
            seen += bool(((lam.imag != 0) & (abs(lam.imag) < 1e-12)).any())
            self.check_sound(A, rng.normal(size=n), basis)
        assert seen

    def test_user_basis_near_residual_tol(self):
        # Vectors and eigenvalues moved until their residuals sit a few
        # times below residual_tol: check_residuals accepts the basis, ||E||
        # grows, and the bound stays below the SVD's sigma_min.
        rng = np.random.default_rng(423)
        for n in (6, 30):
            A = sparse_system(rng, n, 0.2)
            computed = left_eigenbasis(A)
            norm = np.linalg.norm(A, 2)
            dlam, dV = norm * rng.uniform(-1, 1, n), rng.normal(size=(n, n)) / np.sqrt(n)

            def residuals(eta):
                V = computed.vectors + eta * dV
                R = V.conj() @ A - (computed.eigenvalues + eta * dlam)[:, None] * V.conj()
                return np.linalg.norm(R, axis=1) / np.linalg.norm(V, axis=1)

            eta = 0.8e-8 * norm / residuals(1e-9).max() * 1e-9
            assert 0.5e-8 * norm < residuals(eta).max() < 1e-8 * norm
            basis = checked_basis(
                A, computed.eigenvalues + eta * dlam, computed.vectors + eta * dV
            )
            self.check_sound(A, rng.normal(size=n), basis)
            # b within 1e-12 of orthogonal to the first computed eigenvector:
            # the moved basis sees |w_1| of order eta, and only ||E||
            # keeps the bound below the pencil's sigma_min
            v = computed.vectors[0]
            b = rng.normal(size=n)
            b = b - v * np.vdot(v, b) / np.vdot(v, v) + 1e-12 * rng.normal(size=n)
            assert self.check_sound(A, b, basis) < 1

    @pytest.mark.parametrize("c", [1e-12, 1e-6, 1.0, 1e6, 1e12])
    def test_scaled_golden(self, golden_a, c):
        basis = checked_basis(
            c * golden_a, c * GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS, gap_tol=1e-15
        )
        assert self.check_sound(c * golden_a, B_WORKED, basis) == 1.0

    def test_huge_entries(self):
        # The dense matrix's basis is its unit-scale eigenbasis with the
        # eigenvalues scaled, exact up to the rounding of the products.
        rng = np.random.default_rng(424)
        unit = left_eigenbasis(random_simple_matrix(rng, 6))
        dense = np.linalg.solve(unit.vectors.conj(), unit.eigenvalues[:, None] * unit.vectors.conj())
        for A, basis in (
            (np.diag([1e200, 2e200, 3e200]), left_eigenbasis(np.diag([1e200, 2e200, 3e200]))),
            (1e200 * dense, LeftEigenbasis(1e200 * unit.eigenvalues, unit.vectors)),
        ):
            b = np.ones(len(A))
            with np.errstate(over="raise", invalid="raise"):
                bound, whole, form = basis_bound(A, b, basis)
                report = verification_report(b, A=A, basis=basis)
            sigma = scaled_pencil_sigma_min(A, b, form, basis.eigenvalues)
            assert (bound <= sigma).all() and (bound > 2 * form.tol).all()
            assert 2 * form.tol < whole <= bound.min()
            assert report.controllable and report.consistent

    def test_orthogonal_eigenvector_falls_through(self, golden_a, integer_basis):
        # e2 is orthogonal to three left eigenvectors of the golden system:
        # w_j = 0 there, so those shifts go to the pencil ranks.
        b = np.eye(5)[1]
        bound, whole, form = basis_bound(golden_a, b, integer_basis)
        orthogonal = integer_basis.vectors @ b == 0
        assert orthogonal.sum() == 3
        assert (bound[orthogonal] <= 2 * form.tol).all()
        assert (bound[~orthogonal] > 2 * form.tol).all()
        assert whole <= 2 * form.tol
        report = verification_report(b, A=golden_a, basis=integer_basis)
        assert report.pbh_eigenvalue == pbh_eigenvalue_test(golden_a, b, GOLDEN_EIGENVALUES)
        assert sum(r < 5 for r in report.pbh_eigenvalue.ranks) == 3

    def test_near_repeated_pair_falls_through(self):
        # Two eigenvalues 4e-15 apart: min_i d_i / 2 keeps both bounds
        # below 2 delta, also when b misses one of the pair's eigenvectors
        # (then w alone would not see the pair), and the pencil ranks
        # decide them.
        A = np.diag([1.0, 1.0 + 4e-15, 3.0])
        basis = checked_basis(A, np.diag(A), np.eye(3), gap_tol=1e-16)
        for b in (np.ones(3), np.array([0.0, 1.0, 1.0])):
            bound, whole, form = basis_bound(A, b, basis)
            assert (bound[:2] <= 2 * form.tol).all() and bound[2] > 2 * form.tol
            assert whole <= 2 * form.tol
            self.check_sound(A, b, basis)
            report = verification_report(b, A=A, basis=basis)
            assert report.pbh_eigenvalue == pbh_eigenvalue_test(A, b, np.diag(A))

    def test_zero_bound_changes_no_result(self, monkeypatch, golden_a, integer_basis):
        # With every bound at zero no pair passes the gate and every pencil
        # takes an SVD: the report (ranks, Kalman result, verdicts) is the
        # same, and so are the stand-alone tests' results.
        rng = np.random.default_rng(425)
        cases = [(golden_a, B_WORKED, integer_basis), (golden_a, np.eye(5)[1], integer_basis)]
        for n in (10, 40, 100):
            A = sparse_system(rng, n)
            cases.append((A, rng.normal(size=n), left_eigenbasis(A)))
            A = random_simple_matrix(rng, n // 2)
            cases.append((A, rng.normal(size=n // 2) * (rng.random(n // 2) < 0.5), left_eigenbasis(A)))
        for A, b, lam in TestPbhRanksAgainstComplexReference().cases():
            cases.append((A, b, left_eigenbasis(A)))
        deficient = gated = 0
        for A, b, basis in cases:
            reductions = spy_staircase(monkeypatch)
            results = (
                verification_report(b, A=A, basis=basis),
                kalman_test(A, b),
                pbh_eigenvalue_test(A, b, basis.eigenvalues),
            )
            gated += not reductions
            monkeypatch.setattr(verify, "_lower_bound", zero_bound)
            assert (
                verification_report(b, A=A, basis=basis),
                kalman_test(A, b),
                pbh_eigenvalue_test(A, b, basis.eigenvalues),
            ) == results
            monkeypatch.undo()
            deficient += not results[0].pbh_eigenvalue.controllable
        assert deficient and gated

    @staticmethod
    def stubbed_report(monkeypatch, factor, rank_tol, plane):
        """A k = n pair's report with every basis bound stubbed at factor *
        delta, at the shifts and (``plane``) over the plane; the stand-alone
        tests give the same results. Returns the staircase reductions and
        the pencil SVDs of the report, and the reductions of the stand-alone
        tests. The eigenvalues are moved by delta / 2."""
        rng = np.random.default_rng(426)
        A = real_spectrum_matrix(rng, 6)
        b = rng.normal(size=6)
        computed = left_eigenbasis(A)
        default = verify.staircase(A, b)
        moved = computed.eigenvalues + default.tol / 2 / 2.0**default.scale
        basis = checked_basis(A, moved, computed.vectors)
        bound = factor * verify.staircase(A, b, rank_tol).tol
        monkeypatch.setattr(
            verify, "_lower_bound", lambda *args: (np.full(6, bound), bound if plane else 0.0)
        )
        reductions = spy_staircase(monkeypatch)
        calls = spy_pencil_svds(monkeypatch)
        report = verification_report(b, A=A, basis=basis, rank_tol=rank_tol)
        svds, reduced = list(calls), len(reductions)
        assert default.k == 6
        assert report.pbh_eigenvalue.ranks == (6,) * 6
        assert report.kalman == KalmanResult(controllable=True, rank=6)
        assert kalman_test(A, b, rank_tol) == report.kalman
        assert pbh_eigenvalue_test(A, b, moved, rank_tol) == report.pbh_eigenvalue
        return reduced, svds, len(reductions) - reduced

    @pytest.mark.parametrize(
        "factor, rank_tol, svds",
        [(1.4, None, [6, 0]), (1.6, None, [0, 6]), (2.1, None, [0, 0]), (2.1, 1e-30, [6, 0])],
    )
    def test_bound_clears_above_delta_and_extends_to_the_modes(
        self, monkeypatch, factor, rank_tol, svds
    ):
        # With the basis bound stubbed at factor * delta (and none over the
        # plane), a PBH pencil in the form has sigma_min >= (factor - 1/2)
        # delta, the default delta / 2 being the reduction's backward error
        # whatever rank_tol is: it clears above delta. Each Kalman mode
        # takes that bound less delta / 2, or the sigma_min of its shift's
        # SVD. svds: the pencil SVDs of the PBH shifts and of the modes.
        reduced, calls, standalone = self.stubbed_report(monkeypatch, factor, rank_tol, False)
        assert calls == svds and (reduced, standalone) == (1, 2)

    @pytest.mark.parametrize(
        "factor, rank_tol, svds", [(1.4, None, [6, 0]), (1.6, None, []), (2.1, 1e-30, [6, 0])]
    )
    def test_whole_plane_bound_clears_above_three_halves_delta(
        self, monkeypatch, factor, rank_tol, svds
    ):
        # The same bound over the whole plane passes the gate when it
        # exceeds delta plus the default delta / 2: then nothing is reduced
        # or ranked, by the report or by the stand-alone tests. Below that,
        # each takes the path above.
        reduced, calls, standalone = self.stubbed_report(monkeypatch, factor, rank_tol, True)
        assert calls == svds and (reduced, standalone) == ((1, 2) if svds else (0, 0))


def pencil_sigma_min(C, shifts):
    """SVD sigma_min of [C[:, 0] | C[:, 1:] - mu I] per shift mu, in complex."""
    m = C.shape[0]
    return np.array(
        [np.linalg.svd(C - mu * np.eye(m, m + 1, 1), compute_uv=False)[-1] for mu in shifts]
    )


class TestOwnBound:
    """The bound from the form's own left eigenvectors, and its extension."""

    @staticmethod
    def check_sound(A, b, rng, sample=40):
        """On the whole form and on its reachable block, neither the own
        bound at the modes, nor its extension to nearby shifts, nor the
        whole-plane bound exceeds the SVD's sigma_min (at up to ``sample``
        random modes and shifts of each kind). Returns the share of modes
        of the whole form the bound clears (above delta) and k."""
        form = verify.staircase(A, b)
        blocks = [form.form] + ([form.form[: form.k, : form.k + 1]] if 0 < form.k < form.n else [])
        for C in blocks:
            modes, lower, whole = verify._modes(C)
            if C is form.form:
                cleared = np.mean(lower > form.tol)
            pick = rng.permutation(modes.size)[:sample]
            assert (lower[pick] <= pencil_sigma_min(C, modes[pick])).all()
            assert whole <= lower.min()
            near = modes[pick] + form.tol * rng.normal(size=pick.size)
            far = modes[pick] + 1e-3 * (rng.normal(size=pick.size) + 1j * rng.normal(size=pick.size))
            spectrum = np.linalg.eigvals(A)[pick] * 2.0**form.scale if C is form.form else near
            for shifts in (near, far, spectrum):
                extended = verify._extend(lower, modes, shifts)
                sigma = pencil_sigma_min(C, shifts)
                assert (extended <= sigma).all() and whole <= sigma.min()
        return cleared, form.k

    def test_dense_and_sparse(self):
        rng = np.random.default_rng(430)
        for n in (5, 20, 60):
            A = random_simple_matrix(rng, n)
            for b in (rng.normal(size=n), rng.normal(size=n) * (rng.random(n) < 0.3)):
                self.check_sound(A, b, rng)
        cleared = []
        for n in (20, 100, 200):
            cleared.append(self.check_sound(sparse_system(rng, n), rng.normal(size=n), rng)[0])
        # on sparse systems with a dense b the bound clears nearly every mode
        assert min(cleared) > 0.9

    def test_complex_matrices(self):
        rng = np.random.default_rng(431)
        for n in (4, 12, 30):
            A = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            b = rng.normal(size=n) + 1j * rng.normal(size=n)
            assert self.check_sound(A, b, rng)[0] > 0.5

    def test_partly_and_wholly_unreachable(self):
        # Block-triangular pairs with reachable dimension k < n under a
        # dense unitary similarity, down to b = 0 (k = 0).
        rng = np.random.default_rng(432)
        seen = set()
        for trial in range(16):
            n = 4 + trial % 5
            k = trial % n
            A = rng.uniform(-1, 1, (n, n)) + (trial % 2) * 1j * rng.uniform(-1, 1, (n, n))
            b = np.zeros(n, dtype=A.dtype)
            b[:k] = rng.uniform(-1, 1, k)
            A[k:, :k] = 0
            Q = unitary(rng, n, trial % 2 == 1)
            seen.add(self.check_sound(Q @ A @ Q.conj().T, Q @ b, rng)[1])
        assert 0 in seen and any(0 < k < 8 for k in seen)

    @pytest.mark.parametrize("last", [True, False])
    def test_defective_jordan_block(self, monkeypatch, last):
        # A Jordan block, rotated: the computed left eigenvectors are nearly
        # parallel, so the bounds, at the modes and over the plane, stay at
        # or below delta: the pair does not pass the gate, the reduction
        # runs and the SVDs decide. With b on the last coordinate the pair
        # is controllable; on the first, b reaches one dimension, and the
        # PBH rank at the exact eigenvalue 2 is n - 1.
        rng = np.random.default_rng(433)
        n = 4
        Q = unitary(rng, n, False)
        A = Q @ (2 * np.eye(n) + np.eye(n, k=1)) @ Q.T
        b = Q @ np.eye(n)[n - 1 if last else 0]
        form = verify.staircase(A, b)
        modes, lower, whole = verify._modes(form.form)
        assert (lower <= form.tol).all() and whole <= form.tol
        C, _, tol, backward = verify._scaled_pair(A, b, None)
        assert verify._modes(C, backward)[2] <= tol
        reductions = spy_staircase(monkeypatch)
        calls = spy_pencil_svds(monkeypatch)
        kalman = kalman_test(A, b)
        ranks = pbh_eigenvalue_test(A, b, np.full(n, 2.0)).ranks
        monkeypatch.undo()
        assert kalman == KalmanResult(controllable=last, rank=n if last else 1)
        assert ranks == ((n,) * n if last else (n - 1,) * n)
        assert len(reductions) == 2 and sum(calls) >= n


def plane_minimum(C, starts):
    """The smallest sigma_min([C[:, 0] | C[:, 1:] - mu I]) that Nelder-Mead
    finds from each start mu: local minima over the complex plane."""
    from scipy.optimize import minimize

    def f(x):
        return pencil_sigma_min(C, [x[0] + 1j * x[1]])[0]

    return min(
        minimize(f, [mu.real, mu.imag], method="Nelder-Mead", options={"xatol": 1e-9}).fun
        for mu in starts
    )


class TestWholePlaneGate:
    """The bound over the whole plane, and the gate it opens."""

    @staticmethod
    def check_sound(A, b, rng, sample=8):
        """The whole-plane bound of the scaled pair, from its own basis,
        never exceeds sigma_min at the modes, at sampled points of the plane
        or at the local minima refined from ``sample`` modes and midpoints.
        Returns the bound, the smallest sigma_min at the modes and the
        smallest found anywhere."""
        C = verify._scaled_pair(A, b, None)[0]
        modes, _, whole = verify._modes(C)
        at_modes = pencil_sigma_min(C, modes).min()
        points = plane_samples(rng, modes)[modes.size :]
        pick = rng.permutation(points.size)[: 2 * sample]
        starts = np.concatenate([modes[rng.permutation(modes.size)[:sample]], points[pick]])
        least = min(at_modes, pencil_sigma_min(C, points).min(), plane_minimum(C, starts))
        assert whole <= least
        return whole, at_modes, least

    def test_dense_sparse_and_complex(self):
        rng = np.random.default_rng(440)
        cases = [(random_simple_matrix(rng, n), rng.normal(size=n)) for n in (4, 12)]
        cases += [(sparse_system(rng, n, 0.1), rng.normal(size=n)) for n in (10, 30)]
        cases += [(sparse_system(rng, 20, 0.1), rng.normal(size=20) * (rng.random(20) < 0.5))]
        for n in (5, 10):
            A = rng.uniform(-1, 1, (n, n)) + 1j * rng.uniform(-1, 1, (n, n))
            cases.append((A, rng.normal(size=n) + 1j * rng.normal(size=n)))
        positive = sum(self.check_sound(A, b, rng)[0] > 0 for A, b in cases)
        assert positive >= len(cases) - 2

    def test_strongly_non_normal(self):
        # Upper bidiagonal with a large superdiagonal: the smallest sigma_min
        # lies off the spectrum, far below its value at the modes, and the
        # bound stays below it.
        rng = np.random.default_rng(441)
        off_spectrum = 0
        for n in (3, 5, 8):
            for c in (2.0, 5.0, 20.0):
                A = np.diag(np.arange(1.0, n + 1)) + c * np.eye(n, k=1)
                whole, at_modes, least = self.check_sound(A, rng.normal(size=n), rng)
                assert whole > 0
                off_spectrum += least < at_modes / 2
        assert off_spectrum >= 3

    def test_minimum_between_close_eigenvalues(self):
        # Two eigenvalues 1e-3 apart with b far larger than their gap: the
        # smallest sigma_min lies midway between them, about 1 / sqrt(2)
        # of its value at either one, where the per-shift bound is nearly
        # exact. Only the gaps divided by 4 keep the whole-plane bound
        # below it. The pair is also taken under a rotation.
        rng = np.random.default_rng(444)
        A, b = np.diag([0.0, 1e-3, 1.0]), np.ones(3)
        Q = unitary(rng, 3, False)
        for A, b in ((A, b), (Q @ A @ Q.T, Q @ b)):
            whole, at_modes, least = self.check_sound(A, b, rng)
            assert least < 0.75 * at_modes and whole > least / 4

    def test_small_subdiagonal_fails_the_gate(self, monkeypatch):
        # A Hessenberg pair with b = e1 and one subdiagonal at delta / 10:
        # the staircase stops there (k < n), so no bound may pass the gate,
        # and the report shows the staircase's rank.
        rng = np.random.default_rng(442)
        n, m = 8, 5
        H = np.triu(rng.uniform(-0.9, 0.9, (n, n)), -1)
        subdiagonal = rng.choice([-1, 1], n - 1) * rng.uniform(0.3, 0.9, n - 1)
        H[np.arange(1, n), np.arange(n - 1)] = subdiagonal
        H[0, 0], H[m, m - 1] = 0.95, 0.0
        b = np.eye(n)[0]
        H[m, m - 1] = verify._scaled_pair(H, b, None)[2] / 10
        C, scale, tol, backward = verify._scaled_pair(H, b, None)
        assert scale == 0 and H[m, m - 1] <= tol / 9
        basis = left_eigenbasis(H)
        _, whole = verify._lower_bound(C[:, 1:], C[:, 0], basis.vectors.conj(), basis.eigenvalues)
        assert whole - backward <= tol and verify._modes(C, backward)[2] <= tol
        reductions = spy_staircase(monkeypatch)
        report = verification_report(b, A=H, basis=basis)
        kalman, pbh = kalman_test(H, b), pbh_eigenvalue_test(H, b, basis.eigenvalues)
        monkeypatch.undo()
        assert reductions == [m] * 3
        assert report.kalman == kalman == KalmanResult(controllable=False, rank=m)
        assert report.pbh_eigenvalue == pbh
        assert sum(r < n for r in pbh.ranks) == n - m

    def test_sparse_pairs_skip_the_staircase(self, monkeypatch):
        # Sparse n = 100 systems with a dense b: every test clears the pair
        # from the eigenbasis, and no reduction runs. With every bound at
        # zero the reduction and the SVDs give the same report.
        rng = np.random.default_rng(443)
        for _ in range(3):
            A = sparse_system(rng, 100)
            b = rng.normal(size=100)
            basis = left_eigenbasis(A)
            reductions = spy_staircase(monkeypatch)
            report = verification_report(b, A=A, basis=basis)
            kalman, pbh = kalman_test(A, b), pbh_eigenvalue_test(A, b, basis.eigenvalues)
            assert reductions == []
            assert report.kalman == kalman == KalmanResult(controllable=True, rank=100)
            assert report.pbh_eigenvalue == pbh == verify.PbhEigenvalueResult(True, (100,) * 100)
            monkeypatch.setattr(verify, "_lower_bound", zero_bound)
            assert verification_report(b, A=A, basis=basis) == report
            monkeypatch.undo()
            assert reductions == [100]


def spy_calls(monkeypatch, name):
    """Spy on ``np.linalg.<name>``: the list holds each call's matrix shape."""
    calls, original = [], getattr(np.linalg, name)

    def spy(X, *args, **kwargs):
        calls.append(X.shape)
        return original(X, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


class TestOnePass:
    """Every verdict comes from one certificate pass, which computes only
    what its caller reports."""

    @pytest.mark.parametrize(
        "b, bounded, k, modes",
        [(np.eye(5)[1], True, 2, 0), (B_WORKED, False, 5, 1)],
        ids=["unreachable", "reached"],
    )
    def test_kalman_modes_only_where_kalman_is_reported(
        self, monkeypatch, golden_a, integer_basis, b, bounded, k, modes
    ):
        # golden with e2 fails the gate and is reduced to k = 2; golden
        # with B_WORKED, its bounds withheld, to k = n. The PBH test ranks
        # its shifts once and takes no eigvals of the form. Under the one
        # Kalman rule the other two rank the form's own modes, eigvals(H),
        # at k = n, with bounds from the ranked shifts; at k < n the
        # reachable block's modes, and kalman_test ranks no shift.
        for test, ranked, eigvals_calls in (
            (lambda: pbh_eigenvalue_test(golden_a, b, GOLDEN_EIGENVALUES), 1, 0),
            (lambda: kalman_test(golden_a, b), 1 + modes, modes),
            (lambda: verification_report(b, A=golden_a, basis=integer_basis), 2, modes),
        ):
            if not bounded:
                monkeypatch.setattr(verify, "_lower_bound", zero_bound)
            reductions = spy_staircase(monkeypatch)
            calls = spy_pencil_svds(monkeypatch)
            eigvals = spy_calls(monkeypatch, "eigvals")
            test()
            monkeypatch.undo()
            assert reductions == [k]
            assert (len(calls), len(eigvals)) == (ranked, eigvals_calls)

    def test_verification_report_solves_no_eigenbasis(self, monkeypatch, golden_a):
        # The report bounds its pencils from the basis it is given, on a
        # pair the gate clears and on one it reduces; only the latter's
        # reachable block (k = 2) takes an eig of its own.
        basis = left_eigenbasis(golden_a)
        eig = spy_calls(monkeypatch, "eig")
        for b in (B_WORKED, np.eye(5)[1]):
            verification_report(b, A=golden_a, basis=basis)
        assert eig == [(2, 2)]


class TestStaircase:
    def test_degenerate_pairs(self):
        assert verify.staircase(np.eye(3), np.zeros(3)).k == 0
        assert verify.staircase(np.zeros((3, 3)), np.ones(3)).k == 1
        assert verify.staircase([[0.0]], [0.0]).k == 0
        assert verify.staircase([[5.0]], [1e-300]).k == 1

    def test_overflowing_shift_has_full_rank(self):
        # A at 1e-300 is scaled by about 2^997, which sends a far-away
        # eigenvalue guess to inf: such a pencil has full rank.
        A = np.diag([1e-300, 2e-300])
        res = pbh_eigenvalue_test(A, [1.0, 0.0], [2e-300, 1e10])
        assert res.ranks == (1, 2)

    def test_scaling_is_exact(self):
        # Powers of two carry both A and b into [1/2, 1): same k, same tol.
        rng = np.random.default_rng(11)
        A = rng.uniform(-1, 1, (6, 6))
        b = rng.uniform(-1, 1, 6)
        base = verify.staircase(A, b)
        for c, d in ((2.0**-900, 1.0), (2.0**900, 2.0**-1000), (1.0, 2.0**1000)):
            form = verify.staircase(c * A, d * b)
            assert (form.k, form.tol) == (base.k, base.tol)
            np.testing.assert_array_equal(form.form, base.form)

    def test_subnormal_scaling_is_exact(self, golden_a):
        # Golden's entries have at most 4 significant bits, so 2^-1060 A and
        # 2^-1074 b are exact; their scales 2^e, e > 1023, are not floats.
        base = verify.staircase(golden_a, B_WORKED)
        for c, d in ((2.0**-1030, 1.0), (2.0**-1060, 2.0**-1074), (1.0, 2.0**-1050)):
            form = verify.staircase(c * golden_a, d * B_WORKED)
            assert (form.k, form.tol) == (base.k, base.tol)
            np.testing.assert_array_equal(form.form, base.form)
        rank = kalman_test(golden_a, B_WORKED)
        for k in range(1074 + 1):
            assert kalman_test(golden_a, 2.0**-k * B_WORKED) == rank

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_known_controllable_dimension(self, dtype):
        # A = [[A11, A12], [0, A22]] with b in span(e1..ek), the invariant
        # subspace of A11: k is exact, and the PBH rank is n - 1 exactly at
        # the eigenvalues of A22 (the unreachable ones), n elsewhere. A
        # dense unitary similarity of the pair keeps both.
        rng = np.random.default_rng(12)
        seen = set()
        for trial in range(24):
            n = 3 + trial % 10
            k = trial % (n + 1)
            A = rng.uniform(-1, 1, (n, n)).astype(dtype)
            b = np.zeros(n, dtype=dtype)
            b[:k] = rng.uniform(-1, 1, k)
            if dtype is complex:
                A += 1j * rng.uniform(-1, 1, (n, n))
                b[:k] += 1j * rng.uniform(-1, 1, k)
            A[k:, :k] = 0
            unreachable = np.linalg.eigvals(A[k:, k:])
            lam = np.linalg.eigvals(A)
            expected = tuple(
                n - 1 if np.isclose(unreachable, ev, rtol=0, atol=1e-9).any() else n
                for ev in lam
            )
            form = verify.staircase(A, b)
            assert form.k == k
            assert form.form.dtype == np.dtype(dtype)
            Q = unitary(rng, n, dtype is complex)
            for pair in ((A, b), (Q @ A @ Q.conj().T, Q @ b)):
                assert kalman_test(*pair) == KalmanResult(controllable=k == n, rank=k)
                assert pbh_eigenvalue_test(*pair, lam).ranks == expected
                assert reference_pbh_ranks(*pair, lam) == expected
            seen.add((k == 0, k == n))
        assert seen == {(True, False), (False, False), (False, True)}


class TestCertificationFamily:
    """Seeded systems the SVD-based certificate used to reject.

    Every solve must be certified, and the staircase verdict must agree
    with the PBH eigenvector test.
    """

    @staticmethod
    def check(A, mode):
        solution = solve_mcp(A, mode=mode)
        report = solution.certificate
        assert report.kalman.controllable and report.kalman.rank == A.shape[0]
        assert report.pbh_eigenvalue.controllable
        assert report.pbh_eigenvector.controllable
        return solution

    @pytest.mark.parametrize("n", [10, 20, 30, 40, 50, 60])
    def test_dense(self, n):
        for seed in range(3):
            A = random_simple_matrix(np.random.default_rng([n, seed]), n)
            self.check(A, "exact" if n <= EXACT_UNIVERSE_LIMIT else "greedy")

    @pytest.mark.parametrize("n", [20, 50, 100, 200])
    def test_sparse(self, monkeypatch, n):
        for seed in range(3):
            A = sparse_system(np.random.default_rng([n, seed, 1]), n)
            solution = self.check(A, "exact" if n <= EXACT_UNIVERSE_LIMIT else "greedy")
            report = check_ranked_once(monkeypatch, A, solution.vector, left_eigenbasis(A))
            assert report == solution.certificate

    @pytest.mark.parametrize(
        "c", [1e-14, 1e-12, 1e-10, 1e-8, 1e-4, 1e4, 1e8, 1e12, 1e50, 1e150, 1e200, 1e250, 1e300]
    )
    def test_scaled_golden(self, golden_a, c):
        assert self.check(c * golden_a, "exact").support == (2, 3, 4)

    def test_huge_dense_matrix(self):
        A = 1e200 * random_simple_matrix(np.random.default_rng(424), 6)
        assert self.check(A, "exact").support == (1,)

    def test_svd_count_does_not_grow_with_n(self, monkeypatch):
        # Two SVDs whatever n, one for ||A||_2 in the residual check and one
        # for the basis bound's singular values of the eigenvector matrix:
        # the certificate ranks nothing per eigenvalue on a controllable pair.
        calls = []
        svd = np.linalg.svd

        def spy(X, *args, **kwargs):
            calls.append(X.shape)
            return svd(X, *args, **kwargs)

        counts = {}
        for n in (20, 60):
            A = sparse_system(np.random.default_rng([n, 0, 1]), n)
            monkeypatch.setattr(np.linalg, "svd", spy)
            self.check(A, "greedy")
            monkeypatch.setattr(np.linalg, "svd", svd)
            counts[n], calls[:] = len(calls), []
        assert counts[20] == counts[60] <= 2
