import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincontrol import (
    DimensionMismatch,
    IndexOutOfRange,
    Infeasible,
    NotSimple,
    RealizationConfig,
    RealizationStats,
    RepairFailed,
    StructuralVector,
    VerificationFailed,
    ZeroPattern,
    LeftEigenbasis,
    brute_force_mcp,
    build_cover_instance,
    kalman_test,
    left_eigenbasis,
    perturb_nonzero,
    realize_with_stats,
    solve_exact,
    solve_mcp,
    structural_pattern,
    support_from_cover,
    Tolerances,
)
from mincontrol import mcp
from conftest import (
    GOLDEN_COVER_SETS,
    GOLDEN_EIGENVALUES,
    GOLDEN_LEFT_EIGENVECTORS,
    GOLDEN_PATTERNS,
    is_cover,
    random_simple_matrix,
    sparse_simple_matrix,
)


def patterns_from_text(texts):
    return [StructuralVector.from_text(t) for t in texts]


class TestBuildCoverInstance:
    def test_worked_patterns(self):
        inst = build_cover_instance(patterns_from_text(GOLDEN_PATTERNS))
        assert inst.universe == frozenset(range(1, 6))
        assert [set(s) for s in inst.sets] == GOLDEN_COVER_SETS

    def test_single_dense_pattern(self):
        inst = build_cover_instance(patterns_from_text(["***"]))
        assert inst.universe == frozenset({1})
        assert [set(s) for s in inst.sets] == [{1}, {1}, {1}]

    def test_perturbed_patterns(self):
        inst = build_cover_instance(
            patterns_from_text(["*****", "*****", "000*0", "0*000", "*****"])
        )
        assert [set(s) for s in inst.sets] == [
            {1, 2, 5},
            {1, 2, 4, 5},
            {1, 2, 5},
            {1, 2, 3, 5},
            {1, 2, 5},
        ]

    def test_zero_pattern_rejected(self):
        with pytest.raises(ZeroPattern):
            build_cover_instance(patterns_from_text(["*0", "00"]))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            build_cover_instance(patterns_from_text(["*0", "*00"]))


class TestSupportFromCover:
    def test_worked(self):
        assert str(support_from_cover({2, 3, 4}, 5)) == "0***0"

    def test_empty(self):
        assert str(support_from_cover(set(), 3)) == "000"

    def test_perturbed_support(self):
        assert str(support_from_cover({2, 4}, 5)) == "0*0*0"

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            support_from_cover({6}, 5)


@settings(max_examples=80)
@given(st.data())
def test_reduction_equivalence(data):
    """A support covers the instance iff it structurally meets every pattern."""
    n = data.draw(st.integers(1, 10))
    n_patterns = data.draw(st.integers(1, 6))
    texts = []
    for _ in range(n_patterns):
        mask = data.draw(
            st.tuples(*([st.booleans()] * n)).filter(lambda m: any(m))
        )
        texts.append(StructuralVector(mask))
    inst = build_cover_instance(texts)
    chosen = data.draw(st.sets(st.integers(1, n)))
    support = support_from_cover(chosen, n)
    lhs = is_cover(inst, chosen)
    rhs = all(any(a and b for a, b in zip(support.mask, p.mask)) for p in texts)
    assert lhs == rhs


class TestRealize:
    def test_worked_support(self, golden_basis):
        pattern = StructuralVector.from_text("0***0")
        b, _ = realize_with_stats(pattern, golden_basis.vectors)
        assert b[0] == 0 and b[4] == 0
        assert all(abs(b[i]) > 1e-6 for i in (1, 2, 3))
        assert abs(b[2] + b[3]) > 1e-6
        for v in golden_basis.vectors:
            assert abs(np.vdot(v, b)) > 1e-10 * np.linalg.norm(v) * np.linalg.norm(b)

    def test_one_dimensional(self):
        b, _ = realize_with_stats(StructuralVector.from_text("*"), [np.array([1.0])])
        assert b.shape == (1,) and b[0] != 0

    def test_random_feasible_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            vectors = rng.normal(size=(5, 4)) * (rng.uniform(size=(5, 4)) > 0.4)
            vectors[:, 0] = rng.uniform(0.5, 1.5, size=5)  # keeps every vector feasible
            pattern = StructuralVector.from_text("*0**")
            b, _ = realize_with_stats(pattern, list(vectors))
            assert str(StructuralVector(tuple(x != 0 for x in b))) == "*0**"
            for v in vectors:
                assert abs(np.vdot(v, b)) > 1e-10 * np.linalg.norm(
                    v
                ) * np.linalg.norm(b)

    def test_infeasible_support(self):
        # second vector lives entirely outside the support
        vectors = [np.array([1.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        with pytest.raises(Infeasible):
            realize_with_stats(StructuralVector.from_text("**0"), vectors)

    def test_empty_pattern(self):
        with pytest.raises(Infeasible):
            realize_with_stats(
                StructuralVector.from_text("000"), [np.array([1.0, 0.0, 0.0])]
            )

    def test_unconstrained_position_still_realized(self):
        # no vector touches position 2: its value is free, but it must be nonzero
        vectors = [np.array([1.0, 0.0])]
        b, _ = realize_with_stats(StructuralVector.from_text("**"), vectors)
        assert b[0] != 0 and b[1] != 0
        assert abs(np.vdot(np.array([1.0, 0.0]), b)) > 1e-10 * np.linalg.norm(b)

    def test_repair_failed_on_unsatisfiable_tau(self):
        # no vector can stay within 8 degrees of two orthogonal directions
        vectors = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        cfg = RealizationConfig(tau=0.99)
        with pytest.raises(RepairFailed):
            realize_with_stats(StructuralVector.from_text("**"), vectors, cfg)

    def test_iteration_bounds(self, golden_basis):
        pattern = StructuralVector.from_text("0***0")
        _, stats = realize_with_stats(pattern, golden_basis.vectors)
        assert len(stats.step3_corrections) == 5
        for j, count in enumerate(stats.step3_corrections):
            assert count <= j + 2
        p, n_vec = pattern.nnz, 5
        for count in stats.step4_multipliers.values():
            assert count <= p + n_vec + 1

    def test_step3_realignment_triggers(self):
        # v1 + v2 = [1, -1] is orthogonal to v1, forcing a re-alignment
        vectors = [np.array([1.0, 1.0]), np.array([0.0, -2.0]), np.array([0.5, 1.0])]
        b, stats = realize_with_stats(StructuralVector.from_text("**"), vectors)
        assert sum(stats.step3_corrections) >= 1
        for v in vectors:
            assert abs(np.vdot(v, b)) > 1e-10 * np.linalg.norm(v) * np.linalg.norm(b)

    def test_step4_zero_entry_repair(self):
        # the step-3 sum zeroes entry 2; step 4 must fix it
        vectors = [np.array([1.0, 1.0]), np.array([1.0, -1.0])]
        b, stats = realize_with_stats(StructuralVector.from_text("**"), vectors)
        assert stats.step4_multipliers
        assert all(x != 0 for x in b)
        for v in vectors:
            assert abs(np.vdot(v, b)) > 1e-10 * np.linalg.norm(v) * np.linalg.norm(b)

    def test_complex_vectors(self):
        vectors = [np.array([1.0 + 1j, 0.5]), np.array([0.0, 2j])]
        b, _ = realize_with_stats(StructuralVector.from_text("**"), vectors)
        for v in vectors:
            assert abs(np.vdot(v, b)) > 1e-10 * np.linalg.norm(v) * np.linalg.norm(b)

    def test_config_validation(self):
        for tau in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                RealizationConfig(tau=tau)


def reference_realize(pattern, vectors, cfg=None, zero_tol=1e-9):
    """The realization procedure with scalar checks, one vector at a time.

    Same steps as ``realize_with_stats``; the orthogonality check takes
    each inner product with ``np.vdot`` and each norm on its own, and
    returns the first violator.
    """
    cfg = cfg if cfg is not None else RealizationConfig()
    n = len(pattern)
    vecs = [np.asarray(v, dtype=complex) for v in vectors]
    if pattern.nnz == 0:
        raise Infeasible("the requested support is empty")
    vec_patterns = [structural_pattern(v, zero_tol) for v in vecs]
    for j, vp in enumerate(vec_patterns, start=1):
        if not any(a and b for a, b in zip(pattern.mask, vp.mask)):
            raise Infeasible(f"vector {j} has no nonzero entry on the requested support")
    p, support = pattern.nnz, pattern.support
    restricted = [v[np.array(pattern.mask)] for v in vecs]

    def violation(bp, rs):
        nb = np.linalg.norm(bp)
        for i, r in enumerate(rs):
            if abs(np.vdot(bp, r)) <= cfg.tau * np.linalg.norm(r) * nb:
                return i
        return None

    def zero_entries(bp, upto=None):
        peak = np.abs(bp).max()
        head = bp if upto is None else bp[:upto]
        return [k for k, x in enumerate(head) if abs(x) <= cfg.tau * peak]

    bp = np.zeros(p, dtype=complex)
    step3 = []
    for j in range(len(vecs)):
        bp = bp + mcp.ALPHA * restricted[j]
        count = 0
        viol = violation(bp, restricted[: j + 1])
        while viol is not None and count < j + 2:
            bp = bp + mcp.EPS1 * restricted[viol]
            count += 1
            viol = violation(bp, restricted[: j + 1])
        if viol is not None:
            raise RepairFailed(
                f"orthogonality to vector {viol + 1} persisted after {count} "
                "re-alignments; the input is numerically pathological"
            )
        step3.append(count)
    step4 = {}
    bound = p + len(vecs) + 1
    for k in range(p):
        if k not in zero_entries(bp):
            continue
        pos = support[k]
        m = next((j for j, vp in enumerate(vec_patterns) if vp.mask[pos - 1]), None)
        if m is not None:
            direction = restricted[m]
        else:
            direction = np.zeros(p, dtype=complex)
            direction[k] = 1.0
        for mult in range(1, bound + 1):
            bp = bp + mcp.EPS2 * direction
            if not zero_entries(bp, upto=k + 1) and violation(bp, restricted) is None:
                step4[pos] = mult
                break
        else:
            raise RepairFailed(
                f"entry at position {pos} could not be made nonzero within "
                f"{bound} multiplier steps"
            )
    if zero_entries(bp) or violation(bp, restricted) is not None:
        raise RepairFailed("a residual violation survived the repair loops")
    b = np.zeros(n, dtype=complex)
    b[[s - 1 for s in support]] = bp
    return b, RealizationStats(tuple(step3), step4)


def outcome(realize, *args):
    try:
        return realize(*args)
    except (Infeasible, RepairFailed) as exc:
        return type(exc), str(exc)


class TestRealizeAgainstScalarReference:
    """Bit-identical vector and equal stats against the scalar procedure."""

    def instances(self):
        rng = np.random.default_rng(77)
        for k in range(300):
            n = 2 + k % 6
            count = 1 + k % 5
            # small integers make exact orthogonality and exact zero
            # entries common, so step 3 re-aligns and step 4 repairs
            vectors = rng.integers(-2, 3, size=(count, n)).astype(float)
            if k % 3 == 1:
                vectors = vectors + 1j * rng.integers(-1, 2, size=(count, n))
            elif k % 3 == 2:
                vectors = vectors * rng.uniform(0.5, 2.0, size=(count, n))
            mask = rng.random(n) < 0.7
            mask[rng.integers(n)] = True
            pattern = StructuralVector(tuple(bool(x) for x in mask))
            cfg = RealizationConfig(tau=[1e-10, 1e-3, 0.3][k % 3])
            yield pattern, list(vectors), cfg

    def test_seeded_instances(self):
        step3 = step4 = failures = 0
        for pattern, vectors, cfg in self.instances():
            got = outcome(realize_with_stats, pattern, vectors, cfg)
            want = outcome(reference_realize, pattern, vectors, cfg)
            if isinstance(want[0], type):
                assert got == want
                failures += 1
                continue
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1]
            step3 += sum(want[1].step3_corrections) > 0
            step4 += bool(want[1].step4_multipliers)
        assert step3 > 10 and step4 > 10 and failures > 10

    def test_eigenbases(self, golden_basis):
        rng = np.random.default_rng(78)
        bases = [golden_basis] + [
            left_eigenbasis(random_simple_matrix(rng, n)) for n in (4, 7, 12, 20)
        ]
        for basis in bases:
            patterns = [structural_pattern(v) for v in basis.vectors]
            cover = solve_exact(build_cover_instance(patterns))
            for support in (cover.indices, range(1, basis.n + 1)):
                pattern = StructuralVector.from_support(support, basis.n)
                got = realize_with_stats(pattern, basis.vectors)
                want = reference_realize(pattern, basis.vectors)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1] == want[1]

    def test_no_vectors(self):
        # Nothing constrains b, so step 4 sets each support entry to EPS2.
        for support in ((1, 3), (2,), (1, 2, 3, 4)):
            pattern = StructuralVector.from_support(support, 4)
            got = realize_with_stats(pattern, [])
            want = reference_realize(pattern, [])
            assert got[0].tobytes() == want[0].tobytes()
            assert got[1] == want[1] == RealizationStats((), dict.fromkeys(support, 1))
            assert got[0].tolist() == [0.1 if i in support else 0 for i in range(1, 5)]

    @pytest.fixture
    def loop_checks(self, monkeypatch):
        """One entry per orthogonality check the per-vector loop makes."""
        calls = []
        check = mcp._orthogonality_violation

        def counting(*args):
            calls.append(None)
            return check(*args)

        monkeypatch.setattr(mcp, "_orthogonality_violation", counting)
        return calls

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_bases_take_the_array_path(self, seed, loop_checks):
        # n = 64-100, the benchmark's mcp-large family: every check clears
        # tau by far more than rounding, so the per-vector loop never runs,
        # and the vector still has the loop's bits.
        rng = np.random.default_rng(90 + seed)
        for n in (64, 82, 100):
            basis = left_eigenbasis(sparse_simple_matrix(rng, n))
            instance = build_cover_instance([structural_pattern(v) for v in basis.vectors])
            for support in (solve_exact(instance, n).indices, range(1, n + 1)):
                pattern = StructuralVector.from_support(support, n)
                got = realize_with_stats(pattern, basis.vectors)
                want = reference_realize(pattern, basis.vectors)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1] == want[1]
        assert not loop_checks

    def test_near_tau_takes_the_loop(self, loop_checks):
        # tau is the smallest ratio |r_i . s_j| / (||r_i|| ||s_j||) of a
        # vector to a partial sum, moved by 16 (p + 2) eps / ratio relative:
        # half the array path's rounding margin, and several times the
        # rounding that can separate the loop from the reference. So the
        # array path declines and the loop decides: no nudge just below
        # the ratio, a nudge or a failure just above it.
        rng = np.random.default_rng(95)
        outcomes = []
        while len(outcomes) < 80:
            n, count = 3 + len(outcomes) % 4, 2 + len(outcomes) % 3
            vectors = rng.standard_normal((count, n))
            if len(outcomes) % 4:
                vectors = vectors + 1j * rng.standard_normal((count, n))
            sums = np.cumsum(vectors, axis=0)
            ratio = min(
                abs(np.vdot(vectors[i], sums[j]))
                / (np.linalg.norm(vectors[i]) * np.linalg.norm(sums[j]))
                for j in range(count)
                for i in range(j + 1)
            )
            if not 0.01 < ratio < 0.2:
                continue
            pattern = StructuralVector.from_support(range(1, n + 1), n)
            for sign in (-1, 1):
                loop_checks.clear()
                shift = sign * 16 * (n + 2) * np.finfo(float).eps / ratio
                cfg = RealizationConfig(tau=ratio * (1 + shift))
                got = outcome(realize_with_stats, pattern, list(vectors), cfg)
                want = outcome(reference_realize, pattern, list(vectors), cfg)
                assert loop_checks
                if isinstance(want[0], type):
                    assert got == want
                    outcomes.append(want[0])
                    continue
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1] == want[1]
                outcomes.append(sum(want[1].step3_corrections) > 0)
                assert outcomes[-1] == (sign > 0)
        assert outcomes.count(False) > 20 and outcomes.count(True) > 10


class TestSolveMcp:
    def test_worked_exact(self, golden_a):
        solution = solve_mcp(golden_a, mode="exact")
        assert solution.support == (2, 3, 4)
        assert solution.size == 3
        assert solution.certificate.kalman.rank == 5
        assert solution.certificate.consistent

    def test_diagonal_needs_everything(self):
        solution = solve_mcp(np.diag([1.0, 2.0, 3.0]))
        assert solution.support == (1, 2, 3)

    def test_perturbed_support(self, golden_a):
        A = perturb_nonzero(golden_a, 1e-10, seed=3)
        solution = solve_mcp(A, tol=Tolerances(zero_tol=1e-13))
        assert solution.support == (2, 4)
        assert solution.size == 2

    def test_greedy_mode(self, golden_a):
        greedy = solve_mcp(golden_a, mode="greedy")
        exact = solve_mcp(golden_a, mode="exact")
        assert greedy.mode == "greedy"
        assert greedy.size >= exact.size
        assert greedy.certificate.controllable

    def test_supplied_basis_with_matrix(self, golden_a):
        # solve_mcp checks the basis's residuals against the matrix.
        basis = LeftEigenbasis(GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS)
        solution = solve_mcp(golden_a, basis=basis)
        assert solution.support == (2, 3, 4)
        assert solution.certificate.kalman is not None

    def test_solution_carries_its_basis(self, golden_a):
        computed = solve_mcp(golden_a).basis
        np.testing.assert_allclose(computed.eigenvalues, GOLDEN_EIGENVALUES, atol=1e-12)
        basis = LeftEigenbasis(GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS)
        assert solve_mcp(golden_a, basis=basis).basis is basis
        with pytest.raises(VerificationFailed) as excinfo:
            solve_mcp(golden_a, basis=basis, tol=Tolerances(rank_tol=10.0))
        assert excinfo.value.solution.basis is basis

    def test_supplied_basis_must_be_simple_under_tol(self):
        # Built under the default gap_tol, checked again under a larger one.
        basis = LeftEigenbasis([1.0, 1.1], np.eye(2))
        assert solve_mcp(basis=basis).support == (1, 2)
        with pytest.raises(NotSimple):
            solve_mcp(basis=basis, tol=Tolerances(gap_tol=0.1))

    def test_supplied_basis_without_matrix(self):
        basis = LeftEigenbasis(GOLDEN_EIGENVALUES, GOLDEN_LEFT_EIGENVECTORS)
        solution = solve_mcp(basis=basis)
        assert solution.support == (2, 3, 4)
        assert solution.certificate.kalman is None
        assert solution.certificate.pbh_eigenvector.controllable

    def test_not_simple(self):
        with pytest.raises(NotSimple):
            solve_mcp(np.eye(3))

    def test_requires_input(self):
        with pytest.raises(ValueError):
            solve_mcp()

    def test_bad_mode(self, golden_a):
        with pytest.raises(ValueError):
            solve_mcp(golden_a, mode="fastest")

    def test_verification_failed_carries_solution(self, golden_a):
        with pytest.raises(VerificationFailed) as excinfo:
            solve_mcp(golden_a, tol=Tolerances(rank_tol=10.0))  # absurd tolerance sinks the rank
        err = excinfo.value
        assert err.solution is not None
        assert err.solution.support == (2, 3, 4)
        assert not err.report.kalman.controllable

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            n = int(rng.integers(3, 7))
            A = random_simple_matrix(rng, n)
            solution = solve_mcp(A)
            reference = brute_force_mcp(A)
            assert solution.size == reference.min_support_size
            assert solution.support in reference.optimal_supports

    def test_carries_its_patterns_and_cover_instance(self, golden_a):
        solution = solve_mcp(golden_a)
        assert [str(p) for p in solution.eigenvector_patterns] == GOLDEN_PATTERNS
        assert solution.cover_instance.universe == frozenset(range(1, 6))
        assert [set(s) for s in solution.cover_instance.sets] == GOLDEN_COVER_SETS

    def test_realized_vector_matches_pattern_exactly(self, golden_a):
        solution = solve_mcp(golden_a)
        zeros = [i for i in range(5) if solution.vector[i] == 0]
        assert zeros == [0, 4]


class TestDensityOfRealizations:
    def test_random_support_values_stay_controllable(self, golden_a):
        rng = np.random.default_rng(23)
        failures = 0
        for _ in range(100):
            b = np.zeros(5)
            for i in (1, 2, 3):
                while True:
                    x = rng.uniform(-1.0, 1.0)
                    if abs(x) > 1e-6:
                        break
                b[i] = x
            if not kalman_test(golden_a, b).controllable:
                failures += 1
        assert failures == 0
