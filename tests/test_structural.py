import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mincontrol import (
    DimensionMismatch,
    MincontrolError,
    MissingSelfLoops,
    NotSquare,
    StateDigraph,
    StructuralMatrix,
    StructuralVector,
    compatible_mscp_solution,
    is_structurally_controllable,
    scc_dag,
    solve_mcp,
    solve_mscp,
    state_digraph,
)
from mincontrol import structural
from mincontrol.cli import run_command


def golden_pattern(golden_a):
    return StructuralMatrix.from_numeric(golden_a)


def random_full_diagonal_pattern(rng, n, density=0.3):
    mask = rng.uniform(size=(n, n)) < density
    np.fill_diagonal(mask, True)
    return StructuralMatrix(n, n, tuple(mask.ravel().tolist()))


class TestStateDigraph:
    def test_worked_example(self, golden_a):
        g = state_digraph(golden_pattern(golden_a))
        incoming_2 = {(i, j) for i, j in g.edges if j == 2}
        incoming_4 = {(i, j) for i, j in g.edges if j == 4}
        assert incoming_2 == {(2, 2)}
        assert incoming_4 == {(4, 4)}
        for a, b in itertools.permutations((1, 3, 5), 2):
            assert (a, b) in g.edges

    def test_diagonal_only(self):
        g = state_digraph(StructuralMatrix.from_rows(["*00", "0*0", "00*"]))
        assert g.edges == frozenset({(1, 1), (2, 2), (3, 3)})

    def test_dense_two_by_two(self):
        g = state_digraph(StructuralMatrix.from_rows(["**", "**"]))
        assert g.edges == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})

    def test_edge_orientation(self):
        # only entry (2, 1) is set: state 2 sees state 1, so x1 -> x2
        g = state_digraph(StructuralMatrix.from_rows(["00", "*0"]))
        assert g.edges == frozenset({(1, 2)})

    def test_not_square(self):
        with pytest.raises(NotSquare):
            state_digraph(StructuralMatrix.from_rows(["**0", "0*0"]))


class TestSccDag:
    def test_worked_example(self, golden_a):
        dag = scc_dag(state_digraph(golden_pattern(golden_a)))
        assert dag.components == ((1, 3, 5), (2,), (4,))
        assert dag.non_top_linked_components == ((2,), (4,))

    def test_single_component(self):
        g = StateDigraph(3, frozenset({(1, 2), (2, 3), (3, 1)}))
        dag = scc_dag(g)
        assert dag.components == ((1, 2, 3),)
        assert dag.non_top_linked == (True,)

    def test_chain(self):
        g = StateDigraph(
            3, frozenset({(1, 1), (2, 2), (3, 3), (1, 2), (2, 3)})
        )
        dag = scc_dag(g)
        assert dag.components == ((1,), (2,), (3,))
        assert dag.non_top_linked == (True, False, False)

    def test_membership(self, golden_a):
        dag = scc_dag(state_digraph(golden_pattern(golden_a)))
        assert dag.membership == (0, 1, 0, 2, 0)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(2, 9))
            pattern = random_full_diagonal_pattern(rng, n)
            dag = scc_dag(state_digraph(pattern))
            perm = rng.permutation(n)  # vertex v -> perm[v-1] + 1
            mask = np.array(pattern.mask).reshape(n, n)
            permuted = np.empty_like(mask)
            for i in range(n):
                for j in range(n):
                    permuted[perm[i], perm[j]] = mask[i, j]
            dag_p = scc_dag(
                state_digraph(
                    StructuralMatrix(n, n, tuple(permuted.ravel().tolist()))
                )
            )
            mapped = sorted(
                tuple(sorted(perm[v - 1] + 1 for v in comp))
                for comp in dag.components
            )
            assert mapped == sorted(dag_p.components)
            flags = {
                tuple(sorted(perm[v - 1] + 1 for v in comp)): flag
                for comp, flag in zip(dag.components, dag.non_top_linked)
            }
            for comp, flag in zip(dag_p.components, dag_p.non_top_linked):
                assert flags[comp] == flag


class TestSolveMscp:
    def test_worked_example(self, golden_a):
        assert str(solve_mscp(golden_pattern(golden_a))) == "0*0*0"

    def test_strongly_connected(self):
        pattern = StructuralMatrix.from_rows(["**0", "***", "*0*"])
        assert str(solve_mscp(pattern)) == "*00"

    def test_diagonal_needs_every_state(self):
        pattern = StructuralMatrix.from_rows(["*00", "0*0", "00*"])
        assert str(solve_mscp(pattern)) == "***"

    def test_missing_self_loops(self):
        pattern = StructuralMatrix.from_rows(["0*", "**"])
        with pytest.raises(MissingSelfLoops) as excinfo:
            solve_mscp(pattern)
        assert "matching" in str(excinfo.value)

    def test_star_count_equals_non_top_linked_count(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            pattern = random_full_diagonal_pattern(rng, n)
            solution = solve_mscp(pattern)
            dag = scc_dag(state_digraph(pattern))
            assert solution.nnz == sum(dag.non_top_linked)

    def test_minimality_exhaustive(self):
        rng = np.random.default_rng(29)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            pattern = random_full_diagonal_pattern(rng, n)
            solution = solve_mscp(pattern)
            assert is_structurally_controllable(pattern, solution)
            for pos in solution.support:
                weakened = StructuralVector.from_support(
                    [q for q in solution.support if q != pos], n
                )
                assert not is_structurally_controllable(pattern, weakened)


class TestIsStructurallyControllable:
    def test_worked_positive(self, golden_a):
        assert is_structurally_controllable(
            golden_pattern(golden_a), StructuralVector.from_text("0*0*0")
        )

    def test_worked_negative(self, golden_a):
        assert not is_structurally_controllable(
            golden_pattern(golden_a), StructuralVector.from_text("*0000")
        )

    def test_full_input_always_works(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            pattern = random_full_diagonal_pattern(rng, n)
            assert is_structurally_controllable(
                pattern, StructuralVector((True,) * n)
            )

    def test_requires_self_loops(self):
        pattern = StructuralMatrix.from_rows(["0*", "*0"])
        with pytest.raises(MissingSelfLoops):
            is_structurally_controllable(pattern, StructuralVector.from_text("**"))

    def test_length_mismatch(self, golden_a):
        with pytest.raises(DimensionMismatch):
            is_structurally_controllable(
                golden_pattern(golden_a), StructuralVector.from_text("***")
            )

    def test_length_checked_before_condensing(self, monkeypatch):
        def no_condensation(n, src, dst):
            raise AssertionError("condensation built before the length check")

        monkeypatch.setattr(structural, "_condense", no_condensation)
        pattern = StructuralMatrix.from_numeric(np.eye(1500))
        with pytest.raises(DimensionMismatch, match="input pattern length 3 != 1500"):
            is_structurally_controllable(pattern, StructuralVector.from_text("***"))

    def test_missing_self_loops_still_reported_first(self):
        pattern = StructuralMatrix.from_rows(["0*", "*0"])
        with pytest.raises(MissingSelfLoops):
            is_structurally_controllable(pattern, StructuralVector.from_text("***"))


class TestCompatibleSolution:
    def test_picks_vertices_inside_reference(self):
        # two-vertex source component {1,2}; reference actuates vertex 2 only
        pattern = StructuralMatrix.from_rows(["**0", "**0", "0**"])
        reference = StructuralVector.from_text("0*0")
        canonical = solve_mscp(pattern)
        witness = compatible_mscp_solution(pattern, reference)
        assert str(canonical) == "*00"
        assert str(witness) == "0*0"
        assert is_structurally_controllable(pattern, witness)
        assert witness.nnz == canonical.nnz

    def test_picks_the_lowest_actuated_vertex(self):
        # one source component {1,2,3}; reference actuates vertices 2 and 3
        pattern = StructuralMatrix.from_rows(["***", "***", "***"])
        witness = compatible_mscp_solution(pattern, StructuralVector.from_text("0**"))
        assert str(witness) == "0*0"

    def test_falls_back_to_lowest_vertex(self):
        pattern = StructuralMatrix.from_rows(["*00", "0*0", "00*"])
        witness = compatible_mscp_solution(
            pattern, StructuralVector.from_text("000")
        )
        assert str(witness) == "***"

    def test_length_mismatch(self, golden_a):
        with pytest.raises(DimensionMismatch):
            compatible_mscp_solution(
                golden_pattern(golden_a), StructuralVector.from_text("**")
            )


def _random_pattern_mask(rng, n):
    """Sparse or dense n x n mask with empty rows/columns and a partial diagonal."""
    density = rng.choice([0.0, 1.0 / n, 2.5 / n, 0.05, 0.3])
    mask = rng.random((n, n)) < density
    mask[np.diag_indices(n)] = rng.random(n) < rng.choice([0.0, 0.5, 1.0])
    for axis in (0, 1):
        emptied = rng.random(n) < 0.1
        if axis == 0:
            mask[emptied, :] = False
        else:
            mask[:, emptied] = False
    return mask


def _scipy_condensation(mask):
    """Components, membership, non-top-linked flags and DAG edges via scipy."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    sparse = pytest.importorskip("scipy.sparse")
    n = mask.shape[0]
    # x_i -> x_j iff position (j, i) is a star: the adjacency is mask^T
    _, labels = csgraph.connected_components(
        sparse.csr_matrix(mask.T), directed=True, connection="strong"
    )
    groups = {}
    for v, label in enumerate(labels, start=1):
        groups.setdefault(label, []).append(v)
    components = sorted(tuple(g) for g in groups.values())
    index = {comp: ci for ci, comp in enumerate(components)}
    membership = np.empty(n, dtype=int)
    for comp in components:
        membership[np.array(comp) - 1] = index[comp]
    rows, cols = np.nonzero(mask)
    src, dst = membership[cols], membership[rows]
    keep = src != dst
    edges = frozenset(zip(src[keep].tolist(), dst[keep].tolist()))
    has_incoming = np.zeros(len(components), dtype=bool)
    has_incoming[dst[keep]] = True
    return (
        tuple(components),
        tuple(membership.tolist()),
        tuple((~has_incoming).tolist()),
        edges,
    )


class TestScipyCrossCheck:
    """Seeded patterns, n = 1..300, against scipy's strong components."""

    SIZES = (1, 2, 3, 300) + tuple(
        int(n) for n in np.random.default_rng(2024).integers(1, 301, 36)
    )

    @pytest.mark.parametrize("case", range(len(SIZES)))
    def test_condensation_matches_scipy(self, case):
        n = self.SIZES[case]
        rng = np.random.default_rng([17, case])
        mask = _random_pattern_mask(rng, n)
        numeric = np.where(mask, rng.uniform(0.5, 2.0, (n, n)), 0.0)
        variants = [
            StructuralMatrix(n, n, mask.ravel()),  # numpy bools
            StructuralMatrix(n, n, tuple(mask.astype(int).ravel().tolist())),
            StructuralMatrix.from_numeric(numeric),
        ]
        components, membership, flags, edges = _scipy_condensation(mask)
        expected_edges = frozenset(
            (i + 1, j + 1) for j, i in zip(*np.nonzero(mask))
        )
        for pattern in variants:
            assert pattern == variants[0]
            assert all(type(m) is bool for m in pattern.mask)
            assert pattern.stars == tuple(
                (r + 1, c + 1) for r, c in zip(*np.nonzero(mask))
            )
            g = state_digraph(pattern)
            assert g.edges == expected_edges
            dag = scc_dag(g)
            assert dag.components == components
            assert dag.membership == membership
            assert dag.non_top_linked == flags
            assert dag.edges == edges
        full = mask | np.eye(n, dtype=bool)
        components, _, flags, _ = _scipy_condensation(full)
        assert solve_mscp(StructuralMatrix(n, n, full.ravel())).support == tuple(
            comp[0] for comp, flag in zip(components, flags) if flag
        )

    def test_vector_mask_is_python_bool(self):
        for raw in (np.array([True, False, True]), (1, 0, 2), [0.0, 1.5, 0.0]):
            v = StructuralVector(raw)
            assert all(type(m) is bool for m in v.mask)
            assert v.mask == tuple(bool(x) for x in raw)


class TestSolveNeverBuildsTheMask:
    """The MSCP solve works on the star positions: neither the rows x cols
    mask nor the tuple of star pairs is ever built."""

    @pytest.mark.parametrize("n", [1, 7, 400])
    def test_solve_from_numeric(self, n):
        rng = np.random.default_rng([5, n])
        A = np.diag(rng.uniform(1.0, 2.0, n))
        A[rng.integers(0, n, 3 * n), rng.integers(0, n, 3 * n)] = 1.0
        pattern = StructuralMatrix.from_numeric(A)
        b = solve_mscp(pattern)
        assert is_structurally_controllable(pattern, b)
        witness = compatible_mscp_solution(pattern, b)
        assert witness == b
        # Nor is any vector's: they too are held as star positions.
        assert "mask" not in vars(b)
        assert "mask" not in vars(witness)
        assert "mask" not in vars(pattern)
        assert "stars" not in vars(pattern)
        # Both are cached properties: reading one is what stores it.
        assert sum(pattern.mask) == len(pattern.stars)
        assert "mask" in vars(pattern)
        assert "stars" in vars(pattern)
        assert sum(b.mask) == b.nnz
        assert "mask" in vars(b)

    def test_solve_mcp_builds_its_views_when_read(self, golden_a):
        # The cover instance's incidence is the one store of the patterns.
        solution = solve_mcp(golden_a)
        instance = solution.cover_instance
        assert "eigenvector_patterns" not in vars(solution)
        assert "sets" not in vars(instance)
        assert "universe" not in vars(instance)
        assert "mask" not in vars(solution.pattern)
        patterns = solution.eigenvector_patterns
        assert [str(p) for p in patterns] == ["**00*", "00*0*", "000*0", "0*000", "*0**0"]
        assert all("mask" not in vars(p) for p in patterns)
        assert "eigenvector_patterns" in vars(solution)
        assert instance.sets[1] == frozenset({1, 4})
        assert "sets" in vars(instance)


@st.composite
def full_diagonal_systems(draw):
    """A numeric A, n <= 10, with a full diagonal; each entry is 0 (off
    the diagonal only) or of magnitude in [0.5, 2]."""
    n = draw(st.integers(1, 10))
    entries = st.one_of(st.floats(0.5, 2.0), st.floats(-2.0, -0.5))
    values = np.reshape(draw(st.lists(entries, min_size=n * n, max_size=n * n)), (n, n))
    off = np.reshape(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n)), (n, n))
    return np.where(off | np.eye(n, dtype=bool), values, 0.0)


@st.composite
def permuted_systems(draw):
    """A full-diagonal numeric A, a vertex permutation p and a scale c."""
    A = draw(full_diagonal_systems())
    n = A.shape[0]
    perm = np.array(draw(st.permutations(range(n))), dtype=np.intp)
    c = draw(st.one_of(st.floats(1e-100, 1e100), st.floats(-1e100, -1e-100)))
    return A, perm, c


def _components(pattern):
    """``structural._condense`` on a square pattern's star positions."""
    dst, src = np.divmod(pattern.positions, pattern.cols)
    return structural._condense(pattern.rows, src, dst)


class TestPermutationSimilarity:
    """Relabelling the states (A -> P A P^T) relabels the MSCP answer."""

    @given(permuted_systems())
    def test_support_and_components_follow_the_permutation(self, system):
        A, perm, c = system
        n = A.shape[0]
        B = np.empty_like(A)
        B[np.ix_(perm, perm)] = A  # state v of A is state perm[v] of B
        pattern, permuted = StructuralMatrix.from_numeric(A), StructuralMatrix.from_numeric(B)
        support = solve_mscp(pattern).support
        assert solve_mscp(permuted).nnz == len(support)
        moved = StructuralVector.from_support([perm[v - 1] + 1 for v in support], n)
        assert is_structurally_controllable(permuted, moved)
        dag, dag_p = _components(pattern), _components(permuted)
        mapped = {
            tuple(sorted(perm[v - 1] + 1 for v in comp)): flag
            for comp, flag in zip(dag.components, dag.non_top_linked)
        }
        assert mapped == dict(zip(dag_p.components, dag_p.non_top_linked))
        assert StructuralMatrix.from_numeric(c * A) == pattern


class TestMcpAgainstMscp:
    """Numerical controllability implies structural controllability: a
    certified MCP support feeds every source component of A's pattern,
    so it is no smaller than the MSCP solution, and ``compare`` finds a
    sparsest structural input that it dominates."""

    @given(full_diagonal_systems())
    def test_certified_support_controls_the_pattern(self, A):
        try:
            solution = solve_mcp(A)
        except MincontrolError:
            return  # not simple, or not certified: nothing is claimed
        pattern = StructuralMatrix.from_numeric(A)
        assert is_structurally_controllable(pattern, solution.pattern)
        assert solution.size >= solve_mscp(pattern).nnz
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "system.json"
            path.write_text(json.dumps({"matrix": A.tolist()}))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_command(["compare", str(path), "--json", "--no-timings"])
        assert code == 0
        report = json.loads(out.getvalue())
        assert report["mcp"]["support"] == list(solution.support)
        assert report["dominance"]["holds"]
