import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mincontrol import (
    CoverSolution,
    IndexOutOfRange,
    SetCoverInstance,
    TooLarge,
    build_cover_instance,
    left_eigenbasis,
    solve_exact,
    solve_greedy,
    structural_pattern,
)
from conftest import is_cover

# The worked instance: position sets over the eigenvector universe {1..5}.
WORKED = SetCoverInstance(
    frozenset(range(1, 6)),
    (
        frozenset({1, 5}),
        frozenset({1, 4}),
        frozenset({2, 5}),
        frozenset({3, 5}),
        frozenset({1, 2}),
    ),
)


def brute_minimum(instance):
    """Reference: first cover in cardinality-ascending lexicographic order."""
    n = instance.n_sets
    for k in range(0, n + 1):
        for combo in itertools.combinations(range(1, n + 1), k):
            union = set()
            for i in combo:
                union |= instance.sets[i - 1]
            if union == instance.universe:
                return set(combo)
    raise AssertionError


def random_instance(rng, n_sets, universe_size, density=0.4):
    universe = set(range(1, universe_size + 1))
    while True:
        sets = [
            frozenset(e for e in universe if rng.random() < density)
            for _ in range(n_sets)
        ]
        if set().union(*sets) == universe:
            return SetCoverInstance(frozenset(universe), tuple(sets))


def cover_milp(instance, lower=0, upper=1, size=None):
    """scipy's MILP for the minimum cover, each set's 0/1 variable held in
    [lower, upper] and, when ``size`` is given, at most ``size`` sets."""
    import numpy as np

    optimize = pytest.importorskip("scipy.optimize")
    elements = sorted(instance.universe)
    incidence = np.array(
        [[e in s for s in instance.sets] for e in elements], dtype=float
    )
    ones = np.ones(instance.n_sets)
    constraints = [optimize.LinearConstraint(incidence, lb=1)]
    if size is not None:
        constraints.append(optimize.LinearConstraint(ones, ub=size))
    return optimize.milp(
        ones,
        constraints=constraints,
        integrality=ones,
        bounds=optimize.Bounds(lower, upper),
    )


def milp_optimum(instance):
    """Reference: the minimum cover size from scipy's MILP solver."""
    reference = cover_milp(instance)
    assert reference.success
    return round(reference.fun)


def milp_lex_cover(instance, size):
    """Reference: the lexicographically smallest cover of ``size`` sets.

    Sets are fixed in index order: set i is kept when the MILP still finds
    a cover of ``size`` sets with it and every set kept so far, and with
    every earlier rejected set left out.
    """
    import numpy as np

    lower, upper = np.zeros(instance.n_sets), np.ones(instance.n_sets)
    for i in range(instance.n_sets):
        if lower.sum() == size:
            break
        lower[i] = 1
        status = cover_milp(instance, lower, upper, size).status
        assert status in (0, 2)  # solved, or proven infeasible
        if status == 2:
            lower[i] = upper[i] = 0
    return tuple(int(i) + 1 for i in np.flatnonzero(lower))


def sparse_cover_instance(n, density, seed):
    """Cover instance of a sparse system: diagonal 1..n with jitter, entries
    of the given density off it, patterns at the default tolerances."""
    import numpy as np

    rng = np.random.default_rng(seed)
    A = np.diag(np.arange(1, n + 1) + rng.uniform(-0.2, 0.2, n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    A[mask] = rng.uniform(-1.0, 1.0, int(mask.sum()))
    basis = left_eigenbasis(A)
    return build_cover_instance([structural_pattern(v) for v in basis.vectors])


class TestIsCover:
    def test_worked_solution(self):
        assert is_cover(WORKED, {2, 3, 4})

    def test_no_pair_suffices(self):
        for pair in itertools.combinations(range(1, 6), 2):
            assert not is_cover(WORKED, set(pair))

    def test_all_indices(self):
        assert is_cover(WORKED, set(range(1, 6)))

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            is_cover(WORKED, {0})
        with pytest.raises(IndexOutOfRange):
            is_cover(WORKED, {6})


class TestSolveExact:
    def test_worked_instance(self):
        solution = solve_exact(WORKED)
        assert solution.sorted_indices == (2, 3, 4)
        assert solution.exact

    def test_single_set(self):
        inst = SetCoverInstance(frozenset({1}), (frozenset({1}),))
        assert solve_exact(inst).sorted_indices == (1,)

    def test_singletons_force_all(self):
        for n in (6, 20):
            inst = SetCoverInstance(
                frozenset(range(1, n + 1)),
                tuple(frozenset({i}) for i in range(1, n + 1)),
            )
            assert solve_exact(inst).sorted_indices == tuple(range(1, n + 1))

    def test_lexicographic_tie_break(self):
        # optimal covers {1,4} and {2,3}; lexicographically {1,4} wins
        inst = SetCoverInstance(
            frozenset({1, 2, 3, 4}),
            (
                frozenset({1, 2}),
                frozenset({1, 3}),
                frozenset({2, 4}),
                frozenset({3, 4}),
            ),
        )
        assert solve_exact(inst).sorted_indices == (1, 4)

    def test_lex_despite_dominated_set(self):
        # set 1 is dominated by set 2 yet belongs to the lex-smallest optimum
        inst = SetCoverInstance(
            frozenset({1, 2, 3}),
            (frozenset({1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({3})),
        )
        brute = brute_minimum(inst)
        assert set(solve_exact(inst).indices) == brute == {1, 3}

    def test_failed_state_retried_with_larger_budget(self):
        # After set 1, {4, 6, 7} is left to one set and fails; after set 2
        # the same elements come back with a budget of two.
        inst = SetCoverInstance(
            frozenset(range(1, 8)),
            (
                frozenset({3}),
                frozenset({1, 2, 3, 5}),
                frozenset({4, 7}),
                frozenset({4, 5, 6}),
            ),
        )
        assert brute_minimum(inst) == {2, 3, 4}
        assert solve_exact(inst).sorted_indices == (2, 3, 4)

    def test_empty_universe(self):
        inst = SetCoverInstance(frozenset(), ())
        assert solve_exact(inst).sorted_indices == ()

    def test_too_large(self):
        universe = frozenset(range(1, 40))
        inst = SetCoverInstance(universe, (universe,))
        with pytest.raises(TooLarge):
            solve_exact(inst)
        assert solve_exact(inst, exact_limit=40).sorted_indices == (1,)

    def test_matches_enumeration_small(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            assert set(solve_exact(inst).indices) == brute_minimum(inst)

    def test_branch_and_bound_path(self):
        # 23 sets: a family too large to check by hand, small enough to enumerate
        import numpy as np

        rng = np.random.default_rng(1)
        for _ in range(10):
            inst = random_instance(rng, 23, int(rng.integers(3, 9)))
            got = solve_exact(inst)
            want = brute_minimum(inst)
            assert len(got.indices) == len(want)
            assert set(got.indices) == want

    def test_tie_break_mid_size(self):
        # 20-40 sets over 15-30 elements with optimum at most 4: most of
        # these families have several optimal covers, so the order in which
        # the reconstruction searches decides which one comes back
        import numpy as np

        rng = np.random.default_rng(5)
        checked = 0
        while checked < 30:
            inst = random_instance(
                rng,
                int(rng.integers(20, 41)),
                int(rng.integers(15, 31)),
                density=float(rng.uniform(0.3, 0.45)),
            )
            got = solve_exact(inst)
            if got.size > 4:
                continue
            assert set(got.indices) == brute_minimum(inst)
            checked += 1

    def test_size_matches_milp(self):
        # 21-40 sets over at most 20 elements; scipy's MILP gives the optimum
        import numpy as np

        rng = np.random.default_rng(4)
        for _ in range(30):
            inst = random_instance(
                rng, int(rng.integers(21, 41)), int(rng.integers(5, 21))
            )
            got = solve_exact(inst)
            assert is_cover(inst, got.indices)
            assert got.size == milp_optimum(inst)

    @pytest.mark.parametrize(
        "n, seed", [(100, 0), (100, 1), (150, 0), (150, 2), (200, 0), (200, 1), (200, 2)]
    )
    def test_sparse_system_size_matches_milp(self, n, seed):
        # Eigenvector covers of sparse systems: n=150 and n=200 with seed 2
        # defeat include-or-skip branching over the sets in index order.
        inst = sparse_cover_instance(n, 0.02, seed)
        got = solve_exact(inst, exact_limit=n)
        assert is_cover(inst, got.indices)
        assert got.size == milp_optimum(inst)

    @pytest.mark.parametrize("n, seed", [(100, 0), (100, 1), (150, 0), (150, 2)])
    def test_sparse_system_tie_break_matches_milp(self, n, seed):
        # Beyond brute force: the MILP oracle fixes the sets in index order
        # and so gives the lexicographically smallest optimal cover.
        inst = sparse_cover_instance(n, 0.02, seed)
        got = solve_exact(inst, exact_limit=n)
        assert got.sorted_indices == milp_lex_cover(inst, milp_optimum(inst))

    def test_deterministic(self):
        import numpy as np

        rng = np.random.default_rng(2)
        inst = random_instance(rng, 8, 8)
        assert solve_exact(inst).indices == solve_exact(inst).indices


class TestSolveGreedy:
    def test_worked_instance_overshoots(self):
        solution = solve_greedy(WORKED)
        assert solution.sorted_indices == (1, 2, 3, 4)
        assert not solution.exact

    def test_single_covering_set(self):
        inst = SetCoverInstance(
            frozenset({1, 2, 3}), (frozenset({1, 2, 3}),)
        )
        assert solve_greedy(inst).sorted_indices == (1,)

    def test_singletons(self):
        inst = SetCoverInstance(
            frozenset({1, 2, 3}), tuple(frozenset({i}) for i in (1, 2, 3))
        )
        assert solve_greedy(inst).sorted_indices == (1, 2, 3)

    def test_always_a_cover_never_smaller_than_exact(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for _ in range(40):
            inst = random_instance(rng, int(rng.integers(2, 9)), int(rng.integers(2, 9)))
            greedy = solve_greedy(inst)
            exact = solve_exact(inst)
            assert is_cover(inst, greedy.indices)
            assert len(greedy.indices) >= len(exact.indices)

    def test_lowest_index_tie_break(self):
        inst = SetCoverInstance(
            frozenset({1, 2}), (frozenset({1}), frozenset({1}), frozenset({2}))
        )
        assert solve_greedy(inst).sorted_indices == (1, 3)


class TestInstanceValidation:
    def test_set_outside_universe(self):
        with pytest.raises(ValueError):
            SetCoverInstance(frozenset({1}), (frozenset({1, 2}),))

    def test_union_must_cover(self):
        with pytest.raises(ValueError):
            SetCoverInstance(frozenset({1, 2}), (frozenset({1}),))

    @pytest.mark.parametrize("universe", [{0, 1}, {1, 3}, {2}, {"a"}])
    def test_universe_must_be_one_to_m(self, universe):
        with pytest.raises(ValueError, match="universe must be"):
            SetCoverInstance(frozenset(universe), (frozenset(universe),))

    def test_incidence_is_the_store(self):
        assert WORKED.incidence.shape == (5, 5)
        assert WORKED.incidence[1].tolist() == [True, False, False, True, False]
        assert not WORKED.incidence.flags.writeable
        same = SetCoverInstance(range(1, 6), [list(s) for s in WORKED.sets])
        assert same == WORKED and hash(same) == hash(WORKED)
        assert SetCoverInstance({1}, [{1}]) != SetCoverInstance({1}, [{1}, {1}])
        assert SetCoverInstance(set(), [set()]) != SetCoverInstance(set(), [])
        # Elements equal to 1..m in another type are those elements.
        assert SetCoverInstance({1.0, 2}, [{True}, {2.0}]) == SetCoverInstance({1, 2}, [{1}, {2}])

    def test_sorted_sets_view(self):
        assert WORKED.sorted_sets() == [sorted(s) for s in WORKED.sets]
        assert SetCoverInstance({1, 2}, [set(), {2, 1}, set()]).sorted_sets() == [[], [1, 2], []]

    def test_cover_solution_normalizes(self):
        sol = CoverSolution({3, 1}, exact=True)
        assert sol.sorted_indices == (1, 3)
        assert sol.size == 2


@settings(max_examples=60)
@given(st.data())
def test_exact_is_minimum_and_lex_smallest(data):
    universe_size = data.draw(st.integers(1, 7))
    n_sets = data.draw(st.integers(1, 7))
    universe = frozenset(range(1, universe_size + 1))
    sets = [
        frozenset(data.draw(st.sets(st.integers(1, universe_size))))
        for _ in range(n_sets)
    ]
    if frozenset().union(*sets) != universe:
        return
    inst = SetCoverInstance(universe, tuple(sets))
    got = solve_exact(inst)
    want = brute_minimum(inst)
    assert set(got.indices) == want
