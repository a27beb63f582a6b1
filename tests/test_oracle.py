import itertools

import numpy as np
import pytest

from mincontrol import (
    NotSimple,
    Tolerances,
    TooLarge,
    ZeroPattern,
    brute_force_mcp,
    left_eigenbasis,
    solve_mcp,
    structural_pattern,
)
from conftest import random_simple_matrix


class TestBruteForce:
    def test_worked_example(self, golden_a):
        result = brute_force_mcp(golden_a)
        assert result.min_support_size == 3
        assert (2, 3, 4) in result.optimal_supports
        assert result.optimal_supports == ((2, 3, 4), (2, 4, 5))
        assert all(result.kalman_verdicts)

    def test_diagonal(self):
        result = brute_force_mcp(np.diag([1.0, 2.0, 3.0]))
        assert result.min_support_size == 3
        assert result.optimal_supports == ((1, 2, 3),)

    def test_agrees_with_pipeline(self):
        rng = np.random.default_rng(55)
        for _ in range(10):
            A = random_simple_matrix(rng, 5)
            result = brute_force_mcp(A)
            assert result.min_support_size == solve_mcp(A).size

    def test_too_large(self):
        rng = np.random.default_rng(1)
        A = random_simple_matrix(rng, 4)
        with pytest.raises(TooLarge):
            brute_force_mcp(A, n_limit=3)

    def test_not_simple(self):
        with pytest.raises(NotSimple):
            brute_force_mcp(np.eye(4))

    def test_zero_pattern_is_the_solves(self, golden_a):
        # zero_tol = 1 keeps no entry, so every pattern is all-zero.
        tol = Tolerances(zero_tol=1.0)
        with pytest.raises(ZeroPattern) as solved:
            solve_mcp(golden_a, tol=tol)
        with pytest.raises(ZeroPattern) as oracle:
            brute_force_mcp(golden_a, tol=tol)
        assert str(oracle.value) == str(solved.value)

    def test_eigenbasis_solved_once(self, monkeypatch, golden_a):
        # Every candidate support is certified on the oracle's own basis:
        # one eig per call, however many candidates there are.
        rng = np.random.default_rng(56)
        calls, eig = [], np.linalg.eig

        def spy(X, *args, **kwargs):
            calls.append(X.shape)
            return eig(X, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", spy)
        for A in (golden_a, random_simple_matrix(rng, 6)):
            calls.clear()
            result = brute_force_mcp(A)
            assert len(result.optimal_supports) > 1 and all(result.kalman_verdicts)
            assert calls == [A.shape]

    def test_supports_reported_in_lexicographic_order(self, golden_a):
        result = brute_force_mcp(golden_a)
        assert list(result.optimal_supports) == sorted(result.optimal_supports)


class TestAntiMonotonicity:
    def test_supersets_of_feasible_supports_are_feasible(self, golden_a):
        basis = left_eigenbasis(golden_a)
        eigen_supports = [
            set(structural_pattern(v).support) for v in basis.vectors
        ]

        def feasible(support):
            return all(s & set(support) for s in eigen_supports)

        n = 5
        for k in range(1, n + 1):
            for combo in itertools.combinations(range(1, n + 1), k):
                if feasible(combo):
                    for extra in range(1, n + 1):
                        assert feasible(set(combo) | {extra})
