"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from mincontrol import (
    StructuralMatrix,
    brute_force_mcp,
    build_cover_instance,
    compatible_mscp_solution,
    kalman_test,
    left_eigenbasis,
    scc_dag,
    solve_mcp,
    solve_mscp,
    state_digraph,
    structural_geq,
    structural_pattern,
    verification_report,
)
from mincontrol.cli import run_command
from conftest import GOLDEN_COVER_SETS, random_simple_matrix


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {description}")
        raise
    print(f"[criterion {num}] PASS - {description}")


@pytest.fixture(scope="module")
def random_instances():
    """200 simple matrices, n in 3..6, entries uniform on [-1, 1]."""
    rng = np.random.default_rng(20240501)
    out = []
    for k in range(200):
        n = 3 + k % 4
        out.append(random_simple_matrix(rng, n))
    return out


def test_criterion_1_golden_sets(golden_a):
    with criterion(1, "worked example produces the five position sets exactly"):
        start = time.monotonic()
        basis = left_eigenbasis(golden_a)
        patterns = [structural_pattern(v) for v in basis.vectors]
        instance = build_cover_instance(patterns)
        elapsed = time.monotonic() - start
        assert [set(s) for s in instance.sets] == GOLDEN_COVER_SETS
        assert instance.universe == frozenset({1, 2, 3, 4, 5})
        assert elapsed < 1.0


def test_criterion_2_golden_solution(golden_a):
    with criterion(2, "exact solve: cover {2,3,4}, pattern 0***0, Kalman rank 5"):
        start = time.monotonic()
        solution = solve_mcp(golden_a, mode="exact")
        elapsed = time.monotonic() - start
        assert solution.support == (2, 3, 4)
        assert str(solution.pattern) == "0***0"
        b = solution.vector
        assert b[1] != 0 and b[2] != 0 and b[3] != 0
        assert b[2] + b[3] != 0
        assert solution.certificate.kalman.rank == 5
        assert elapsed < 1.0


def test_criterion_3_perturbation_experiment(golden_path, capsys):
    with criterion(3, "20 perturbed runs all pick support {2,4}, the MSCP support"):
        run_command(["solve-mscp", golden_path, "--json", "--no-timings"])
        mscp_support = json.loads(capsys.readouterr().out)["support"]
        supports = []
        for seed in range(20):
            run_command(
                [
                    "solve-mcp",
                    golden_path,
                    "--perturb",
                    "1e-10",
                    "--seed",
                    str(seed),
                    "--json",
                    "--no-timings",
                ]
            )
            report = json.loads(capsys.readouterr().out)
            assert "solution" in report, f"seed {seed}: no support reported"
            supports.append(report["solution"]["support"])
        assert all(s == [2, 4] for s in supports)
        assert all(len(s) == 2 for s in supports)
        assert mscp_support == [2, 4]


def test_criterion_4_mscp_golden(golden_a):
    with criterion(4, "structural solve returns 0*0*0 from two source components"):
        pattern = StructuralMatrix.from_numeric(golden_a)
        assert str(solve_mscp(pattern)) == "0*0*0"
        dag = scc_dag(state_digraph(pattern))
        assert dag.non_top_linked_components == ((2,), (4,))


def test_criterion_5_oracle_equivalence(random_instances):
    with criterion(5, "exact solver matches brute force on 200/200 instances, <60 s"):
        start = time.monotonic()
        agreements = 0
        for A in random_instances:
            exact_size = solve_mcp(A, mode="exact").size
            oracle_size = brute_force_mcp(A).min_support_size
            agreements += exact_size == oracle_size
        elapsed = time.monotonic() - start
        assert agreements == 200
        assert elapsed < 60.0


def test_criterion_6_greedy_feasibility_and_gap(golden_a, random_instances):
    with criterion(6, "greedy always controllable within (1+ln n) of optimal"):
        for A in random_instances:
            greedy = solve_mcp(A, mode="greedy")
            exact = solve_mcp(A, mode="exact")
            assert greedy.certificate.controllable
            n = A.shape[0]
            assert greedy.size <= (1.0 + math.log(n)) * exact.size
        assert solve_mcp(golden_a, mode="greedy").size == 4
        assert solve_mcp(golden_a, mode="exact").size == 3


def test_criterion_7_density_of_realizations(golden_a):
    with criterion(7, "1000 random realizations on support {2,3,4} all pass Kalman"):
        rng = np.random.default_rng(42)
        failures = 0
        for _ in range(1000):
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


def test_criterion_8_test_equivalence():
    with criterion(8, "PBH-eigenvalue, PBH-eigenvector and Kalman agree 100/100"):
        rng = np.random.default_rng(9000)
        agreements = 0
        for k in range(100):
            n = 3 + k % 4
            A = random_simple_matrix(rng, n)
            b = rng.uniform(-1.0, 1.0, n)
            basis = left_eigenbasis(A)
            report = verification_report(b, A=A, basis=basis)
            agreements += report.consistent
        assert agreements == 100


def test_criterion_9_structural_dominance(golden_a, random_instances):
    with criterion(9, "MCP pattern dominates a sparsest structural pattern"):
        rng = np.random.default_rng(31337)

        def check(A):
            a_pattern = StructuralMatrix.from_numeric(A)
            if not all(a_pattern.diagonal):
                return  # premise does not apply
            solution = solve_mcp(A, mode="exact")
            witness = compatible_mscp_solution(a_pattern, solution.pattern)
            assert structural_geq(solution.pattern, witness)
            assert solution.size >= witness.nnz

        check(golden_a)
        for A in random_instances[:50]:
            check(A)
        # sparse patterns with a guaranteed diagonal exercise nontrivial DAGs
        from mincontrol import is_simple

        count = 0
        while count < 30:
            n = int(rng.integers(3, 7))
            A = rng.uniform(-1.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < 0.35)
            A[np.diag_indices(n)] = rng.uniform(0.5, 1.5, n)
            if not is_simple(np.linalg.eigvals(A), 1e-6):
                continue
            check(A)
            count += 1
