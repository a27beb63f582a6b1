"""Self-tests of the benchmark (not of mincontrol).

Run from the root of the checkout:

    python3 -m pytest benchmarks -q
"""
from __future__ import annotations

import itertools
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
from reference import check_mcp, check_mscp, mcp_reference, mscp_reference
from workloads import WORKLOADS, tiny, write_input

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_completes_and_prints_the_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_declared_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def _golden_like(seed: int, n: int = 6) -> np.ndarray:
    rng = np.random.default_rng(seed)
    A = np.diag(np.arange(1.0, n + 1)) + np.triu(rng.uniform(-1, 1, (n, n)), 1)
    A[np.abs(A) < 0.6] = 0.0
    np.fill_diagonal(A, np.arange(1.0, n + 1))
    return A


def _minimum_supports(ref):
    for k in range(1, ref.n + 1):
        found = [
            list(c) for c in itertools.combinations(range(1, ref.n + 1), k)
            if all(set(c) & pat for pat in ref.patterns)
        ]
        if found:
            return found
    raise AssertionError("no support meets every pattern")


def test_mcp_checker_accepts_a_minimum_support_and_rejects_wrong_ones():
    ref = mcp_reference(_golden_like(0))
    good = _minimum_supports(ref)[0]
    assert check_mcp(ref, good) == []
    # One position fewer misses a pattern; one more is not minimum.
    assert check_mcp(ref, good[:-1])
    extra = next(i for i in range(1, ref.n + 1) if i not in good)
    assert check_mcp(ref, good + [extra])
    # Same size, but not meeting every pattern.
    bad = next(
        list(c) for c in itertools.combinations(range(1, ref.n + 1), len(good))
        if not all(set(c) & pat for pat in ref.patterns)
    )
    assert any("misses" in p for p in check_mcp(ref, bad))
    assert check_mcp(ref, None) and check_mcp(ref, [0]) and check_mcp(ref, good + good)


def test_mscp_checker_accepts_one_vertex_per_source_and_rejects_wrong_ones():
    # 1 -> 2 -> 3 -> 2, and 4 alone: sources {1} and {4}.
    A = np.eye(4)
    A[1, 0] = A[2, 1] = A[1, 2] = 1.0
    ref = mscp_reference(A)
    assert sorted(sorted(c) for c in ref.sources) == [[1], [4]]
    assert check_mscp(ref, [1, 4]) == []
    assert check_mscp(ref, [2, 4])
    assert check_mscp(ref, [1])
    assert check_mscp(ref, [1, 2, 4])


def test_run_counts_a_wrong_support_as_a_wrong_answer_and_a_failure():
    ref = mcp_reference(_golden_like(0))
    good = _minimum_supports(ref)[0]
    ops = [
        {"outcome": "ok", "support": good, "message": None},
        {"outcome": "unverifiable", "support": good, "message": "m"},
        {"outcome": "ok", "support": good[:-1], "message": None},
        {"outcome": "exit2", "support": None, "message": "e"},
    ]
    names = [f"p{k:04d}.json" for k in range(4)]
    checked = run.check_answers(ops, [ref] * 4, check_mcp, names)
    assert checked["wrong_answers"] == 1
    assert checked["wrong"][0]["input"] == "p0002.json"
    assert checked["failed"] == 2
    assert checked["failed_share"] == 0.75
    assert checked["outcomes"] == {"exit2": 1, "ok": 2, "unverifiable": 1}


def test_a_weaker_certificate_fails_the_probe():
    limit = run.PROBE_MAX_UNCERTIFIED
    assert run.certificate_probe(["ok"] * 90)["holds"]
    assert run.certificate_probe(["unverifiable"] * limit + ["ok"] * 86)["holds"]
    gate = run.certificate_probe(["unverifiable"] * (limit + 1) + ["exit2"] + ["ok"] * 84)
    assert gate["uncertified"] == limit + 2 and not gate["holds"]
    assert run.certificate_probe(None) is None


def test_inputs_come_only_from_the_seed(tmp_path):
    w = tiny(WORKLOADS["mcp-large"])

    def inputs(seed, name):
        return [write_input(w, seed, k, tmp_path / name).read_bytes() for k in (None, 0, 1, 2)]

    assert inputs(7, "a") == inputs(7, "b")
    assert len(set(inputs(7, "a"))) == 4
    assert inputs(7, "a") != inputs(8, "c")


def test_self_time_subtracts_children():
    spans = [
        {"id": 0, "name": "op", "op": 0, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 1, "name": "a", "op": 0, "parent": 0, "start": 1.0, "end": 4.0},
        {"id": 2, "name": "b", "op": 0, "parent": 0, "start": 5.0, "end": 9.0},
    ]
    assert run.self_times(spans) == {0: 3.0, 1: 3.0, 2: 4.0}


def test_tail_percentile_keeps_ten_samples_beyond():
    times = [float(i) for i in range(1, 101)]
    assert run.tail_percentile(times, 99.0) == (90.0, 90.0, 10)
    assert run.tail_percentile(times, 75.0) == (75.0, 75.0, 25)
    assert run.tail_percentile(times[:15], 99.0) == (50.0, 8.0, 7)
