"""The benchmark's staged pipeline still runs against this source tree.

``benchmarks/worker.py`` times the program's stages by calling public
functions by name (``Program.staged``). This runs that pipeline on two
small inputs of each workload and checks that it reaches the same
outcome and support as the operation the benchmark times
(``Program.run``), so a renamed or re-signed stage fails here rather
than only in the benchmark's own, slower self-tests. It also checks that
the structural trace counters count what their names say, and that the
staged MCP pipeline certifies what the CLI certifies.
"""
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from mincontrol.tolerances import DEFAULT_ZERO_TOL

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from worker import NullTracer, Program  # noqa: E402
from workloads import WORKLOADS, tiny, write_input  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_staged_pipeline_agrees_with_the_operation(name, tmp_path):
    w = tiny(WORKLOADS[name])
    program = Program(REPO_ROOT, w.family, w.exact_limit_n)
    for k in range(2):
        item = program.prepare(write_input(w, 1, k, tmp_path), w.size(k))
        outcome, support, _ = program.classify(program.run(item))
        staged_outcome, staged_support, _ = program.staged(item, NullTracer(), k)
        assert (staged_outcome, staged_support) == (outcome, support)
        assert support


def test_structural_trace_counts_keep_their_meaning(tmp_path):
    w = tiny(WORKLOADS["mscp-structural"])
    program = Program(REPO_ROOT, w.family, w.exact_limit_n)
    for k in range(2):
        A = program.prepare(write_input(w, 1, k, tmp_path), w.size(k))
        mags = np.abs(A)
        mask = mags > DEFAULT_ZERO_TOL * mags.max()
        n_components, _ = connected_components(
            csr_matrix(mask), directed=True, connection="strong"
        )
        outcome, _, counts = program.staged(A, NullTracer(), k)
        assert outcome == "ok"
        assert counts == {
            "structure.pattern_nnz": np.count_nonzero(mask),
            "structural.components": n_components,
        }


def test_staged_mcp_pipeline_certifies_like_the_cli(tmp_path):
    # diag(1e200, 2e200, 3e200), whose Krylov matrix overflows, and two
    # full-size mcp-large inputs (n = 64, 73): the staged pipeline calls
    # verify.kalman_test and verify.pbh_eigenvalue_test by name, the CLI
    # calls verification_report; both must certify the same support.
    w = WORKLOADS["mcp-large"]
    program = Program(REPO_ROOT, w.family, w.exact_limit_n)
    huge = tmp_path / "huge.json"
    huge.write_text('{"matrix": [[1e200, 0, 0], [0, 2e200, 0], [0, 0, 3e200]]}')
    items = [(str(huge), 3)] + [
        program.prepare(write_input(w, 1, k, tmp_path), w.size(k)) for k in range(2)
    ]
    assert [n for _, n in items] == [3, 64, 73]
    supports = []
    for k, item in enumerate(items):
        outcome, support, _ = program.classify(program.run(item))
        staged_outcome, staged_support, counts = program.staged(item, NullTracer(), k)
        assert (staged_outcome, staged_support) == (outcome, support)
        assert outcome == "ok" and support
        assert counts["verify.kalman_deficit"] == 0
        assert counts["verify.disagree"] == 0
        supports.append(support)
    assert supports[0] == [1, 2, 3]
