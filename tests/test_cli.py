import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mincontrol import DimensionError, ParseError, cli, solve_mcp
from mincontrol.cli import (
    _matrix_digest,
    _write_json,
    load_problem,
    run_command,
)
from conftest import (
    DATA_DIR,
    GOLDEN_A,
    GOLDEN_EIGENVALUES,
    GOLDEN_LEFT_EIGENVECTORS,
    random_simple_matrix,
    sparse_simple_matrix,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SCHEMA = json.loads((REPO_ROOT / "docs" / "report-schema.json").read_text())


def run_json(capsys, *argv):
    code = run_command([*argv, "--json", "--no-timings"])
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestLoadProblem:
    def test_json_matrix(self, golden_path):
        pf = load_problem(golden_path)
        assert pf.n == 5
        np.testing.assert_array_equal(pf.matrix, GOLDEN_A)
        assert not pf.has_eigenbasis

    def test_text_matrix(self):
        pf = load_problem(str(DATA_DIR / "golden5.txt"))
        np.testing.assert_array_equal(pf.matrix, GOLDEN_A)

    def test_with_eigenbasis(self, tmp_path):
        doc = {
            "matrix": [[float(x) for x in row] for row in GOLDEN_A],
            "eigenbasis": {
                "eigenvalues": [float(x) for x in GOLDEN_EIGENVALUES],
                "vectors": [[float(x) for x in row] for row in GOLDEN_LEFT_EIGENVECTORS],
            },
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        pf = load_problem(str(path))
        assert pf.has_eigenbasis
        np.testing.assert_array_equal(pf.eigenvalues, GOLDEN_EIGENVALUES)

    def test_eigenbasis_pair_count_mismatch(self, tmp_path):
        doc = {
            "matrix": [[float(x) for x in row] for row in GOLDEN_A],
            "eigenbasis": {
                "eigenvalues": [5.0, 4.0, 3.0, 2.0],
                "vectors": [[float(x) for x in row] for row in GOLDEN_LEFT_EIGENVECTORS],
            },
        }
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DimensionError):
            load_problem(str(path))

    def test_complex_pairs(self, tmp_path):
        doc = {"matrix": [[[0.0, 1.0], [1.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        pf = load_problem(str(path))
        assert pf.matrix[0, 0] == 1j

    def test_bad_entry(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"matrix": [["x", 1], [0, 1]]}')
        with pytest.raises(ParseError):
            load_problem(str(path))

    def test_n_mismatch(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"n": 3, "matrix": [[1, 0], [0, 1]]}')
        with pytest.raises(DimensionError):
            load_problem(str(path))

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"matrix": [[1, 0], [0]]}')
        with pytest.raises(DimensionError):
            load_problem(str(path))

    def test_text_nonsquare(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("1 2 3\n4 5 6\n")
        with pytest.raises(DimensionError):
            load_problem(str(path))

    def test_unknown_tolerance_key(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"matrix": [[1]], "tolerances": {"magic": 1}}')
        with pytest.raises(ParseError):
            load_problem(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_problem(str(tmp_path / "absent.json"))

    def test_mixed_numbers_and_pairs(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"matrix": [[1, [0, -2.5]], [[3, 0], -0.0]]}')
        pf = load_problem(str(path))
        np.testing.assert_array_equal(pf.matrix, [[1, -2.5j], [3, 0]])
        assert np.signbit(pf.matrix[1, 1].real)

    def test_whole_array_decode_matches_entries(self, tmp_path):
        rng = np.random.default_rng(11)
        M = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        M[rng.random((7, 7)) < 0.3] = complex(-0.0, -0.0)
        pairs = [[[z.real, z.imag] for z in row] for row in M]
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"matrix": pairs}))
        decoded = load_problem(str(path)).matrix
        assert decoded.tobytes() == np.array(
            [[complex(re, im) for re, im in row] for row in pairs]
        ).tobytes()

    @staticmethod
    def pair_system():
        """A complex matrix with a real diagonal, as rows of [re, im] pairs."""
        rng = np.random.default_rng(4)
        A = sparse_simple_matrix(rng, 8, density=0.3)
        off = (A != 0) & ~np.eye(8, dtype=bool)
        A = A + 1j * np.where(off, rng.uniform(-1.0, 1.0, A.shape), 0.0)
        return A, [[[z.real, z.imag] for z in row] for row in A.tolist()]

    def test_pair_matrix_decodes_as_one_array(self, tmp_path, monkeypatch):
        A, pairs = self.pair_system()
        mixed = [row[:] for row in pairs]
        mixed[0][0] = A[0, 0].real  # a plain number: the entry-by-entry path
        calls = []
        decode_entry = cli._decode_entry
        monkeypatch.setattr(
            cli, "_decode_entry", lambda *a: calls.append(a) or decode_entry(*a)
        )
        decoded = {}
        for name, matrix in (("pairs", pairs), ("mixed", mixed)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"matrix": matrix}))
            calls.clear()
            decoded[name] = load_problem(str(path)).matrix
            assert len(calls) == (0 if name == "pairs" else A.size)
        assert decoded["pairs"].tobytes() == decoded["mixed"].tobytes() == A.tobytes()

    def test_pair_matrix_solves_like_the_array(self, capsys, tmp_path):
        A, pairs = self.pair_system()
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps({"matrix": pairs}))
        code, report = run_json(capsys, "solve-mcp", str(path))
        want = solve_mcp(A)
        assert code == 0
        assert report["input"]["matrix_digest"] == _matrix_digest(A)
        assert report["solution"]["support"] == list(want.support)
        assert report["solution"]["vector"] == [[z.real, z.imag] for z in want.vector.tolist()]
        assert report["eigenvalues"] == [
            [z.real, z.imag] for z in want.basis.eigenvalues.tolist()
        ]

    def test_digest_matches_per_entry_encoding(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        M[0, 0] = complex(-0.0, 0.0)
        M[1, 2] = complex(0.0, -0.0)
        M[2, 3] = complex(1e300, -1e-300)
        M[3, 4] = 7.0
        # mostly +0.0 entries, which the digest does not encode one by one
        S = np.where(rng.random((100, 100)) < 0.03, rng.uniform(-1, 1, (100, 100)), 0.0)
        S[4, 7], S[50, 2], S[99, 99], S[0, 99] = -0.0, 5e-324, 1e300, -2.5e-310
        for M in (M, np.zeros((4, 4)), np.array([[3.0]]), S, S * 1j):
            per_entry = [
                [[float(np.real(z)), float(np.imag(z))] for z in row] for row in M
            ]
            payload = json.dumps(per_entry, separators=(",", ":")).encode()
            assert _matrix_digest(M) == hashlib.sha256(payload).hexdigest()
            assert _matrix_digest(M.real) == _matrix_digest(M.real.astype(complex))


class TestMalformedProblemMessages:
    """Each rejected matrix names its first offending entry, exit 2."""

    @pytest.mark.parametrize(
        "matrix, message",
        [
            ("[[1, true], [0, 1]]", "matrix[1][2]: expected a number or a "
             "[real, imag] pair, got True"),
            ("[[1, 0], [0, Infinity]]", "matrix[2][2]: entries must be finite"),
            ("[[1, NaN], [0, -Infinity]]", "matrix[1][2]: entries must be finite"),
            ("[[[1, 0], [0, NaN]], [[0, 0], [1, 0]]]",
             "matrix[1][2]: entries must be finite"),
            ("[[1, 0], [0]]", "matrix row 2: expected 2 entries"),
            ("[[1, 0], 5]", "matrix row 2: expected 2 entries"),
            ("[[1, [0, 1, 2]], [0, 1]]", "matrix[1][2]: expected a number or a "
             "[real, imag] pair, got [0, 1, 2]"),
            ("[[1, [0, true]], [0, 1]]", "matrix[1][2]: expected a number or a "
             "[real, imag] pair, got [0, True]"),
            ('[[1, ["0", 1]], [0, 1]]', "matrix[1][2]: expected a number or a "
             "[real, imag] pair, got ['0', 1]"),
            # the first offending entry in row order wins over a later ragged row
            ("[[1, true], [0]]", "matrix[1][2]: expected a number or a "
             "[real, imag] pair, got True"),
        ],
    )
    def test_message(self, capsys, tmp_path, matrix, message):
        path = tmp_path / "bad.json"
        path.write_text(f'{{"matrix": {matrix}}}')
        assert run_command(["eig", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_eigenvector_entry(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            '{"matrix": [[1, 0], [0, 2]], "eigenbasis": '
            '{"eigenvalues": [1, 2], "vectors": [[1, 0], [0, true]]}}'
        )
        assert run_command(["eig", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: eigenvectors[2][2]: expected a number or a "
            "[real, imag] pair, got True\n"
        )


class TestProblemFileErrors:
    """Each loader check of a malformed problem file exits 2 with one
    error line naming the file, and no traceback."""

    MATRIX = '"matrix": [[1, 0], [0, 2]]'

    CASES = {
        "row-count": (
            '{MATRIX, "eigenbasis": {"eigenvalues": [1, 2], "vectors": [[1, 0]]}}',
            ": eigenvectors: expected 2 rows",
        ),
        "invalid-json": ("{MATRIX,}", ":1: Expecting property name enclosed in double quotes"),
        "no-matrix-field": ('{"n": 2}', ": expected an object with a 'matrix' field"),
        "empty-matrix": ('{"matrix": []}', ": 'matrix' must be a nonempty array of rows"),
        "matrix-not-a-list": ('{"matrix": 5}', ": 'matrix' must be a nonempty array of rows"),
        "no-eigenvalues": (
            '{MATRIX, "eigenbasis": {"vectors": [[1, 0], [0, 1]]}}',
            ": eigenbasis needs 'eigenvalues' and 'vectors'",
        ),
        "no-vectors": (
            '{MATRIX, "eigenbasis": {"eigenvalues": [1, 2]}}',
            ": eigenbasis needs 'eigenvalues' and 'vectors'",
        ),
        "tolerances-not-an-object": (
            '{MATRIX, "tolerances": [1e-9]}', ": 'tolerances' must be an object"
        ),
        "tolerance-not-a-number": (
            '{MATRIX, "tolerances": {"zero_tol": "1e-9"}}',
            ": tolerance zero_tol must be a number",
        ),
        "text-bad-token": ("1 0\n0 x\n", ":2: could not convert string to float: 'x'"),
        "text-no-rows": ("# no rows\n\n", ": no matrix rows found"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exits_two(self, capsys, tmp_path, case):
        text, message = self.CASES[case]
        path = tmp_path / ("problem.txt" if case.startswith("text") else "problem.json")
        path.write_text(text.replace("MATRIX", self.MATRIX))
        assert run_command(["solve-mcp", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}{message}\n"
        assert captured.out == ""


class TestOverflowingIntegerLiterals:
    """A JSON integer beyond the float range is a parse error, exit 2."""

    HUGE = "1" + "0" * 400

    @pytest.mark.parametrize(
        "doc, message",
        [
            ('{"matrix": [[1, 0], [0, HUGE]]}', "matrix[2][2]: entries must be finite"),
            (
                '{"matrix": [[1, [0, HUGE]], [0, 2]]}',
                "matrix[1][2]: entries must be finite",
            ),
            (
                '{"matrix": [[1, 0], [0, 2]], "eigenbasis": '
                '{"eigenvalues": [1, HUGE], "vectors": [[1, 0], [0, 1]]}}',
                "eigenvalue 2: entries must be finite",
            ),
            (
                '{"matrix": [[1, 0], [0, 2]], "tolerances": {"zero_tol": HUGE}}',
                "tolerance zero_tol is beyond the float range",
            ),
        ],
        ids=["matrix-entry", "pair", "eigenvalue", "tolerance"],
    )
    def test_parse_error(self, capsys, tmp_path, doc, message):
        path = tmp_path / "huge_int.json"
        path.write_text(doc.replace("HUGE", self.HUGE))
        assert run_command(["solve-mcp", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: {message}\n"
        assert captured.out == ""


class TestSolveMcpCommand:
    def test_text_output_exit_zero(self, capsys, golden_path):
        code = run_command(["solve-mcp", golden_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "support: [2, 3, 4]" in out
        assert "0***0" in out
        assert "kalman rank: 5" in out

    def test_json_fields(self, capsys, golden_path):
        code, report = run_json(capsys, "solve-mcp", golden_path)
        assert code == 0
        assert report["solution"]["support"] == [2, 3, 4]
        assert report["solution"]["support_size"] == 3
        assert report["cover_instance"]["sets"] == [
            [1, 5],
            [1, 4],
            [2, 5],
            [3, 5],
            [1, 2],
        ]
        assert report["solution"]["verification"]["kalman"]["rank"] == 5

    def test_schema(self, capsys, golden_path):
        jsonschema = pytest.importorskip("jsonschema")
        _, report = run_json(capsys, "solve-mcp", golden_path)
        jsonschema.validate(report, SCHEMA)

    def test_golden_report(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        code = run_command(
            ["solve-mcp", "tests/data/golden5.json", "--json", "--no-timings"]
        )
        out = capsys.readouterr().out
        assert code == 0
        golden = (REPO_ROOT / "tests" / "data" / "golden5_report.json").read_text()
        assert out == golden

    def test_golden_greedy_report(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        argv = ["solve-mcp", "tests/data/golden5.json", "--mode", "greedy", "--json", "--no-timings"]
        assert run_command(argv) == 0
        golden = (REPO_ROOT / "tests" / "data" / "golden5_greedy_report.json").read_text()
        assert capsys.readouterr().out == golden

    def test_golden_basis_report(self, capsys, monkeypatch):
        # The same system with its eigenbasis in the file: no eigensolve.
        monkeypatch.chdir(REPO_ROOT)
        argv = ["solve-mcp", "tests/data/golden5_basis.json", "--json", "--no-timings"]
        assert run_command(argv) == 0
        golden = (REPO_ROOT / "tests" / "data" / "golden5_basis_report.json").read_text()
        assert capsys.readouterr().out == golden

    def test_byte_identical_runs(self, capsys, golden_path):
        run_command(["solve-mcp", golden_path, "--json", "--no-timings"])
        first = capsys.readouterr().out
        # the parser is shared, so runs with other or rejected flags in
        # between must leave no trace
        run_command(["solve-mcp", golden_path, "--mode", "greedy", "--zero-tol", "1e-3"])
        run_command(["solve-mcp", golden_path, "--mode", "quantum"])
        capsys.readouterr()
        run_command(["solve-mcp", golden_path, "--json", "--no-timings"])
        second = capsys.readouterr().out
        assert first == second

    def test_greedy_mode(self, capsys, golden_path):
        code, report = run_json(capsys, "solve-mcp", golden_path, "--mode", "greedy")
        assert code == 0
        assert report["solution"]["support"] == [1, 2, 3, 4]
        assert report["solution"]["mode"] == "greedy"

    def test_perturb_finds_smaller_support(self, capsys, golden_path):
        code, report = run_json(
            capsys, "solve-mcp", golden_path, "--perturb", "1e-10", "--seed", "0"
        )
        assert report["solution"]["support"] == [2, 4]
        assert report["perturbation"] == {"magnitude": 1e-10, "seed": 0}
        assert report["tolerances"]["zero_tol"] == 1e-13
        if report["status"] == "ok":
            assert code == 0
        else:
            assert report["status"] == "unverifiable" and code == 1

    def test_perturb_ignores_file_eigenbasis(self, capsys):
        # The file's basis is the unperturbed matrix's, so the perturbed
        # solve computes its own.
        path = str(DATA_DIR / "golden5_basis.json")
        _, report = run_json(capsys, "solve-mcp", path, "--perturb", "1e-10", "--seed", "0")
        assert report["eigenbasis_source"] == "computed"
        assert report["solution"]["support"] == [2, 4]

    def test_perturb_respects_explicit_zero_tol(self, capsys, golden_path):
        _, report = run_json(
            capsys,
            "solve-mcp",
            golden_path,
            "--perturb",
            "1e-10",
            "--seed",
            "0",
            "--zero-tol",
            "1e-9",
        )
        assert report["tolerances"]["zero_tol"] == 1e-9
        assert report["solution"]["support"] == [2, 3, 4]

    def test_file_eigenbasis_skips_eigensolve(self, capsys, tmp_path):
        doc = {
            "matrix": [[float(x) for x in row] for row in GOLDEN_A],
            "eigenbasis": {
                "eigenvalues": [float(x) for x in GOLDEN_EIGENVALUES],
                "vectors": [[float(x) for x in row] for row in GOLDEN_LEFT_EIGENVECTORS],
            },
        }
        path = tmp_path / "with_basis.json"
        path.write_text(json.dumps(doc))
        code, report = run_json(capsys, "solve-mcp", str(path))
        assert code == 0
        assert report["eigenbasis_source"] == "file"
        assert report["solution"]["support"] == [2, 3, 4]

    def test_not_simple_exits_one(self, capsys, tmp_path):
        path = tmp_path / "repeated.json"
        path.write_text('{"matrix": [[1, 0], [0, 1]]}')
        code, report = run_json(capsys, "solve-mcp", str(path))
        assert code == 1
        assert report["status"] == "error"
        assert report["error_type"] == "NotSimple"

    def test_missing_file_exits_two(self, capsys):
        assert run_command(["solve-mcp", "no-such-file.json"]) == 2

    def test_bad_flag_exits_two(self, capsys, golden_path):
        assert run_command(["solve-mcp", golden_path, "--mode", "quantum"]) == 2

    @pytest.mark.parametrize("magnitude", ["-1", "nan", "inf", "1e308", "8.99e307"])
    def test_perturb_range_must_be_finite(self, capsys, golden_path, magnitude):
        # Past half the largest float, [-MAG, MAG] is wider than the float
        # range and numpy's uniform raised a bare OverflowError.
        assert run_command(["solve-mcp", golden_path, "--perturb", magnitude]) == 2
        assert capsys.readouterr().err.startswith("error: magnitude must be nonnegative")

    def test_overflowing_krylov_matrix_keeps_support(self, capsys, tmp_path):
        # [b, Ab, A^2 b] would overflow, but the staircase never forms it:
        # the found support is certified, with no overflow on the way.
        path = tmp_path / "huge.json"
        path.write_text('{"matrix": [[1e200, 0, 0], [0, 2e200, 0], [0, 0, 3e200]]}')
        with np.errstate(over="raise", invalid="raise"):
            code, report = run_json(capsys, "solve-mcp", str(path))
            text_code = run_command(["solve-mcp", str(path)])
        out = capsys.readouterr().out
        assert code == text_code == 0
        assert report["status"] == "ok"
        assert report["message"] is None
        assert report["solution"]["support"] == [1, 2, 3]
        verification = report["solution"]["verification"]
        assert verification["kalman"] == {"controllable": True, "rank": 3}
        assert verification["pbh_eigenvalue"] == {"controllable": True, "ranks": [3, 3, 3]}
        assert verification["pbh_eigenvector"]["controllable"]
        assert verification["controllable"] and verification["consistent"]
        assert "kalman rank: 3 controllable: True" in out
        assert report["eigenvector_patterns"] == ["00*", "0*0", "*00"]
        assert report["cover_instance"] == {
            "universe": [1, 2, 3],
            "sets": [[3], [2], [1]],
        }
        jsonschema = pytest.importorskip("jsonschema")
        jsonschema.validate(report, SCHEMA)


class TestUnverifiableSolve:
    """A rank threshold of 10 ||sA||_F sees no rank at all, so the
    golden solve realizes its vector but cannot certify it."""

    def test_report(self, capsys, golden_path):
        code, report = run_json(capsys, "solve-mcp", golden_path, "--rank-tol", "10")
        assert code == 1
        assert report["status"] == "unverifiable"
        assert report["message"] == (
            "the realized vector failed the controllability certificate "
            "(kalman rank 0); check the tolerance configuration"
        )
        assert report["solution"]["support"] == [2, 3, 4]
        assert report["solution"]["verification"]["kalman"]["rank"] == 0

    def test_schema(self, capsys, golden_path):
        jsonschema = pytest.importorskip("jsonschema")
        _, report = run_json(capsys, "solve-mcp", golden_path, "--rank-tol", "10")
        jsonschema.validate(report, SCHEMA)


class TestTextReports:
    """The text rendering of every subcommand on the golden system."""

    @pytest.mark.parametrize(
        "argv, code, lines",
        [
            (
                ["solve-mcp"],
                0,
                [
                    "command: solve-mcp",
                    "status: ok",
                    "input: {path} (n=5)",
                    "eigenvalues: 5, 4, 3, 2, 1",
                    "eigenvector patterns: **00* 00*0* 000*0 0*000 *0**0",
                    "cover sets: S1={{1,5}}, S2={{1,4}}, S3={{2,5}}, S4={{3,5}}, S5={{1,2}}",
                    "support: [2, 3, 4] pattern: 0***0 size: 3",
                    "vector: [0, 1.57735026919, 1.28445705038, 1.57735026919, 0]",
                    "kalman rank: 5 controllable: True",
                ],
            ),
            (
                ["solve-mcp", "--rank-tol", "10"],
                1,
                [
                    "command: solve-mcp",
                    "status: unverifiable",
                    "message: the realized vector failed the controllability "
                    "certificate (kalman rank 0); check the tolerance configuration",
                    "input: {path} (n=5)",
                    "eigenvalues: 5, 4, 3, 2, 1",
                    "eigenvector patterns: **00* 00*0* 000*0 0*000 *0**0",
                    "cover sets: S1={{1,5}}, S2={{1,4}}, S3={{2,5}}, S4={{3,5}}, S5={{1,2}}",
                    "support: [2, 3, 4] pattern: 0***0 size: 3",
                    "vector: [0, 1.57735026919, 1.28445705038, 1.57735026919, 0]",
                    "kalman rank: 0 controllable: False",
                    "note: the controllability tests disagree; see --json",
                ],
            ),
            (
                ["solve-mscp"],
                0,
                [
                    "command: solve-mscp",
                    "status: ok",
                    "input: {path} (n=5)",
                    "pattern: 0*0*0 support: [2, 4]",
                    "non-top-linked components: [[2], [4]]",
                ],
            ),
            (
                ["verify", "--method", "kalman", "--vector", "0,1,1,1,0"],
                0,
                [
                    "command: verify",
                    "status: ok",
                    "input: {path} (n=5)",
                    "method: kalman controllable: True rank: 5",
                ],
            ),
            (
                ["verify", "--method", "pbh-eig", "--vector", "1,0,0,0,0"],
                1,
                [
                    "command: verify",
                    "status: not-controllable",
                    "input: {path} (n=5)",
                    "method: pbh-eig controllable: False ranks: [5, 4, 4, 4, 5]",
                ],
            ),
            (
                ["verify", "--method", "pbh-vec", "--vector", "0,1,1,1,0"],
                0,
                [
                    "command: verify",
                    "status: ok",
                    "input: {path} (n=5)",
                    "method: pbh-vec controllable: True violator: None "
                    "min_inner: 0.57735026919",
                ],
            ),
            (
                ["oracle"],
                0,
                [
                    "command: oracle",
                    "status: ok",
                    "input: {path} (n=5)",
                    "minimum support size: 3",
                    "optimal supports: [[2, 3, 4], [2, 4, 5]]",
                ],
            ),
            (
                ["compare"],
                0,
                [
                    "command: compare",
                    "status: ok",
                    "input: {path} (n=5)",
                    "MCP size 3 0***0 vs MSCP size 2 0*0*0; dominance: True",
                ],
            ),
            (
                ["eig"],
                0,
                [
                    "command: eig",
                    "status: ok",
                    "input: {path} (n=5)",
                    "eigenvalues: 5, 4, 3, 2, 1",
                    "eigenvector patterns: **00* 00*0* 000*0 0*000 *0**0",
                ],
            ),
        ],
        ids=[
            "solve-mcp",
            "solve-mcp-unverifiable",
            "solve-mscp",
            "verify-kalman",
            "verify-pbh-eig",
            "verify-pbh-vec",
            "oracle",
            "compare",
            "eig",
        ],
    )
    def test_golden(self, capsys, golden_path, argv, code, lines):
        assert run_command([argv[0], golden_path, *argv[1:]]) == code
        expected = "".join(line.format(path=golden_path) + "\n" for line in lines)
        assert capsys.readouterr().out == expected


class TestSolveMscpCommand:
    def test_worked_example(self, capsys, golden_path):
        code, report = run_json(capsys, "solve-mscp", golden_path)
        assert code == 0
        assert report["input_pattern"] == "0*0*0"
        assert report["support"] == [2, 4]
        assert report["non_top_linked"] == [[2], [4]]

    def test_golden_report(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        argv = ["solve-mscp", "tests/data/golden5.json", "--json", "--no-timings"]
        assert run_command(argv) == 0
        golden = (REPO_ROOT / "tests" / "data" / "golden5_solve-mscp_report.json").read_text()
        assert capsys.readouterr().out == golden

    def test_zero_diagonal_exits_one(self, capsys, tmp_path):
        path = tmp_path / "no_loop.json"
        path.write_text('{"matrix": [[0, 1], [1, 1]]}')
        code, report = run_json(capsys, "solve-mscp", str(path))
        assert code == 1
        assert report["error_type"] == "MissingSelfLoops"

    def test_overflowing_modulus_is_a_star(self, capsys, tmp_path):
        # |1.5e308 + 1.5e308j| overflows to inf; the pattern is read off
        # magnitudes scaled by the largest part, so that entry is a star.
        path = tmp_path / "huge_modulus.json"
        path.write_text('{"matrix": [[[1.5e308, 1.5e308], 1], [0, 3]]}')
        code, report = run_json(capsys, "solve-mscp", str(path))
        assert code == 1
        assert report["error_type"] == "MissingSelfLoops"
        assert report["message"].startswith("diagonal positions [2] are zero")
        path.write_text('{"matrix": [[[1.5e308, 1.5e308], 1e300], [0, 1e300]]}')
        code, report = run_json(capsys, "solve-mscp", str(path))
        assert code == 0
        assert report["matrix_pattern"] == ["**", "0*"]
        assert report["support"] == [2]


class TestVerifyCommand:
    @pytest.mark.parametrize("method", ["kalman", "pbh-eig", "pbh-vec"])
    def test_controllable_vector(self, capsys, golden_path, method):
        code, report = run_json(
            capsys, "verify", golden_path, "--method", method, "--vector", "0,1,1,1,0"
        )
        assert code == 0
        assert report["result"]["controllable"]

    @pytest.mark.parametrize("method", ["kalman", "pbh-eig", "pbh-vec"])
    def test_uncontrollable_vector(self, capsys, golden_path, method):
        code, report = run_json(
            capsys, "verify", golden_path, "--method", method, "--vector", "1,0,0,0,0"
        )
        assert code == 1
        assert report["status"] == "not-controllable"

    def test_complex_vector_entries(self, capsys, golden_path):
        code, report = run_json(
            capsys,
            "verify",
            golden_path,
            "--method",
            "kalman",
            "--vector",
            "0,1+1j,1,1,0",
        )
        assert code == 0

    def test_wrong_vector_length(self, capsys, golden_path):
        code = run_command(
            ["verify", golden_path, "--method", "kalman", "--vector", "1,2"]
        )
        assert code == 2

    def test_unparseable_vector(self, capsys, golden_path):
        code = run_command(
            ["verify", golden_path, "--method", "kalman", "--vector", "1,zap,0,0,0"]
        )
        assert code == 2

    def test_overflowing_krylov_matrix_is_typed_error(self, capsys, tmp_path):
        # A^2 b would overflow, but the staircase never forms it: rank 3.
        path = tmp_path / "huge.json"
        path.write_text('{"matrix": [[1e200, 0, 0], [0, 2e200, 0], [0, 0, 3e200]]}')
        with np.errstate(over="raise", invalid="raise"):
            code, report = run_json(
                capsys, "verify", str(path), "--method", "kalman", "--vector", "1,1,1"
            )
        assert code == 0
        assert report["status"] == "ok"
        assert report["result"] == {"controllable": True, "rank": 3}

    @pytest.mark.parametrize(
        "method, vector, pinned",
        [
            ("kalman", "0,1,1,1,0", "kalman"),
            ("pbh-vec", "0,1,1,1,0", "pbh-vec"),
            ("pbh-eig", "0,1,1,1,0", "pbh-eig"),
            ("pbh-eig", "1,0,0,0,0", "pbh-eig_e1"),
        ],
    )
    def test_pinned_json(self, capsys, monkeypatch, method, vector, pinned):
        monkeypatch.chdir(REPO_ROOT)
        argv = ["verify", "tests/data/golden5.json", "--method", method, "--vector", vector]
        code = run_command([*argv, "--json", "--no-timings"])
        assert code == (vector == "1,0,0,0,0")
        assert capsys.readouterr().out == (DATA_DIR / f"golden5_verify_{pinned}.json").read_text()

    @pytest.mark.parametrize("vector", ["0,1,1,1,0", "1,0,0,0,0"])
    def test_pbh_eig_solves_the_eigenbasis_once(self, capsys, tmp_path, monkeypatch, vector):
        # The basis the command resolves also bounds the PBH pencils, on
        # a pair the gate clears and on one it reduces; a basis read from
        # the file takes no eig at all.
        matrix = [[float(x) for x in row] for row in GOLDEN_A]
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"matrix": matrix}))
        with_basis = tmp_path / "with_basis.json"
        basis = {
            "eigenvalues": [float(x) for x in GOLDEN_EIGENVALUES],
            "vectors": [[float(x) for x in row] for row in GOLDEN_LEFT_EIGENVECTORS],
        }
        with_basis.write_text(json.dumps({"matrix": matrix, "eigenbasis": basis}))
        calls, eig = [], np.linalg.eig

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return eig(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eig", spy)
        results = []
        for path in (plain, with_basis):
            argv = ["verify", str(path), "--method", "pbh-eig", "--vector", vector]
            code, report = run_json(capsys, *argv)
            results.append(report["result"])
            assert code == (vector == "1,0,0,0,0")
        assert calls == [(5, 5)]
        assert results[0] == results[1]


class TestScaledInputs:
    """Scaling A changes neither the support nor the exit code."""

    # 2^-1030 and 2^-1060 make every entry subnormal, exactly.
    @pytest.mark.parametrize(
        "c", [1e-14, 1e-12, 1e-10, 1e200, 1e250, 1e300, 2.0**-1030, 2.0**-1060]
    )
    def test_scaled_golden(self, capsys, tmp_path, c):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"matrix": (c * GOLDEN_A).tolist()}))
        code, report = run_json(capsys, "solve-mcp", str(path))
        assert code == 0
        assert report["solution"]["support"] == [2, 3, 4]

    def test_huge_dense_matrix(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        A = 1e200 * random_simple_matrix(np.random.default_rng(424), 6)
        path.write_text(json.dumps({"matrix": A.tolist()}))
        code, report = run_json(capsys, "solve-mcp", str(path))
        assert code == 0
        assert report["solution"]["support"] == [1]

    def test_overflowing_eigenvalue_gap(self, capsys, tmp_path):
        # Eigenvalues 1e308 -+ 1e308j: their difference overflows in A's
        # units, so the simplicity check scales the spectrum first.
        path = tmp_path / "huge_gap.json"
        path.write_text('{"matrix": [[1e308, -1e308], [1e308, 1e308]]}')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = run_json(capsys, "solve-mcp", str(path))
        assert code == 0
        assert report["status"] == "ok"
        assert report["solution"]["support"] == [1]


class TestOracleCommand:
    def test_worked_example(self, capsys, golden_path):
        code, report = run_json(capsys, "oracle", golden_path)
        assert code == 0
        assert report["min_support_size"] == 3
        assert report["optimal_supports"] == [[2, 3, 4], [2, 4, 5]]
        assert report["kalman_verdicts"] == [True, True]


class TestCompareCommand:
    def test_worked_example(self, capsys, golden_path):
        code, report = run_json(capsys, "compare", golden_path)
        assert code == 0
        assert report["mcp"]["size"] == 3
        assert report["mscp"]["size"] == 2
        assert report["mscp"]["pattern"] == "0*0*0"
        assert report["dominance"]["holds"]
        assert report["size_gap"] == 1

    def test_golden_report(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        argv = ["compare", "tests/data/golden5.json", "--json", "--no-timings"]
        assert run_command(argv) == 0
        golden = (REPO_ROOT / "tests" / "data" / "golden5_compare_report.json").read_text()
        assert capsys.readouterr().out == golden

    def test_text_output(self, capsys, golden_path):
        code = run_command(["compare", golden_path])
        out = capsys.readouterr().out
        assert code == 0
        assert "MCP size 3" in out and "MSCP size 2" in out


class TestEigCommand:
    def test_patterns(self, capsys, golden_path):
        code, report = run_json(capsys, "eig", golden_path)
        assert code == 0
        assert report["eigenvector_patterns"] == [
            "**00*",
            "00*0*",
            "000*0",
            "0*000",
            "*0**0",
        ]
        values = [complex(re, im) for re, im in report["eigenvalues"]]
        np.testing.assert_allclose(values, [5, 4, 3, 2, 1], atol=1e-9)

    @pytest.mark.parametrize("data", ["golden5", "golden5_basis"])
    def test_golden_eig_report(self, capsys, monkeypatch, data):
        # "eigenbasis_source" is "file" exactly for the file with a basis.
        monkeypatch.chdir(REPO_ROOT)
        argv = ["eig", f"tests/data/{data}.json", "--json", "--no-timings"]
        assert run_command(argv) == 0
        golden = (REPO_ROOT / "tests" / "data" / f"{data}_eig_report.json").read_text()
        assert capsys.readouterr().out == golden


class TestToleranceResolution:
    # Precedence itself is TestTolerancePrecedence's, in every subcommand.
    def test_bad_env_value_exits_two(self, capsys, golden_path, monkeypatch):
        monkeypatch.setenv("MINCONTROL_TOL_ZERO", "soft")
        assert run_command(["eig", golden_path]) == 2


class TestNonFiniteTolerances:
    """A NaN or infinite tolerance is an input error, from every source."""

    ENV = {
        "residual_tol": "MINCONTROL_TOL_RESIDUAL",
        "gap_tol": "MINCONTROL_TOL_GAP",
        "rank_tol": "MINCONTROL_TOL_RANK",
        "zero_tol": "MINCONTROL_TOL_ZERO",
        "tau": "MINCONTROL_TOL_ORTHO",
    }

    @pytest.mark.parametrize("source", ["flag", "env", "file"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", list(ENV))
    def test_exits_two(self, capsys, tmp_path, monkeypatch, name, value, source):
        # e1 is orthogonal to golden's eigenvector 2, so this exits 1 at the
        # defaults; under tau=NaN every inner product passed, and it exited 0.
        for key in self.ENV.values():
            monkeypatch.delenv(key, raising=False)
        doc = {"matrix": [[float(x) for x in row] for row in GOLDEN_A]}
        flags = []
        if source == "flag":
            flags = ["--" + name.replace("_", "-"), value]
        elif source == "env":
            monkeypatch.setenv(self.ENV[name], value)
        else:
            doc["tolerances"] = {name: float(value)}  # written as NaN / Infinity
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        argv = ["verify", str(path), "--method", "pbh-vec", "--vector", "1,0,0,0,0"]
        assert run_command(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be") and "finite" in err


#: Extra arguments each subcommand needs on the golden system.
COMMAND_ARGS = {
    "solve-mcp": [],
    "solve-mscp": [],
    "verify": ["--method", "pbh-vec", "--vector", "0,1,1,1,0"],
    "oracle": [],
    "compare": [],
    "eig": [],
}


class TestTolerancePrecedence:
    """defaults < environment < problem file < flag, in every subcommand."""

    ENV = {
        "MINCONTROL_TOL_RESIDUAL": "1e-7",
        "MINCONTROL_TOL_GAP": "1e-10",
        "MINCONTROL_TOL_RANK": "1e-12",
        "MINCONTROL_TOL_ZERO": "1e-8",
        "MINCONTROL_TOL_ORTHO": "1e-11",
    }
    FILE = {
        "residual_tol": 1e-6,
        "gap_tol": 1e-11,
        "rank_tol": 1e-11,
        "zero_tol": 1e-7,
        "tau": 1e-12,
    }
    FLAGS = {
        "residual_tol": 1e-5,
        "gap_tol": 1e-12,
        "rank_tol": 1e-10,
        "zero_tol": 1e-6,
        "tau": 1e-13,
    }

    def tolerances(self, capsys, command, path, *flags):
        code, report = run_json(capsys, command, path, *COMMAND_ARGS[command], *flags)
        assert code == 0, report
        return report["tolerances"]

    @pytest.mark.parametrize("command", list(COMMAND_ARGS))
    def test_each_level_beats_the_one_below(self, capsys, tmp_path, monkeypatch, command):
        for key in self.ENV:
            monkeypatch.delenv(key, raising=False)
        matrix = [[float(x) for x in row] for row in GOLDEN_A]
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"matrix": matrix}))
        with_file = tmp_path / "with_file.json"
        with_file.write_text(json.dumps({"matrix": matrix, "tolerances": self.FILE}))
        flags = []
        for name, value in self.FLAGS.items():
            flags += ["--" + name.replace("_", "-"), repr(value)]

        assert self.tolerances(capsys, command, str(plain)) == {
            "residual_tol": 1e-8,
            "gap_tol": 1e-9,
            "rank_tol": None,
            "zero_tol": 1e-9,
            "tau": 1e-10,
        }
        for key, value in self.ENV.items():
            monkeypatch.setenv(key, value)
        assert self.tolerances(capsys, command, str(plain)) == {
            "residual_tol": 1e-7,
            "gap_tol": 1e-10,
            "rank_tol": 1e-12,
            "zero_tol": 1e-8,
            "tau": 1e-11,
        }
        assert self.tolerances(capsys, command, str(plain), *flags) == self.FLAGS
        assert self.tolerances(capsys, command, str(with_file)) == self.FILE
        assert self.tolerances(capsys, command, str(with_file), *flags) == self.FLAGS

    @pytest.mark.parametrize("source", ["env", "file"])
    def test_explicit_zero_tol_stops_perturb_tightening(
        self, capsys, tmp_path, monkeypatch, source
    ):
        monkeypatch.delenv("MINCONTROL_TOL_ZERO", raising=False)
        doc = {"matrix": [[float(x) for x in row] for row in GOLDEN_A]}
        if source == "env":
            monkeypatch.setenv("MINCONTROL_TOL_ZERO", "1e-9")
        else:
            doc["tolerances"] = {"zero_tol": 1e-9}
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        _, report = run_json(
            capsys, "solve-mcp", str(path), "--perturb", "1e-10", "--seed", "0"
        )
        assert report["tolerances"]["zero_tol"] == 1e-9
        assert report["solution"]["support"] == [2, 3, 4]


class TestBasisTolerancesReachTheSolve:
    """solve-mcp and compare validate the basis under the resolved tolerances."""

    CLOSE_PAIR = [[1, 0, 0], [0, 1.0000000001, 0], [0, 0, 2]]

    def write(self, tmp_path, doc):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @staticmethod
    def support(report):
        return (report.get("solution") or report.get("mcp"))["support"]

    @pytest.mark.parametrize("command", ["solve-mcp", "compare"])
    def test_default_gap_tol_rejects_close_pair(self, capsys, tmp_path, command):
        path = self.write(tmp_path, {"matrix": self.CLOSE_PAIR})
        code, report = run_json(capsys, command, path)
        assert code == 1
        assert report["error_type"] == "NotSimple"

    @pytest.mark.parametrize("command", ["solve-mcp", "compare"])
    def test_gap_tol_flag(self, capsys, tmp_path, command):
        path = self.write(tmp_path, {"matrix": self.CLOSE_PAIR})
        code, report = run_json(capsys, command, path, "--gap-tol", "1e-12")
        assert code == 0, report
        assert report["status"] == "ok"
        assert report["tolerances"]["gap_tol"] == 1e-12
        assert self.support(report) == [1, 2, 3]

    @pytest.mark.parametrize("command", ["solve-mcp", "compare"])
    def test_gap_tol_in_problem_file(self, capsys, tmp_path, command):
        doc = {"matrix": self.CLOSE_PAIR, "tolerances": {"gap_tol": 1e-12}}
        code, report = run_json(capsys, command, self.write(tmp_path, doc))
        assert code == 0, report
        assert report["status"] == "ok"

    def shifted_basis_doc(self):
        # Every eigenvalue off by 1e-6: residuals near 1e-7 * ||A||, above
        # the default residual_tol of 1e-8.
        return {
            "matrix": [[float(x) for x in row] for row in GOLDEN_A],
            "eigenbasis": {
                "eigenvalues": [float(x) + 1e-6 for x in GOLDEN_EIGENVALUES],
                "vectors": [[float(x) for x in row] for row in GOLDEN_LEFT_EIGENVECTORS],
            },
        }

    @pytest.mark.parametrize("command", ["solve-mcp", "compare"])
    def test_residual_tol(self, capsys, tmp_path, command):
        path = self.write(tmp_path, self.shifted_basis_doc())
        code, report = run_json(capsys, command, path)
        assert code == 1
        assert report["error_type"] == "EigensolveFailed"
        code, report = run_json(capsys, command, path, "--residual-tol", "1e-5")
        assert code == 0, report
        assert self.support(report) == [2, 3, 4]
        doc = dict(self.shifted_basis_doc(), tolerances={"residual_tol": 1e-5})
        code, report = run_json(capsys, command, self.write(tmp_path, doc))
        assert code == 0, report


    @pytest.mark.parametrize(
        "command, data",
        [
            pytest.param(command, data, id=name + suffix)
            for name, command in [
                ("solve-mcp", "solve-mcp"),
                ("compare", "compare"),
                ("eig", "eig"),
                ("verify-pbh-eig", "verify --method pbh-eig --vector 0,1,1,1,0"),
                ("verify-pbh-vec", "verify --method pbh-vec --vector 0,1,1,1,0"),
            ]
            for suffix, data in [("", "golden5.json"), ("-file", "golden5_basis.json")]
        ],
    )
    def test_basis_checked_once(self, capsys, monkeypatch, command, data):
        from mincontrol import numerics

        calls = []
        for name in ("is_simple", "check_residuals"):
            original = getattr(numerics, name)

            def spy(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(numerics, name, spy)
        solves, eig = [], np.linalg.eig
        monkeypatch.setattr(np.linalg, "eig", lambda *a: solves.append(1) or eig(*a))
        name, *args = command.split()
        code, _ = run_json(capsys, name, str(DATA_DIR / data), *args)
        assert code == 0
        assert sorted(calls) == ["check_residuals", "is_simple"]
        # A file basis takes no eigensolve; the golden pair clears the
        # certificate's gate, so the certificate takes none either.
        assert len(solves) == (data == "golden5.json")


class TestNormFailureIsTyped:
    def test_eig_with_failing_svd(self, capsys, tmp_path, monkeypatch):
        # A file basis whose first residual, 5e-8 ||v||, lies between 1e-8
        # times A's largest column norm and its Frobenius norm: only the
        # SVD giving ||A||_2 decides it.
        path = tmp_path / "problem.json"
        eigenvalues = GOLDEN_EIGENVALUES + [5e-8, 0, 0, 0, 0]
        basis = {"eigenvalues": eigenvalues.tolist(), "vectors": GOLDEN_LEFT_EIGENVECTORS.tolist()}
        path.write_text(json.dumps({"matrix": GOLDEN_A.tolist(), "eigenbasis": basis}))
        assert run_command(["eig", str(path), "--json", "--no-timings"]) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)
        code = run_command(["eig", str(path), "--json", "--no-timings"])
        captured = capsys.readouterr()
        assert code == 1
        report = json.loads(captured.out)
        assert report["status"] == "error"
        assert report["error_type"] == "NumericalBreakdown"
        assert "SVD did not converge" in report["message"]
        assert "Traceback" not in captured.out + captured.err


def written(value) -> str:
    out = []
    _write_json(value, "\n", out)
    return "".join(out)


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 1e300, -1e300, math.nan, math.inf, -math.inf]
_SPECIAL_STRINGS = ['"', "\\", 'a"b\\c', "\x00\x07\x1f\n\t", "\u00e9\u2603\U0001d11e", ""]
_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 2**63, -(2**63) - 1, 2**200])
    | st.floats()
    | st.sampled_from(_SPECIAL_FLOATS)
    | st.floats(allow_nan=False).map(np.float64)
    | st.text()
    | st.sampled_from(_SPECIAL_STRINGS)
)
_json_values = st.recursive(
    _leaves
    | st.lists(st.integers() | st.booleans())
    | st.lists(st.floats() | st.sampled_from(_SPECIAL_FLOATS))
    | st.lists(st.text()),
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(st.text() | st.sampled_from(_SPECIAL_STRINGS), children, max_size=4)
    | st.dictionaries(st.integers(), children, max_size=3),
    max_leaves=25,
)


class TestReportWriter:
    """The report writer's bytes are json.dumps(value, indent=2, sort_keys=True)."""

    @given(_json_values)
    def test_matches_json(self, value):
        assert written(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [{}, [], (), {"a": {}, "b": [], "c": [[]]}, [True, 1, False, 0], [1.5, math.nan]],
    )
    def test_edge_values(self, value):
        assert written(value) == json.dumps(value, indent=2, sort_keys=True)

    @pytest.mark.parametrize(
        "value",
        [
            [[1, 2], [3], [-(2**70)]],
            [[1.5, -0.0], [5e-324, 1e300]],
            {"a": [[2.0, -1.0]], "b": {"c": [[1, 2]]}},
            [[], [1], []],
            [[1, 2.5], [3.0, 4]],
            [[2**200, 0.5]],
            [[True, 1], [0]],
            [[1.0], [False]],
            [[1.0, math.nan]],
            [[math.inf], [1]],
            [[2, -math.inf]],
            [[np.float64(1.5)], [2.0]],
            [[1, [2]], [3]],
            [[1], 2],
        ],
    )
    def test_number_lists(self, value):
        # Lists of number lists take one branch; a bool, a non-finite
        # float or any other item sends them through the general one.
        assert written(value) == json.dumps(value, indent=2, sort_keys=True)

    def test_unserializable_value_raises_like_json(self):
        with pytest.raises(TypeError, match="not JSON serializable"):
            written({"a": [1, object()]})

    def _reports(self, monkeypatch, argv):
        """(report, emitted text) of each report ``run_command`` writes."""
        seen = []
        emit = cli._emit

        def recording(report, args):
            text = emit(report, args)
            seen.append((report, text))
            return text

        monkeypatch.setattr(cli, "_emit", recording)
        run_command(argv)
        return seen

    def test_golden_report(self, capsys, monkeypatch):
        monkeypatch.chdir(REPO_ROOT)
        argv = ["solve-mcp", "tests/data/golden5.json", "--json", "--no-timings"]
        ((report, text),) = self._reports(monkeypatch, argv)
        capsys.readouterr()
        assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        assert text == (REPO_ROOT / "tests" / "data" / "golden5_report.json").read_text()

    @pytest.mark.parametrize("seed", range(4))
    def test_real_reports(self, seed, capsys, monkeypatch, tmp_path):
        rng = np.random.default_rng(seed)
        n = 8 + 4 * seed
        A = np.diag(np.arange(1.0, n + 1) + rng.uniform(-0.2, 0.2, n))
        A[rng.random((n, n)) < 0.15] = rng.uniform(-1, 1)
        if seed % 2:
            A = A + 1j * np.diag(rng.uniform(-1, 1, n))
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"matrix": np.stack([A.real, A.imag], -1).tolist()}))
        ones = ",".join(["1"] * n)
        for argv in (
            ["solve-mcp", str(path), "--json", "--exact-limit", str(n)],
            ["eig", str(path), "--json"],
            ["verify", str(path), "--json", "--method", "pbh-vec", "--vector", ones],
        ):
            ((report, text),) = self._reports(monkeypatch, argv)
            assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
        capsys.readouterr()
