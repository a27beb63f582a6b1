"""Command-line interface: problem files, solver commands, reports.

Problem files are JSON (complex entries as [real, imag] pairs, real
entries as plain numbers) or whitespace-separated real matrices. Reports
go to stdout as text or, with --json, as canonical JSON (sorted keys,
two-space indent) that is byte-identical across identical invocations
under the same BLAS thread count when --no-timings is given. Under
another thread count the supports, patterns, statuses and exit codes
agree, but the last digits of the eigenvalues and of the solution
vector may differ.

Exit codes: 0 success, 1 infeasible or unverifiable, 2 input error.
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, fields
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import (
    DimensionError,
    MincontrolError,
    ParseError,
    VerificationFailed,
)
from .mcp import McpSolution, solve_mcp
from .numerics import LeftEigenbasis, perturb_nonzero, validated_basis
from .oracle import DEFAULT_SIZE_LIMIT, brute_force_mcp
from .setcover import EXACT_UNIVERSE_LIMIT
from .structural import _feed, _mscp_condensation
from .structure import StructuralMatrix, _nonzero_mask, _pattern_lines, structural_geq
from .tolerances import DEFAULT_ZERO_TOL, Tolerances
from .verify import _certify, kalman_test, pbh_eigenvector_test

SCHEMA_VERSION = 1

#: When --perturb is active and no explicit zero threshold was given, the
#: pattern threshold is tightened to magnitude * this factor so that the
#: injected nonzeros are actually seen (the stock default sits above them).
PERTURB_ZERO_TOL_FACTOR = 1e-3

_TOL_KEYS = tuple(f.name for f in fields(Tolerances))

#: Entry types a JSON number decodes to; ``bool`` is deliberately absent.
_NUMBER_TYPES = {int, float}


# ---------------------------------------------------------------------------
# problem files

@dataclass(eq=False)
class ProblemFile:
    """Validated problem input: matrix, optional eigenbasis, tolerance overrides."""

    n: int
    matrix: np.ndarray
    eigenvalues: np.ndarray | None = None
    eigenvectors: np.ndarray | None = None
    tolerance_overrides: dict = field(default_factory=dict)

    @property
    def has_eigenbasis(self) -> bool:
        return self.eigenvalues is not None


def _decode_entry(raw, where: str) -> complex:
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        parts = (raw,)
    elif (
        isinstance(raw, list)
        and len(raw) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
    ):
        parts = raw
    else:
        raise ParseError(f"{where}: expected a number or a [real, imag] pair, got {raw!r}")
    try:
        value = complex(*parts)
    except OverflowError:  # an integer literal beyond the float range
        raise ParseError(f"{where}: entries must be finite") from None
    if not (np.isfinite(value.real) and np.isfinite(value.imag)):
        raise ParseError(f"{where}: entries must be finite")
    return value


def _decode_rows(raw, n_rows: int, n_cols: int, where: str) -> np.ndarray:
    """Rows of numbers or of [real, imag] pairs as a complex array.

    The whole matrix is validated and converted at once. Only a matrix
    that fails a check, or mixes numbers with pairs, is walked entry by
    entry, which words the error at the first offending entry.
    """
    if not isinstance(raw, list) or len(raw) != n_rows:
        raise DimensionError(f"{where}: expected {n_rows} rows")
    if all(type(row) is list and len(row) == n_cols for row in raw):
        entries = list(chain.from_iterable(raw))
        kinds = set(map(type, entries))
        values = None
        try:
            if kinds <= _NUMBER_TYPES:
                values = np.array(raw, dtype=float).astype(complex)
            elif (
                kinds == {list}
                and set(map(len, entries)) == {2}
                and set(map(type, chain.from_iterable(entries))) <= _NUMBER_TYPES
            ):
                values = np.array(raw, dtype=float).view(complex)[..., 0]
        except OverflowError:  # worded below, at the offending entry
            values = None
        if values is not None and np.isfinite(values).all():
            return values
    out = np.empty((n_rows, n_cols), dtype=complex)
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != n_cols:
            raise DimensionError(f"{where} row {i + 1}: expected {n_cols} entries")
        for j, entry in enumerate(row):
            out[i, j] = _decode_entry(entry, f"{where}[{i + 1}][{j + 1}]")
    return out


def _load_json_problem(text: str, path: str) -> ProblemFile:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise ParseError(f"{path}: expected an object with a 'matrix' field")
    raw_matrix = doc["matrix"]
    if not isinstance(raw_matrix, list) or not raw_matrix:
        raise ParseError(f"{path}: 'matrix' must be a nonempty array of rows")
    n = len(raw_matrix)
    if "n" in doc and doc["n"] != n:
        raise DimensionError(f"{path}: n={doc['n']} but the matrix has {n} rows")
    matrix = _decode_rows(raw_matrix, n, n, f"{path}: matrix")
    eigenvalues = eigenvectors = None
    if "eigenbasis" in doc and doc["eigenbasis"] is not None:
        basis = doc["eigenbasis"]
        if not isinstance(basis, dict) or not {"eigenvalues", "vectors"} <= basis.keys():
            raise ParseError(f"{path}: eigenbasis needs 'eigenvalues' and 'vectors'")
        raw_vals = basis["eigenvalues"]
        if not isinstance(raw_vals, list) or len(raw_vals) != n:
            raise DimensionError(
                f"{path}: eigenbasis has {len(raw_vals) if isinstance(raw_vals, list) else '?'}"
                f" eigenvalues for a {n}x{n} matrix"
            )
        eigenvalues = np.array(
            [_decode_entry(v, f"{path}: eigenvalue {k + 1}") for k, v in enumerate(raw_vals)]
        )
        eigenvectors = _decode_rows(basis["vectors"], n, n, f"{path}: eigenvectors")
    overrides = {}
    if "tolerances" in doc and doc["tolerances"] is not None:
        if not isinstance(doc["tolerances"], dict):
            raise ParseError(f"{path}: 'tolerances' must be an object")
        for key, val in doc["tolerances"].items():
            if key not in _TOL_KEYS:
                raise ParseError(f"{path}: unknown tolerance {key!r}")
            if not isinstance(val, (int, float)) or isinstance(val, bool):
                raise ParseError(f"{path}: tolerance {key} must be a number")
            try:
                overrides[key] = float(val)
            except OverflowError:
                raise ParseError(
                    f"{path}: tolerance {key} is beyond the float range"
                ) from None
    return ProblemFile(n, matrix, eigenvalues, eigenvectors, overrides)


def _load_text_problem(text: str, path: str) -> ProblemFile:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([float(tok) for tok in stripped.split()])
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise ParseError(f"{path}: no matrix rows found")
    n = len(rows)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != n:
            raise DimensionError(
                f"{path}: row {lineno} has {len(row)} entries, expected {n}"
            )
    return ProblemFile(n, np.array(rows, dtype=complex))


def load_problem(path: str) -> ProblemFile:
    """Read a JSON or plain-text problem file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc.strerror or exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _load_json_problem(text, path)
    return _load_text_problem(text, path)


def _complex2j(v) -> list:
    """A complex array as nested lists whose innermost items are [re, im]."""
    v = np.asarray(v, dtype=complex)
    return np.stack([v.real, v.imag], -1).tolist()


def _matrix_digest(matrix) -> str:
    """SHA-256 of ``_complex2j(matrix)`` as compact JSON.

    Only the entries other than +0.0 + 0.0j go through the encoder, in one
    call; each run of zeros is one slice of the all-zero matrix's text, where
    entry k's "0.0,0.0" starts 10 characters after k-1's, 2 more at a new row.
    """
    M = np.asarray(matrix, dtype=complex)
    rows, cols = M.shape
    pairs = np.stack([M.real, M.imag], -1).reshape(-1, 2)
    nonzero = np.flatnonzero((M != 0) | np.signbit(M.real) | np.signbit(M.imag))
    zeros = "[" + ",".join(["[[" + "],[".join(["0.0,0.0"] * cols) + "]]"] * rows) + "]"
    encoded = json.dumps(pairs[nonzero].tolist(), separators=(",", ":"))
    pieces, end = [], 0
    starts = (3 + 10 * nonzero + 2 * (nonzero // cols)).tolist()
    for start, token in zip(starts, encoded[2:-2].split("],[")):
        pieces += (zeros[end:start], token)
        end = start + 7
    pieces.append(zeros[end:])
    return hashlib.sha256("".join(pieces).encode()).hexdigest()


# ---------------------------------------------------------------------------
# tolerance resolution

def _effective_tolerances(args, pf: ProblemFile) -> Tolerances:
    """defaults < environment < problem file < command line."""
    return (
        Tolerances.from_env(os.environ)
        .replace(**pf.tolerance_overrides)
        .replace(**{k: getattr(args, k) for k in _TOL_KEYS})
    )


def _resolve_basis(pf: ProblemFile, tol: Tolerances) -> LeftEigenbasis | None:
    """The problem file's eigenbasis, simple under ``tol.gap_tol``, or None."""
    if not pf.has_eigenbasis:
        return None
    return LeftEigenbasis(pf.eigenvalues, pf.eigenvectors, gap_tol=tol.gap_tol)


def _checked_basis(pf: ProblemFile, tol: Tolerances) -> LeftEigenbasis:
    """The file's eigenbasis checked against the matrix, or the matrix's own."""
    return validated_basis(pf.matrix, _resolve_basis(pf, tol), tol.residual_tol, tol.gap_tol)


# ---------------------------------------------------------------------------
# report assembly

def _result_to_dict(result) -> dict:
    """One test's result dataclass as report fields, in field order."""
    return {k: list(v) if type(v) is tuple else v for k, v in vars(result).items()}


def _verification_to_dict(report) -> dict:
    out = {"controllable": report.controllable, "consistent": report.consistent}
    for name in ("kalman", "pbh_eigenvalue", "pbh_eigenvector"):
        result = getattr(report, name)
        out[name] = None if result is None else _result_to_dict(result)
    return out


def _base_report(command: str, path: str, pf: ProblemFile, tol: Tolerances) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "status": "ok",
        "message": None,
        "input": {
            "path": path,
            "n": pf.n,
            "matrix_digest": _matrix_digest(pf.matrix),
        },
        "tolerances": tol.as_dict(),
    }


def _solution_to_dict(solution: McpSolution) -> dict:
    return {
        "support": list(solution.support),
        "input_pattern": str(solution.pattern),
        "support_size": solution.size,
        "vector": _complex2j(solution.vector),
        "mode": solution.mode,
        "verification": _verification_to_dict(solution.certificate),
    }


# ---------------------------------------------------------------------------
# commands

def _cmd_solve_mcp(args, pf: ProblemFile, tol: Tolerances, report: dict) -> int:
    matrix = pf.matrix
    report["perturbation"] = None
    if args.perturb is not None:
        matrix = perturb_nonzero(matrix, args.perturb, args.seed)
        report["perturbation"] = {"magnitude": args.perturb, "seed": args.seed}
        explicit_zero = (
            "MINCONTROL_TOL_ZERO" in os.environ
            or "zero_tol" in pf.tolerance_overrides
            or args.zero_tol is not None
        )
        if not explicit_zero:
            tol = tol.replace(
                zero_tol=min(DEFAULT_ZERO_TOL, args.perturb * PERTURB_ZERO_TOL_FACTOR)
            )
            report["tolerances"] = tol.as_dict()
    basis = None if args.perturb is not None else _resolve_basis(pf, tol)
    code = 0
    try:
        solution = solve_mcp(
            matrix, basis=basis, mode=args.mode, tol=tol, exact_limit=args.exact_limit
        )
    except VerificationFailed as exc:
        report["status"] = "unverifiable"
        report["message"] = str(exc)
        solution, code = exc.solution, 1
    instance = solution.cover_instance
    report.update(
        {
            "eigenbasis_source": "computed" if basis is None else "file",
            "eigenvalues": _complex2j(solution.basis.eigenvalues),
            "eigenvector_patterns": _pattern_lines(instance.incidence.T),
            "cover_instance": {
                "universe": sorted(instance.universe),
                "sets": instance.sorted_sets(),
            },
            "solution": _solution_to_dict(solution),
        }
    )
    return code


def _cmd_solve_mscp(args, pf: ProblemFile, tol: Tolerances, report: dict) -> int:
    a_pattern = StructuralMatrix.from_numeric(pf.matrix, tol.zero_tol)
    dag = _mscp_condensation(a_pattern)
    b_pattern = _feed(dag)
    report.update(
        {
            "matrix_pattern": str(a_pattern).split("\n"),
            "components": [list(c) for c in dag.components],
            "non_top_linked": [list(c) for c in dag.non_top_linked_components],
            "input_pattern": str(b_pattern),
            "support": list(b_pattern.support),
            "support_size": b_pattern.nnz,
        }
    )
    return 0


def _parse_vector(raw: str, n: int) -> np.ndarray:
    entries = []
    for k, token in enumerate(raw.split(","), start=1):
        try:
            entries.append(complex(token.strip().replace(" ", "")))
        except ValueError as exc:
            raise ParseError(f"--vector entry {k}: {token.strip()!r}") from exc
    if len(entries) != n:
        raise DimensionError(f"--vector has {len(entries)} entries, expected {n}")
    return np.array(entries)


def _cmd_verify(args, pf: ProblemFile, tol: Tolerances, report: dict) -> int:
    b = _parse_vector(args.vector, pf.n)
    report["vector"] = _complex2j(b)
    report["method"] = args.method
    if args.method == "kalman":
        res = kalman_test(pf.matrix, b, tol.rank_tol)
    else:
        basis = _checked_basis(pf, tol)
        if args.method == "pbh-eig":
            res = _certify(pf.matrix, b, tol.rank_tol, basis, kalman=False)[0]
        else:
            res = pbh_eigenvector_test(basis, b, tol.tau)
    report["result"] = _result_to_dict(res)
    if not res.controllable:
        report["status"] = "not-controllable"
        return 1
    return 0


def _cmd_oracle(args, pf: ProblemFile, tol: Tolerances, report: dict) -> int:
    result = brute_force_mcp(pf.matrix, n_limit=args.n_limit, tol=tol)
    report.update(
        {
            "min_support_size": result.min_support_size,
            "optimal_supports": [list(s) for s in result.optimal_supports],
            "kalman_verdicts": list(result.kalman_verdicts),
        }
    )
    return 0


def _cmd_compare(args, pf: ProblemFile, tol: Tolerances, report: dict) -> int:
    dag = _mscp_condensation(StructuralMatrix.from_numeric(pf.matrix, tol.zero_tol))
    mscp_pattern = _feed(dag)
    solution = solve_mcp(
        pf.matrix, basis=_resolve_basis(pf, tol), tol=tol, exact_limit=args.exact_limit
    )
    witness = _feed(dag, solution.pattern)
    report.update(
        {
            "mcp": {
                "support": list(solution.support),
                "pattern": str(solution.pattern),
                "size": solution.size,
            },
            "mscp": {
                "support": list(mscp_pattern.support),
                "pattern": str(mscp_pattern),
                "size": mscp_pattern.nnz,
            },
            "dominance": {
                "holds": structural_geq(solution.pattern, witness),
                "witness_support": list(witness.support),
                "dominates_canonical": structural_geq(solution.pattern, mscp_pattern),
            },
            "size_gap": solution.size - mscp_pattern.nnz,
        }
    )
    return 0


def _cmd_eig(args, pf: ProblemFile, tol: Tolerances, report: dict) -> int:
    basis = _checked_basis(pf, tol)
    report.update(
        {
            "eigenbasis_source": "file" if pf.has_eigenbasis else "computed",
            "eigenvalues": _complex2j(basis.eigenvalues),
            "eigenvectors": _complex2j(basis.vectors),
            "eigenvector_patterns": _pattern_lines(_nonzero_mask(basis.vectors, tol.zero_tol)),
        }
    )
    return 0


_COMMANDS = {
    "solve-mcp": _cmd_solve_mcp,
    "solve-mscp": _cmd_solve_mscp,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "compare": _cmd_compare,
    "eig": _cmd_eig,
}


# ---------------------------------------------------------------------------
# rendering

def _fmt_complex(z: complex) -> str:
    if np.imag(z) == 0:
        return f"{np.real(z):.12g}"
    return f"{np.real(z):.12g}{np.imag(z):+.12g}j"


def _fmt_value(value) -> str:
    return f"{value:.12g}" if type(value) is float else str(value)


def _render_text(report: dict) -> str:
    lines = [f"command: {report['command']}", f"status: {report['status']}"]
    if report.get("message"):
        lines.append(f"message: {report['message']}")
    if "input" in report:
        lines.append(f"input: {report['input']['path']} (n={report['input']['n']})")
    if "eigenvalues" in report:
        vals = ", ".join(_fmt_complex(complex(re, im)) for re, im in report["eigenvalues"])
        lines.append(f"eigenvalues: {vals}")
    if "eigenvector_patterns" in report:
        lines.append("eigenvector patterns: " + " ".join(report["eigenvector_patterns"]))
    if "cover_instance" in report:
        sets = report["cover_instance"]["sets"]
        rendered = ", ".join(
            f"S{i}={{{','.join(map(str, s))}}}" for i, s in enumerate(sets, start=1)
        )
        lines.append(f"cover sets: {rendered}")
    if "solution" in report:
        sol = report["solution"]
        lines.append(
            f"support: {sol['support']} pattern: {sol['input_pattern']} "
            f"size: {sol['support_size']}"
        )
        lines.append(
            "vector: ["
            + ", ".join(_fmt_complex(complex(re, im)) for re, im in sol["vector"])
            + "]"
        )
        ver = sol["verification"]
        if ver["kalman"] is not None:
            lines.append(
                f"kalman rank: {ver['kalman']['rank']} "
                f"controllable: {ver['kalman']['controllable']}"
            )
        if not ver["consistent"]:
            lines.append("note: the controllability tests disagree; see --json")
    if "input_pattern" in report:
        lines.append(
            f"pattern: {report['input_pattern']} support: {report['support']}"
        )
    if "non_top_linked" in report:
        lines.append(f"non-top-linked components: {report['non_top_linked']}")
    if "result" in report:
        lines.append(
            f"method: {report['method']} "
            + " ".join(f"{k}: {_fmt_value(v)}" for k, v in report["result"].items())
        )
    if "min_support_size" in report:
        lines.append(f"minimum support size: {report['min_support_size']}")
        lines.append(f"optimal supports: {report['optimal_supports']}")
    if "mcp" in report:
        lines.append(
            f"MCP size {report['mcp']['size']} {report['mcp']['pattern']} vs "
            f"MSCP size {report['mscp']['size']} {report['mscp']['pattern']}; "
            f"dominance: {report['dominance']['holds']}"
        )
    return "\n".join(lines) + "\n"


def _emit(report: dict, args) -> str:
    if args.json:
        out: list[str] = []
        _write_json(report, "\n", out)
        return "".join(out) + "\n"
    return _render_text(report)


def _plain_numbers(items) -> bool:
    """Whether each item is exactly an int or a finite float: its repr is its JSON text."""
    kinds = set(map(type, items))
    if kinds == _NUMBER_TYPES:
        items = [x for x in items if type(x) is float]
    return kinds <= _NUMBER_TYPES and (float not in kinds or all(map(math.isfinite, items)))


def _write_json(value, newline: str, out: list) -> None:
    """Append ``json.dumps(value, indent=2, sort_keys=True)`` to ``out`` in pieces.

    ``newline`` is a newline plus the indent of the line ``value`` starts
    on. ``json`` encodes with its pure-Python encoder whenever ``indent``
    is set; this writes the same text for the dicts with string keys,
    lists, strings, ints, finite floats and None that reports are made
    of, and hands any other value to ``json.dumps``.
    """
    kind = type(value)
    inner = newline + "  "
    if kind is dict and all(type(key) is str for key in value):
        if not value:
            out.append("{}")
            return
        sep = "{" + inner
        for key in sorted(value):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        kinds = set(map(type, value))
        if kinds == {str}:
            items = map(encode_basestring_ascii, value)
        elif _plain_numbers(value):
            items = map(repr, value)
        elif kinds == {list} and _plain_numbers(list(chain.from_iterable(value))):
            deeper = inner + "  "
            items = (
                "[" + deeper + ("," + deeper).join(map(repr, row)) + inner + "]" if row else "[]"
                for row in value
            )
        else:
            sep = "[" + inner
            for item in value:
                out.append(sep)
                _write_json(item, inner, out)
                sep = "," + inner
            out.append(newline + "]")
            return
        out.append("[" + inner + ("," + inner).join(items) + newline + "]")
    elif kind is str:
        out.append(encode_basestring_ascii(value))
    elif _plain_numbers((value,)):
        out.append(repr(value))
    elif kind is bool:
        out.append("true" if value else "false")
    elif value is None:
        out.append("null")
    else:
        out.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))


# ---------------------------------------------------------------------------
# argument parsing and dispatch

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("problem", help="problem file (JSON or whitespace matrix)")
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument(
        "--no-timings", action="store_true", help="omit timings for stable output"
    )
    for name, help_text in (
        ("--zero-tol", "pattern threshold, relative to the largest entry"),
        ("--rank-tol", "rank threshold, relative to ||sA||_F (staircase and PBH)"),
        ("--residual-tol", "eigenpair residual bound, relative to ||A||"),
        ("--gap-tol", "eigenvalue separation bound"),
        ("--tau", "orthogonality threshold"),
    ):
        common.add_argument(name, type=float, default=None, help=help_text)

    parser = argparse.ArgumentParser(
        prog="mincontrol",
        description="Sparsest single-input placement for LTI systems, "
        "with structural comparison.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve-mcp", parents=[common], help="solve the placement problem")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument(
        "--perturb",
        type=float,
        default=None,
        metavar="MAG",
        help="add uniform noise on [-MAG, MAG] to each nonzero entry",
    )
    p.add_argument("--seed", type=int, default=0, help="noise seed")
    p.add_argument("--exact-limit", type=int, default=EXACT_UNIVERSE_LIMIT)

    sub.add_parser("solve-mscp", parents=[common], help="solve the structural problem")

    p = sub.add_parser("verify", parents=[common], help="run one controllability test")
    p.add_argument("--method", choices=("pbh-eig", "pbh-vec", "kalman"), required=True)
    p.add_argument(
        "--vector",
        required=True,
        help="comma-separated entries of b, complex literals allowed (e.g. 0,1,1,1,0)",
    )

    p = sub.add_parser("oracle", parents=[common], help="brute-force reference solve")
    p.add_argument("--n-limit", type=int, default=DEFAULT_SIZE_LIMIT)

    p = sub.add_parser("compare", parents=[common], help="MCP vs MSCP comparison")
    p.add_argument("--exact-limit", type=int, default=EXACT_UNIVERSE_LIMIT)

    sub.add_parser("eig", parents=[common], help="print the eigenbasis and patterns")
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    started = time.perf_counter()
    try:
        pf = load_problem(args.problem)
        tol = _effective_tolerances(args, pf)
        report = _base_report(args.subcommand, args.problem, pf, tol)
        code = _COMMANDS[args.subcommand](args, pf, tol, report)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MincontrolError as exc:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": args.subcommand,
            "status": "error",
            "error_type": type(exc).__name__,
            "message": str(exc),
        }
        sys.stdout.write(_emit(report, args))
        return 1
    if not args.no_timings:
        report["timings"] = {"total_seconds": time.perf_counter() - started}
    sys.stdout.write(_emit(report, args))
    return code


def main():
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
