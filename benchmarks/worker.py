"""Benchmark worker: one fresh process that imports mincontrol and runs a loop.

Run by ``run.py`` as ``python3 benchmarks/worker.py JOB.json``; the job
names the checkout root, the workload, the seed and the mode:

- ``setup``: import mincontrol from ``<root>/src``, run the warm-up
  operation, report the time both took, exit.
- ``measure``: the same, then a closed loop with one client for the
  job's seconds, timing every operation. Before each operation, untimed,
  the loop writes the next input of the seeded sequence
  (``workloads.write_input``), so no operation sees an input twice.
- ``trace``: the same set-up, then a loop that for each input runs the
  operation untraced, then the staged pipeline (the operation's public
  calls in pipeline order) with spans recorded, then the staged pipeline
  again with recording off. The spans go to the job's spans file.

The parent pins BLAS to one thread through the environment before this
process starts. The result goes to the job's output file as JSON.
"""
from __future__ import annotations

import time

_STARTED = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import PROBE, WORKLOADS, input_path, load_matrix, tiny, write_input  # noqa: E402


class Tracer:
    """Spans in memory: (id, name, operation id, parent id, start, end)."""

    def __init__(self):
        self.spans: list[dict | None] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid] = {
                "id": sid, "name": name, "op": op, "parent": parent,
                "start": start, "end": end,
            }


class NullTracer:
    """Same calls as Tracer, nothing recorded: the untraced baseline."""

    @contextlib.contextmanager
    def span(self, name: str, op: int):
        yield


def peak_rss_kb() -> int:
    """This process's peak resident memory since it exec'd, in KiB.

    ``ru_maxrss`` is not used where VmHWM exists: Linux carries it over
    from the parent across exec, so it would count the parent's memory.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Program:
    """The operations under test, plus their staged counterparts."""

    def __init__(self, root: Path, family: str, exact_limit_n: bool):
        sys.path.insert(0, str(root / "src"))
        import mincontrol
        from mincontrol import cli, mcp, numerics, setcover, structural, structure, verify
        from mincontrol.errors import MincontrolError
        from mincontrol.tolerances import Tolerances

        if not Path(mincontrol.__file__).resolve().is_relative_to((root / "src").resolve()):
            raise ImportError(f"mincontrol came from {mincontrol.__file__}, not {root / 'src'}")
        self.cli, self.mcp, self.numerics = cli, mcp, numerics
        self.setcover, self.structural, self.structure = setcover, structural, structure
        self.verify, self.Error = verify, MincontrolError
        self.tol = Tolerances()
        self.family = family
        self.exact_limit_n = exact_limit_n

    # -- the measured operation ------------------------------------------------

    def prepare(self, path: Path, n: int):
        """The operation's argument for one input file; not timed.

        MSCP inputs are expanded from triplets to a dense array here,
        because that workload calls the library on arrays.
        """
        if self.family == "mscp":
            return load_matrix(path)
        return str(path), n

    def run(self, item):
        """One operation; returns the raw result for ``classify``."""
        if self.family == "mcp":
            path, n = item
            argv = ["solve-mcp", path, "--json", "--no-timings"]
            if self.exact_limit_n:
                argv += ["--exact-limit", str(n)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run_command(argv)
            return code, out, err
        try:
            b = self.structural.solve_mscp(self.structure.StructuralMatrix.from_numeric(item))
        except self.Error as exc:
            return type(exc).__name__, str(exc)
        return "ok", b.support

    def classify(self, raw) -> tuple[str, list | None, str | None]:
        """(outcome, support or None, message or None) of a raw result.

        Kept out of the timed region: parsing the report is the
        benchmark's work, not the program's.
        """
        if self.family == "mscp":
            outcome, payload = raw
            return (outcome, list(payload), None) if outcome == "ok" else (outcome, None, payload)
        code, out, err = raw
        if code == 2:
            return "exit2", None, err.getvalue().strip()
        report = json.loads(out.getvalue())
        support = (report.get("solution") or {}).get("support")
        if code == 0:
            return report["status"], support, None
        return report.get("error_type") or report["status"], support, report.get("message")

    # -- the staged pipeline ---------------------------------------------------

    def staged(self, item, tracer, op: int) -> tuple[str, list | None, dict]:
        """The operation's stages as separate public calls, in pipeline order."""
        with tracer.span("op", op):
            try:
                if self.family == "mcp":
                    return self._staged_mcp(item, tracer, op)
                return self._staged_mscp(item, tracer, op)
            except Exception as exc:  # classified as the operation's own would be
                return self.outcome_of(exc), None, {}

    def outcome_of(self, exc: Exception) -> str:
        if self.family == "mcp" and isinstance(exc, ValueError):
            return "exit2"  # the CLI maps every ValueError, typed or not, to exit 2
        if isinstance(exc, self.Error):
            return type(exc).__name__
        return f"exception:{type(exc).__name__}"

    def _staged_mcp(self, item, tracer, op):
        path, n = item
        tol = self.tol
        limit = n if self.exact_limit_n else self.setcover.EXACT_UNIVERSE_LIMIT
        with tracer.span("cli.load", op):
            pf = self.cli.load_problem(path)
        A = pf.matrix
        with tracer.span("numerics.eigensolve", op):
            basis = self.numerics.left_eigenbasis(
                A, residual_tol=tol.residual_tol, gap_tol=tol.gap_tol
            )
        with tracer.span("structure.pattern", op):
            patterns = [self.structure.structural_pattern(v, tol.zero_tol) for v in basis.vectors]
        with tracer.span("mcp.cover_build", op):
            instance = self.mcp.build_cover_instance(patterns)
        with tracer.span("setcover.solve", op):
            cover = self.setcover.solve_exact(instance, limit)
        with tracer.span("mcp.support", op):
            pattern = self.mcp.support_from_cover(cover.indices, basis.n)
        with tracer.span("mcp.realize", op):
            b, stats = self.mcp.realize_with_stats(
                pattern, basis.vectors, self.mcp.RealizationConfig(tau=tol.tau), tol.zero_tol
            )
        with tracer.span("verify.kalman", op):
            kalman = self.verify.kalman_test(A, b, tol.rank_tol)
        with tracer.span("verify.pbh_vec", op):
            pbh_vec = self.verify.pbh_eigenvector_test(basis, b, tol.tau)
        with tracer.span("verify.pbh_eig", op):
            pbh_eig = self.verify.pbh_eigenvalue_test(A, b, basis.eigenvalues, tol.rank_tol)
        counts = {
            "structure.pattern_nnz": sum(p.nnz for p in patterns),
            "setcover.n_sets": instance.n_sets,
            "setcover.cover_size": cover.size,
            "mcp.realize_nudges": sum(stats.step3_corrections)
            + sum(stats.step4_multipliers.values()),
            "verify.kalman_deficit": basis.n - kalman.rank,
            "verify.disagree": int(
                len({kalman.controllable, pbh_vec.controllable, pbh_eig.controllable}) > 1
            ),
        }
        status = "ok" if kalman.controllable else "unverifiable"
        return status, list(pattern.support), counts

    def _staged_mscp(self, item, tracer, op):
        A = item
        with tracer.span("structure.pattern", op):
            pattern = self.structure.StructuralMatrix.from_numeric(A, self.tol.zero_tol)
        with tracer.span("structural.digraph", op):
            graph = self.structural.state_digraph(pattern)
        with tracer.span("structural.scc", op):
            dag = self.structural.scc_dag(graph)
        with tracer.span("structural.solve", op):
            b = self.structural.solve_mscp(pattern)
        counts = {
            "structure.pattern_nnz": sum(pattern.mask),
            "structural.components": dag.n_components,
        }
        return "ok", list(b.support), counts


def _timed(program: Program, item):
    start = time.perf_counter()
    try:
        raw = program.run(item)
    except Exception as exc:  # the operation boundary: record, keep looping
        seconds = time.perf_counter() - start
        return seconds, (program.outcome_of(exc), None, traceback.format_exc())
    seconds = time.perf_counter() - start
    return seconds, program.classify(raw)


def _untraced(program: Program, arg, op: int) -> float:
    start = time.perf_counter()
    program.staged(arg, NullTracer(), op)
    return time.perf_counter() - start


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    w = WORKLOADS[job["workload"]]
    w = tiny(w) if job["tiny"] else w
    program = Program(Path(job["root"]), w.family, w.exact_limit_n)
    inputs = Path(job["inputs"])
    warmup = program.prepare(input_path(w, None, inputs), w.warmup_size)
    _, (warmup_outcome, _, _) = _timed(program, warmup)
    result = {
        "setup_s": time.perf_counter() - _STARTED,
        "warmup_outcome": warmup_outcome,
    }
    if job["mode"] != "setup":
        result.update(loop(program, w, job))
        if w.family == "mcp":
            result["probe_outcomes"] = probe(program, job)
    Path(job["output"]).write_text(json.dumps(result))
    return 0


def loop(program: Program, w, job: dict) -> dict:
    """Closed loop with one client: the next operation starts when one ends.

    Operation i runs on input i of the seeded sequence.
    """
    trace = job["mode"] == "trace"
    tracer = Tracer()
    ops, traced = [], []
    deadline = time.perf_counter() + job["seconds"]
    i = 0
    peak_rss = None
    while time.perf_counter() < deadline or i < w.first_pass:
        arg = program.prepare(write_input(w, job["seed"], i, Path(job["inputs"])), w.size(i))
        seconds, (outcome, support, message) = _timed(program, arg)
        ops.append({"seconds": seconds, "outcome": outcome, "support": support,
                    "message": message})
        if trace:
            # Alternate which of the two staged runs goes first, so that
            # warm caches favour neither in trace.overhead_s.
            if i % 2:
                untraced_s = _untraced(program, arg, i)
            s_outcome, s_support, counts = program.staged(arg, tracer, i)
            if not i % 2:
                untraced_s = _untraced(program, arg, i)
            traced.append({
                "op": i, "outcome": s_outcome, "support": s_support,
                "counts": counts if i < w.first_pass else None,
                "untraced_s": untraced_s,
            })
        i += 1
        if i == w.first_pass:
            peak_rss = peak_rss_kb()
    out = {"ops": ops, "peak_rss_kb": peak_rss}
    if trace:
        out["traced"] = traced
        with open(job["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return out


def probe(program: Program, job: dict) -> list[str]:
    """Outcomes of the certificate probe, run untimed after the loop."""
    p = tiny(PROBE) if job["tiny"] else PROBE
    directory = Path(job["inputs"]) / "probe"
    outcomes = []
    for k in range(p.first_pass):
        arg = program.prepare(write_input(p, job["seed"], k, directory, stream=2), p.size(k))
        outcomes.append(_timed(program, arg)[1][0])
    return outcomes


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
