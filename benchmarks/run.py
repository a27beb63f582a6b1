"""Seeded benchmark for mincontrol: end-to-end metrics, or per-layer ones traced.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload mcp-large --seed 1 --seconds 32 --trace 0

The inputs come only from --seed. They are written under
``.bench_run/<workload>/inputs`` and checked against an independent
reference (``reference.py``, scipy only). Fresh worker processes
(``worker.py``) import mincontrol from ``src/`` with BLAS pinned to one
thread: several only time their set-up, then one more runs a closed loop
with one client for --seconds. With --trace 0 it prints the
end-to-end metrics; with --trace 1 the loop also runs each operation's
stages as separate calls with spans recorded, and it prints the per-layer
metrics. The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. An earlier line,
starting with ``record``, holds the run record: versions, machine, outcome
breakdown, answer checks, the certificate probe and the tail percentile
with its sample count.

Exits 1 without a result when the checkout has no ``src/mincontrol``, or
when a worker fails or overruns the time budget.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np
import scipy

from reference import check_mcp, check_mscp, mcp_reference, mscp_reference
from workloads import (
    PROBE_MAX_UNCERTIFIED,
    TAIL_LADDER,
    WORKLOADS,
    input_path,
    load_matrix,
    tiny,
    write_input,
)

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: Fresh workers that only time their set-up; setup_s is their median.
#: Half run before the measuring worker and half after it, so that the
#: samples span the run rather than one moment of the host's speed.
SETUP_SAMPLES = 10
#: Everything a run does must end within this many seconds.
RUN_BUDGET_S = 170.0

END_TO_END = {
    "solve_p50_s": "s",
    "solve_tail_s": "s",
    "solves_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
#: Spans whose median self time is reported as ``<span>_s``.
STAGES = (
    "cli.load",
    "numerics.eigensolve",
    "structure.pattern",
    "mcp.cover_build",
    "setcover.solve",
    "mcp.realize",
    "verify.kalman",
    "verify.pbh_vec",
    "verify.pbh_eig",
    "structural.digraph",
    "structural.scc",
    "structural.solve",
)
#: Counts summed over the first pass, so they repeat exactly.
COUNTS = (
    "structure.pattern_nnz",
    "setcover.n_sets",
    "setcover.cover_size",
    "mcp.realize_nudges",
    "verify.kalman_deficit",
    "structural.components",
)
PER_LAYER = {
    **{f"{s}_s": "s" for s in STAGES},
    **{c: "count" for c in COUNTS},
    "verify.disagree_share": "share",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
}


class BenchmarkError(Exception):
    """A run that cannot produce a result."""


# ---------------------------------------------------------------------------
# workers


def worker_env() -> dict:
    """The parent's environment with BLAS pinned, glibc's mmap threshold
    fixed and tolerance overrides removed.

    The CLI reads ``MINCONTROL_TOL_*``; dropping them makes the program see
    only the generated files, and keeps the staged pipeline on the CLI's
    default tolerances. glibc raises its mmap threshold as large blocks
    are freed, after which heap layout decides where the next large array
    lands. Heap layout moves with trivial changes, such as the length of
    the checkout's path, and with it the peak memory of
    ``mscp-structural`` moved between 88 and 99 MB. Setting the threshold
    to its initial value (128 KiB) turns the adjustment off.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("MINCONTROL_TOL_")}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return env


def run_worker(job: dict, run_dir: Path, tag: str, deadline: float) -> dict:
    job_path = run_dir / f"job-{tag}.json"
    job = {**job, "output": str(run_dir / f"result-{tag}.json")}
    job_path.write_text(json.dumps(job))
    log_path = run_dir / f"worker-{tag}.log"
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(job_path)],
                cwd=ROOT,
                env=worker_env(),
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"worker {tag} overran the run budget") from exc
    if proc.returncode != 0:
        tail = log_path.read_text(encoding="utf-8")[-2000:]
        raise BenchmarkError(f"worker {tag} exited {proc.returncode}:\n{tail}")
    return json.loads(Path(job["output"]).read_text())


# ---------------------------------------------------------------------------
# answers and metrics


def check_answers(ops: list, refs: list, check, names: list) -> dict:
    """Outcome breakdown and answer check of every operation.

    ``failed`` counts operations without a correct answer: a wrong or
    missing support, or any outcome but ``ok`` and ``unverifiable``.
    ``failed_share`` also counts ``unverifiable``: it is the share of
    operations that did not return a correct, certified answer.
    """
    wrong, failed, uncertified, messages = [], 0, 0, {}
    for i, op in enumerate(ops):
        problems = check(refs[i], op["support"])
        if op["support"] is not None and problems:
            wrong.append({"input": names[i], "problems": problems})
        if problems or op["outcome"] not in ("ok", "unverifiable"):
            failed += 1
            messages.setdefault(op["outcome"], op["message"])
        if problems or op["outcome"] != "ok":
            uncertified += 1
    return {
        "outcomes": dict(sorted(Counter(op["outcome"] for op in ops).items())),
        "failed": failed,
        "failed_share": uncertified / len(ops),
        "wrong_answers": len(wrong),
        "wrong": wrong[:5],
        "messages": messages,
    }


def certificate_probe(outcomes: list[str] | None) -> dict | None:
    """How many probe operations ended uncertified, against
    PROBE_MAX_UNCERTIFIED; None for a workload without a probe. The probe
    inputs come from the seed, so for one seed and commit the count
    repeats exactly."""
    if outcomes is None:
        return None
    uncertified = sum(o != "ok" for o in outcomes)
    return {
        "ops": len(outcomes),
        "uncertified": uncertified,
        "max_uncertified": PROBE_MAX_UNCERTIFIED,
        "holds": uncertified <= PROBE_MAX_UNCERTIFIED,
    }


def tail_percentile(times: list[float], cap: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest rung of
    TAIL_LADDER at or below ``cap`` with at least ten samples beyond it;
    the median when no rung has ten."""
    ordered = sorted(times)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct / 100 * n)
        if pct <= cap and n - rank >= 10:
            return pct, ordered[rank - 1], n - rank
    rank = math.ceil(n / 2)
    return 50.0, ordered[rank - 1], n - rank


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover.

    Spans of one operation run on one thread, so children never overlap
    and their durations add up to the time they cover.
    """
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - child_time[s["id"]] for s in spans}


def per_layer_metrics(family: str, ops: list, traced: list, spans: list) -> dict:
    """Per-layer values from one traced run. A layer the workload's
    operation never calls reads 0."""
    own = self_times(spans)
    by_name: dict[str, list[float]] = defaultdict(list)
    root: dict[int, dict] = {}
    stage_sum: dict[int, float] = defaultdict(float)
    for s in spans:
        by_name[s["name"]].append(own[s["id"]])
        if s["parent"] is None:
            root[s["op"]] = s
        else:
            stage_sum[s["op"]] += s["end"] - s["start"]
    values = {f"{s}_s": statistics.median(by_name[s]) if by_name[s] else 0.0 for s in STAGES}
    first_pass = [t["counts"] for t in traced if t["counts"] is not None]
    for c in COUNTS:
        values[c] = sum(counts.get(c, 0) for counts in first_pass)
    disagree = [counts["verify.disagree"] for counts in first_pass if "verify.disagree" in counts]
    values["verify.disagree_share"] = sum(disagree) / len(disagree) if disagree else 0.0
    values["cli.overhead_s"] = (
        statistics.median(ops[t["op"]]["seconds"] - stage_sum[t["op"]] for t in traced)
        if family == "mcp"
        else 0.0
    )
    values["trace.overhead_s"] = statistics.median(
        root[t["op"]]["end"] - root[t["op"]]["start"] - t["untraced_s"] for t in traced
    )
    return values


# ---------------------------------------------------------------------------
# run record


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from ``.git`` directly; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "mincontrol").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_vendor() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas.get('name')} {blas.get('version')}"


# ---------------------------------------------------------------------------
# one run


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False):
    """Generate, check and measure one workload; returns (record, result line)."""
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    if not (ROOT / "src" / "mincontrol" / "__init__.py").is_file():
        raise BenchmarkError(f"no src/mincontrol under {ROOT}")
    w = tiny(WORKLOADS[workload]) if small else WORKLOADS[workload]
    run_dir = ROOT / ".bench_run" / w.name
    inputs = run_dir / "inputs"
    shutil.rmtree(run_dir, ignore_errors=True)
    write_input(w, seed, None, inputs)

    job = {
        "root": str(ROOT),
        "workload": workload,
        "tiny": small,
        "seed": seed,
        "inputs": str(inputs),
        "seconds": seconds,
        "spans": str(run_dir / f"spans-seed{seed}.jsonl"),
    }
    samples = 2 if small else SETUP_SAMPLES

    def setup_s(i: int) -> float:
        return run_worker({**job, "mode": "setup"}, run_dir, f"setup{i}", deadline)["setup_s"]

    setups = [setup_s(i) for i in range(samples // 2)]
    main = run_worker({**job, "mode": "trace" if trace else "measure"}, run_dir, "main", deadline)
    setups += [setup_s(i) for i in range(samples // 2, samples)]
    ops = main["ops"]

    ref_start = time.monotonic()
    paths = [input_path(w, k, inputs) for k in range(len(ops))]
    reference, check = (
        (mcp_reference, check_mcp) if w.family == "mcp" else (mscp_reference, check_mscp)
    )
    refs = [reference(load_matrix(p)) for p in paths]
    checked = check_answers(ops, refs, check, [p.name for p in paths])
    reference_s = time.monotonic() - ref_start
    times = [op["seconds"] for op in ops]
    pct, tail_value, beyond = tail_percentile(times, w.tail_pct)

    record = {
        "workload": w.name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "tiny": small,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"vendor": blas_vendor(), "pinned_threads": 1},
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "inputs": {"sizes": list(w.sizes), "dir": inputs.relative_to(ROOT).as_posix()},
        "loop": "closed, one client",
        "attempted": len(ops),
        **checked,
        "certificate_probe": certificate_probe(main.get("probe_outcomes")),
        "borderline_inputs": [p.name for p, r in zip(paths, refs) if r.borderline],
        "tail": {"percentile": pct, "samples": len(times), "beyond": beyond},
        "setup_samples_s": setups,
        "warmup_outcome": main["warmup_outcome"],
        "reference_s": reference_s,
    }

    probe = record["certificate_probe"]
    correct = checked["wrong_answers"] == 0 and (probe is None or probe["holds"])
    if trace:
        spans = [json.loads(line) for line in Path(job["spans"]).read_text().splitlines()]
        mismatches = [
            {"op": t["op"], "input": paths[t["op"]].name,
             "program": [ops[t["op"]]["outcome"], ops[t["op"]]["support"]],
             "staged": [t["outcome"], t["support"]]}
            for t in main["traced"]
            if (t["outcome"], t["support"]) != (ops[t["op"]]["outcome"], ops[t["op"]]["support"])
        ]
        record["staged_mismatches"] = mismatches
        record["traced_ops"] = len(main["traced"])
        correct = correct and not mismatches
        values = per_layer_metrics(w.family, ops, main["traced"], spans)
        units = PER_LAYER
    else:
        values = {
            "solve_p50_s": statistics.median(times),
            "solve_tail_s": tail_value,
            "solves_per_s": len(times) / sum(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": main["peak_rss_kb"] / 1024,
        }
        units = END_TO_END
    record["elapsed_s"] = time.monotonic() - started
    result = {
        "correct": correct,
        "attempted": len(ops),
        "failed": checked["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    (run_dir / f"record-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1)
    )
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small inputs, for the benchmark's self-tests")
    args = parser.parse_args(argv)
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("record " + json.dumps(record, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"{record['workload']:16s} {name:24s} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
