"""The benchmark's two workloads, the certificate probe and their seeded input generators.

Every input comes from ``numpy.random.default_rng`` seeded from the
benchmark's ``--seed``: input k draws from child ``(0, k)`` of
``SeedSequence(seed)``, the warm-up input from child ``(1,)`` and probe
input k from child ``(2, k)``. The
inputs form an endless sequence, written one at a time as the loop
reaches them, so no operation sees an input twice. Sizes cycle over a
fixed grid, so two seeds differ in the random entries but not in the mix
of sizes: that keeps per-run medians comparable across seeds.

MCP inputs are written as JSON problem files, which the program reads
through ``mincontrol.cli``. MSCP inputs are written as ``.npz`` triplets
(n, rows, cols, values); the worker expands them to dense arrays before
timing starts, because that workload calls the library on arrays.

This module imports numpy only: the parent process never imports
``mincontrol``.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    """One named set of inputs and how the benchmark runs and checks them.

    ``sizes`` is the grid of n that the inputs cycle through. ``tail_pct``
    is the percentile reported as ``solve_tail_s`` when at least ten
    samples lie beyond it; a run with fewer samples falls back to a lower
    rung of ``TAIL_LADDER``. The first ``first_pass`` inputs are processed
    on every run, whatever ``--seconds`` says; the traced counts and the
    peak memory come from them, so they do not depend on how many
    operations a run gets through.
    """

    name: str
    family: str
    sizes: tuple[int, ...]
    warmup_size: int
    tail_pct: float
    first_pass: int
    exact_limit_n: bool = False
    density: float = 0.0

    def size(self, k: int) -> int:
        return self.sizes[k % len(self.sizes)]


TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mcp-large",
            family="mcp",
            sizes=(64, 73, 82, 91, 100),
            warmup_size=24,
            tail_pct=75.0,
            first_pass=10,
            exact_limit_n=True,
            density=0.035,
        ),
        Workload(
            name="mscp-structural",
            family="mscp",
            sizes=tuple(range(400, 1201, 100)),
            warmup_size=100,
            tail_pct=75.0,
            first_pass=9,
        ),
    )
}


#: The certificate probe: dense uniform [-1, 1] inputs, n = 16..24, run
#: untimed after the loop of every MCP workload, with the workload's own
#: CLI call. At the seed commit 0-2 of the 90 end uncertified (seeds 1-30,
#: all at n = 23-24), so more than PROBE_MAX_UNCERTIFIED means the
#: certificate got weaker, and the run is not correct.
PROBE = Workload(
    name="certify-probe",
    family="mcp",
    sizes=tuple(range(16, 25)),
    warmup_size=12,
    tail_pct=95.0,
    first_pass=90,
)
PROBE_MAX_UNCERTIFIED = 4


def tiny(w: Workload) -> Workload:
    """A few small inputs of the same family, for the benchmark's self-tests."""
    sizes = (60, 80) if w.family == "mscp" else (6, 8)
    return replace(w, sizes=sizes, warmup_size=sizes[0], first_pass=2)


# ---------------------------------------------------------------------------
# generators


def sparse_system(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    """Diagonal about 1..n with jitter, uniform [-1, 1] entries off it."""
    A = np.diag(np.arange(1, n + 1) + rng.uniform(-0.2, 0.2, n))
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, False)
    A[mask] = rng.uniform(-1.0, 1.0, int(mask.sum()))
    return A


def dense_system(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.uniform(-1.0, 1.0, (n, n))


def structural_system(rng: np.random.Generator, n: int) -> tuple:
    """Full diagonal plus 0-3 off-diagonal entries per row, as triplets.

    Entry magnitudes stay in [0.5, 2], far above any relative zero
    threshold, so the pattern is exactly the set of stored entries. Two
    draws that land on the same position store one entry.
    """
    per_row = rng.integers(0, 4, n)
    rows = np.repeat(np.arange(n), per_row)
    cols = rng.integers(0, n - 1, rows.size)
    cols += cols >= rows
    signs = rng.choice((-1.0, 1.0), rows.size)
    return (
        np.concatenate([np.arange(n), rows]),
        np.concatenate([np.arange(n), cols]),
        np.concatenate([rng.uniform(1.0, 2.0, n), signs * rng.uniform(0.5, 1.0, rows.size)]),
    )


# ---------------------------------------------------------------------------
# problem files


def input_path(w: Workload, k: int | None, directory: Path) -> Path:
    """Where input k, or the warm-up input when k is None, is written."""
    stem, n = ("warmup", w.warmup_size) if k is None else (f"p{k:04d}", w.size(k))
    return directory / f"{stem}-n{n}.{'npz' if w.family == 'mscp' else 'json'}"


def write_input(
    w: Workload, seed: int, k: int | None, directory: Path, stream: int = 0
) -> Path:
    """Write input k of the sequence, or the warm-up input when k is None.

    ``stream`` 2 draws the certificate probe's inputs.
    """
    path = input_path(w, k, directory)
    n = w.warmup_size if k is None else w.size(k)
    key = (1,) if k is None else (stream, k)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))
    path.parent.mkdir(parents=True, exist_ok=True)
    if w.family == "mscp":
        rows, cols, vals = structural_system(rng, n)
        np.savez(path, n=n, rows=rows, cols=cols, vals=vals)
    else:
        A = sparse_system(rng, n, w.density) if w.density else dense_system(rng, n)
        path.write_text(json.dumps({"n": n, "matrix": A.tolist()}))
    return path


def load_matrix(path: Path) -> np.ndarray:
    """The dense real matrix stored in an input file of either kind."""
    path = Path(path)
    if path.suffix == ".npz":
        with np.load(path) as z:
            A = np.zeros((int(z["n"]), int(z["n"])))
            A[z["rows"], z["cols"]] = z["vals"]
            return A
    return np.array(json.loads(path.read_text())["matrix"], dtype=float)
