"""Independent answer check, computed with numpy and scipy only.

Nothing here imports ``mincontrol``: the reference must not share code
with the program it checks.

MCP: the left-eigenvector patterns come from ``scipy.linalg.eig`` at the
program's default relative zero threshold, and the minimum cover size
from ``scipy.optimize.milp``. A reported support is correct when it has
that size and meets every reference pattern.

MSCP: the source components (strongly connected components with no edge
entering from another component) come from
``scipy.sparse.csgraph.connected_components``. A reported support is
correct when it has one position per source component and meets each.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize
import scipy.sparse
import scipy.sparse.csgraph

#: The program's default relative zero threshold (``DEFAULT_ZERO_TOL``).
ZERO_TOL = 1e-9

#: An entry whose relative magnitude lies within this factor of ZERO_TOL
#: is close enough to the cut that the program and the reference may
#: classify it differently; such inputs are reported by name.
BORDERLINE_FACTOR = 1e3


@dataclass(frozen=True)
class McpReference:
    n: int
    patterns: tuple[frozenset[int], ...]
    min_cover: int
    borderline: bool


@dataclass(frozen=True)
class MscpReference:
    n: int
    sources: tuple[frozenset[int], ...]
    borderline: bool


def mcp_reference(A: np.ndarray, zero_tol: float = ZERO_TOL) -> McpReference:
    """Left-eigenvector patterns and the minimum size of a support meeting all."""
    A = np.asarray(A)
    n = A.shape[0]
    _, vl = scipy.linalg.eig(A, left=True, right=False)
    patterns = []
    borderline = False
    for j in range(n):
        mags = np.abs(vl[:, j])
        rel = mags / mags.max()
        patterns.append(frozenset(int(i) + 1 for i in np.flatnonzero(rel > zero_tol)))
        borderline = borderline or _near_threshold(rel, zero_tol)
    return McpReference(n, tuple(patterns), _min_hitting_set(n, patterns), borderline)


def _near_threshold(rel: np.ndarray, zero_tol: float) -> bool:
    return bool(
        ((rel >= zero_tol / BORDERLINE_FACTOR) & (rel <= zero_tol * BORDERLINE_FACTOR)).any()
    )


def _min_hitting_set(n: int, patterns) -> int:
    """Size of the smallest set of positions meeting every pattern (a 0/1 ILP)."""
    M = np.zeros((len(patterns), n))
    for j, pat in enumerate(patterns):
        M[j, [i - 1 for i in pat]] = 1.0
    if M.all(axis=0).any():
        return 1
    res = scipy.optimize.milp(
        c=np.ones(n),
        constraints=scipy.optimize.LinearConstraint(M, lb=1.0, ub=np.inf),
        integrality=np.ones(n),
        bounds=scipy.optimize.Bounds(0.0, 1.0),
    )
    if not res.success:
        raise RuntimeError(f"reference cover ILP failed: {res.message}")
    return int(round(res.fun))


def mscp_reference(A: np.ndarray, zero_tol: float = ZERO_TOL) -> MscpReference:
    """Source components of the state digraph (x_i -> x_j iff A[j, i] != 0)."""
    mags = np.abs(np.asarray(A))
    rel = mags / mags.max()
    mask = rel > zero_tol
    n = mask.shape[0]
    graph = scipy.sparse.csr_matrix(mask.T.astype(np.int8))
    _, labels = scipy.sparse.csgraph.connected_components(
        graph, directed=True, connection="strong"
    )
    src, dst = np.nonzero(mask.T)
    entered = set(labels[dst[labels[src] != labels[dst]]].tolist())
    sources = [
        frozenset(int(v) + 1 for v in np.flatnonzero(labels == c))
        for c in sorted(set(labels.tolist()) - entered)
    ]
    return MscpReference(n, tuple(sources), _near_threshold(rel, zero_tol))


def _support_problems(n: int, support) -> list[str]:
    if support is None:
        return ["no support reported"]
    problems = []
    if len(set(support)) != len(support):
        problems.append(f"repeated positions in {support}")
    outside = [i for i in support if not 1 <= i <= n]
    if outside:
        problems.append(f"positions {outside} outside 1..{n}")
    return problems


def check_mcp(ref: McpReference, support) -> list[str]:
    """Why ``support`` is not a sparsest placement; empty when it is."""
    problems = _support_problems(ref.n, support)
    if problems:
        return problems
    chosen = set(support)
    if len(chosen) != ref.min_cover:
        problems.append(f"size {len(chosen)}, reference minimum {ref.min_cover}")
    missed = [j + 1 for j, pat in enumerate(ref.patterns) if not pat & chosen]
    if missed:
        problems.append(f"misses eigenvector patterns {missed}")
    return problems


def check_mscp(ref: MscpReference, support) -> list[str]:
    """Why ``support`` is not a sparsest structural input; empty when it is."""
    problems = _support_problems(ref.n, support)
    if problems:
        return problems
    chosen = set(support)
    if len(chosen) != len(ref.sources):
        problems.append(f"size {len(chosen)}, {len(ref.sources)} source components")
    missed = [sorted(c)[0] for c in ref.sources if not c & chosen]
    if missed:
        problems.append(f"misses the source components led by {missed}")
    return problems
