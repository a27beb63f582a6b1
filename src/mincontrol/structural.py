"""Structural controllability on the state digraph.

Vertices are the states x_1..x_n; an edge (i, j) means state j sees
state i (pattern position (j, i) is nonzero). With a full nonzero
diagonal, a single input controls the structure iff it feeds every
strongly connected component that has no incoming edge from outside.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import DimensionMismatch, MissingSelfLoops, NotSquare
from .structure import StructuralMatrix, StructuralVector, structural_geq


@dataclass(frozen=True)
class StateDigraph:
    """Directed graph on vertices 1..n; edge (i, j) points from x_i to x_j."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        object.__setattr__(self, "edges", frozenset(self.edges))
        for i, j in self.edges:
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise DimensionMismatch(f"edge ({i},{j}) outside 1..{self.n}")


@dataclass(frozen=True)
class SccDag:
    """Condensation of a digraph into strongly connected components.

    Components are sorted by their smallest vertex; ``membership`` maps
    vertex v (1-based) to its component's index in ``components``.
    ``non_top_linked[c]`` is True when component c has no incoming edge
    from another component.
    """

    components: tuple[tuple[int, ...], ...]
    edges: frozenset[tuple[int, int]]
    non_top_linked: tuple[bool, ...]
    membership: tuple[int, ...]

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def non_top_linked_components(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            comp for comp, flag in zip(self.components, self.non_top_linked) if flag
        )


def state_digraph(pattern: StructuralMatrix) -> StateDigraph:
    """Digraph of a square pattern: x_i -> x_j iff position (j, i) is a star."""
    if pattern.rows != pattern.cols:
        raise NotSquare(f"pattern is {pattern.rows}x{pattern.cols}")
    dst, src = np.divmod(pattern.positions, pattern.cols)
    return StateDigraph(pattern.rows, frozenset(zip((src + 1).tolist(), (dst + 1).tolist())))


def scc_dag(g: StateDigraph) -> SccDag:
    """Condense a digraph and flag the components with no incoming edge."""
    flat = np.fromiter(chain.from_iterable(g.edges), dtype=np.intp, count=2 * len(g.edges))
    src, dst = flat.reshape(-1, 2).T - 1
    return _condense(g.n, src, dst)


def _condense(n: int, src: np.ndarray, dst: np.ndarray) -> SccDag:
    """Condensation of the digraph on 0-based vertices 0..n-1 with edges src -> dst.

    Self-loops are dropped; components are numbered by their smallest
    vertex, and each lists its vertices ascending, 1-based.
    """
    keep = src != dst
    src, dst = src[keep], dst[keep]
    # A digraph and its reverse have the same components. The reverse's
    # adjacency lists come from sorting by ``dst``, which the stars of a
    # row-major pattern already are.
    order = np.argsort(dst, kind="stable")
    offsets = np.searchsorted(dst[order], np.arange(n + 1)).tolist()
    label = np.array(_tarjan(n, offsets, src[order].tolist()), dtype=np.intp)
    # Renumber the components, found in completion order, by smallest vertex.
    _, first = np.unique(label, return_index=True)
    renumber = np.empty(first.size, dtype=np.intp)
    renumber[np.argsort(first)] = np.arange(first.size)
    membership = renumber[label]
    vertices = (np.argsort(membership, kind="stable") + 1).tolist()
    ends = np.cumsum(np.bincount(membership)).tolist()
    src, dst = membership[src], membership[dst]
    between = src != dst
    src, dst = src[between], dst[between]
    has_incoming = np.zeros(first.size, dtype=bool)
    has_incoming[dst] = True
    return SccDag(
        components=tuple(
            tuple(vertices[lo:hi]) for lo, hi in zip([0] + ends[:-1], ends)
        ),
        edges=frozenset(zip(src.tolist(), dst.tolist())),
        non_top_linked=tuple((~has_incoming).tolist()),
        membership=tuple(membership.tolist()),
    )


def _tarjan(n: int, offsets: list[int], targets: list[int]) -> list[int]:
    """Tarjan's strongly connected components, iteratively (no recursion limit).

    The out-edges of v are ``targets[offsets[v]:offsets[v + 1]]``.
    Returns each vertex's component, numbered in completion order.
    """
    index = [-1] * n
    low = [0] * n
    label = [-1] * n  # a visited vertex is on the stack until it is labelled
    resume = offsets[:-1]  # the next out-edge of each vertex to scan
    stack: list[int] = []
    counter = components = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        path = [root]
        while path:
            v = path[-1]
            for e in range(resume[v], offsets[v + 1]):
                w = targets[e]
                if index[w] < 0:
                    resume[v] = e + 1
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    path.append(w)
                    break
                if label[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                path.pop()
                if path and low[v] < low[path[-1]]:
                    low[path[-1]] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        label[w] = components
                        if w == v:
                            break
                    components += 1
    return label


def _mscp_condensation(
    pattern: StructuralMatrix, b_pattern: StructuralVector | None = None
) -> SccDag:
    """Condensation of a full-diagonal pattern's state digraph.

    Raises MissingSelfLoops when a diagonal position is zero, since the
    solvers below cover only that case, and then DimensionMismatch when
    ``b_pattern`` is not one entry per state, both before condensing.
    """
    if pattern.rows != pattern.cols:
        raise NotSquare(f"pattern is {pattern.rows}x{pattern.cols}")
    missing = [i + 1 for i, d in enumerate(pattern.diagonal) if not d]
    if missing:
        raise MissingSelfLoops(
            f"diagonal positions {missing} are zero; this routine covers only "
            "patterns with self-loops on every state (the general single-input "
            "structural problem needs a matching-based algorithm, not "
            "implemented here)"
        )
    if b_pattern is not None and len(b_pattern) != pattern.rows:
        raise DimensionMismatch(f"input pattern length {len(b_pattern)} != {pattern.rows}")
    dst, src = np.divmod(pattern.positions, pattern.cols)
    return _condense(pattern.rows, src, dst)


def _feed(dag: SccDag, reference: StructuralVector | None = None) -> StructuralVector:
    """A sparsest input: one star per non-top-linked component, at the
    lowest vertex ``reference`` actuates, else at its lowest vertex."""
    # Keyed by each component's lowest vertex; walking the support downward
    # leaves the lowest actuated vertex of each.
    actuated = {}
    for v in reversed(reference.support if reference is not None else ()):
        actuated[dag.components[dag.membership[v - 1]][0]] = v
    support = [actuated.get(comp[0], comp[0]) for comp in dag.non_top_linked_components]
    return StructuralVector.from_support(support, len(dag.membership))


def solve_mscp(pattern: StructuralMatrix) -> StructuralVector:
    """Sparsest input pattern for structural controllability (full-diagonal case).

    Places one star per non-top-linked component, at its lowest-index
    vertex; no sparser pattern can reach every such component.
    """
    return _feed(_mscp_condensation(pattern))


def is_structurally_controllable(
    pattern: StructuralMatrix, b_pattern: StructuralVector
) -> bool:
    """Whether the input pattern feeds every non-top-linked component."""
    return structural_geq(b_pattern, compatible_mscp_solution(pattern, b_pattern))


def compatible_mscp_solution(
    pattern: StructuralMatrix, reference: StructuralVector
) -> StructuralVector:
    """A sparsest structural solution dominated by ``reference`` when possible.

    The sparsest structural input is not unique: any vertex of each
    non-top-linked component will do. For dominance comparisons we pick,
    per component, the lowest vertex the reference pattern already
    actuates, falling back to the component's lowest vertex.
    """
    return _feed(_mscp_condensation(pattern, reference), reference)
