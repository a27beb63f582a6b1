"""Structural controllability on the state digraph.

Vertices are the states x_1..x_n; an edge (i, j) means state j sees
state i (pattern position (j, i) is nonzero). With a full nonzero
diagonal, a single input controls the structure iff it feeds every
strongly connected component that has no incoming edge from outside.
"""
from __future__ import annotations

from dataclasses import dataclass
from .errors import DimensionMismatch, MissingSelfLoops, NotSquare
from .structure import StructuralMatrix, StructuralVector


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
    return StateDigraph(pattern.rows, frozenset((i, j) for j, i in pattern.stars))


def _tarjan_components(n: int, adjacency: list[list[int]]) -> list[list[int]]:
    """Strongly connected components, iteratively (no recursion limit)."""
    index = [0] * (n + 1)
    low = [0] * (n + 1)
    on_stack = [False] * (n + 1)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 1
    for root in range(1, n + 1):
        if index[root]:
            continue
        work = [(root, iter(adjacency[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if not index[w]:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(adjacency[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                components.append(sorted(comp))
    return components


def scc_dag(g: StateDigraph) -> SccDag:
    """Condense a digraph and flag the components with no incoming edge."""
    adjacency: list[list[int]] = [[] for _ in range(g.n + 1)]
    for i, j in g.edges:
        adjacency[i].append(j)
    components = _tarjan_components(g.n, adjacency)
    components.sort(key=lambda c: c[0])
    membership = [0] * g.n
    for ci, comp in enumerate(components):
        for v in comp:
            membership[v - 1] = ci
    dag_edges = set()
    for i, j in g.edges:
        ci, cj = membership[i - 1], membership[j - 1]
        if ci != cj:
            dag_edges.add((ci, cj))
    has_incoming = [False] * len(components)
    for _, cj in dag_edges:
        has_incoming[cj] = True
    return SccDag(
        components=tuple(tuple(c) for c in components),
        edges=frozenset(dag_edges),
        non_top_linked=tuple(not x for x in has_incoming),
        membership=tuple(membership),
    )


def _require_full_diagonal(pattern: StructuralMatrix):
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


def _mscp_condensation(pattern: StructuralMatrix) -> SccDag:
    """Condensation of a full-diagonal pattern's state digraph.

    Raises MissingSelfLoops when a diagonal position is zero, since the
    solvers below cover only that case.
    """
    _require_full_diagonal(pattern)
    return scc_dag(state_digraph(pattern))


def _sparsest_input(dag: SccDag) -> StructuralVector:
    """One star per non-top-linked component, at its lowest-index vertex."""
    support = [comp[0] for comp in dag.non_top_linked_components]
    return StructuralVector.from_support(support, len(dag.membership))


def _compatible_input(dag: SccDag, reference: StructuralVector) -> StructuralVector:
    """A sparsest input dominated by ``reference`` where possible.

    Per non-top-linked component, the lowest vertex ``reference``
    actuates, else the component's lowest vertex.
    """
    n = len(dag.membership)
    if len(reference) != n:
        raise DimensionMismatch(f"reference pattern length {len(reference)} != {n}")
    starred = set(reference.support)
    support = []
    for comp in dag.non_top_linked_components:
        inside = sorted(starred.intersection(comp))
        support.append(inside[0] if inside else comp[0])
    return StructuralVector.from_support(support, n)


def solve_mscp(pattern: StructuralMatrix) -> StructuralVector:
    """Sparsest input pattern for structural controllability (full-diagonal case).

    Places one star per non-top-linked component, at its lowest-index
    vertex; no sparser pattern can reach every such component.
    """
    return _sparsest_input(_mscp_condensation(pattern))


def is_structurally_controllable(
    pattern: StructuralMatrix, b_pattern: StructuralVector
) -> bool:
    """Whether the input pattern feeds every non-top-linked component."""
    if len(b_pattern) != pattern.rows:
        _require_full_diagonal(pattern)  # its errors take precedence
        raise DimensionMismatch(
            f"input pattern length {len(b_pattern)} != {pattern.rows}"
        )
    dag = _mscp_condensation(pattern)
    starred = set(b_pattern.support)
    return all(
        starred.intersection(comp) for comp in dag.non_top_linked_components
    )


def compatible_mscp_solution(
    pattern: StructuralMatrix, reference: StructuralVector
) -> StructuralVector:
    """A sparsest structural solution dominated by ``reference`` when possible.

    The sparsest structural input is not unique: any vertex of each
    non-top-linked component will do. For dominance comparisons we pick,
    per component, the lowest vertex the reference pattern already
    actuates, falling back to the component's lowest vertex.
    """
    return _compatible_input(_mscp_condensation(pattern), reference)
