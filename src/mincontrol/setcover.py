"""Minimum set cover: instances, an exact solver, and the greedy heuristic.

Set indices are 1-based throughout the public interface, matching the
customary S_1..S_n naming. The exact solver is deterministic: among all
minimum-cardinality covers it returns the lexicographically smallest
index set. It finds the optimal size by branch-and-bound, then rebuilds
the lexicographically smallest cover of that size.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Iterable

from .errors import IndexOutOfRange, TooLarge

#: Largest universe the exact solver accepts by default.
EXACT_UNIVERSE_LIMIT = 30


@dataclass(frozen=True)
class SetCoverInstance:
    """Universe plus an ordered family of subsets whose union covers it."""

    universe: frozenset[int]
    sets: tuple[frozenset[int], ...]

    def __post_init__(self):
        universe = frozenset(self.universe)
        sets = tuple(frozenset(s) for s in self.sets)
        object.__setattr__(self, "universe", universe)
        object.__setattr__(self, "sets", sets)
        union = frozenset().union(*sets) if sets else frozenset()
        for k, s in enumerate(sets, start=1):
            if not s <= universe:
                raise ValueError(f"set {k} is not a subset of the universe")
        if union != universe:
            raise ValueError("the family does not cover the universe")

    @property
    def n_sets(self) -> int:
        return len(self.sets)


@dataclass(frozen=True)
class CoverSolution:
    """Chosen set indices (1-based) and whether they are provably optimal."""

    indices: frozenset[int]
    exact: bool

    def __post_init__(self):
        object.__setattr__(self, "indices", frozenset(self.indices))

    @property
    def size(self) -> int:
        return len(self.indices)

    @property
    def sorted_indices(self) -> tuple[int, ...]:
        return tuple(sorted(self.indices))


def is_cover(instance: SetCoverInstance, indices: Iterable[int]) -> bool:
    """Whether the union of the chosen sets equals the universe."""
    chosen = set(indices)
    for i in chosen:
        if not 1 <= i <= instance.n_sets:
            raise IndexOutOfRange(f"set index {i} outside 1..{instance.n_sets}")
    covered = set()
    for i in chosen:
        covered |= instance.sets[i - 1]
    return covered == instance.universe


def _to_masks(instance: SetCoverInstance) -> tuple[int, list[int]]:
    bit = {e: k for k, e in enumerate(sorted(instance.universe))}
    masks = []
    for s in instance.sets:
        m = 0
        for e in s:
            m |= 1 << bit[e]
        masks.append(m)
    return (1 << len(bit)) - 1, masks


def _greedy_masks(universe: int, masks: list[int]) -> list[int]:
    """Greedy cover over bitmasks; returns chosen 0-based indices."""
    chosen = []
    covered = 0
    while covered != universe:
        best, best_gain = -1, 0
        for i, m in enumerate(masks):
            gain = (m & ~covered).bit_count()
            if gain > best_gain:
                best, best_gain = i, gain
        if best < 0:
            raise AssertionError("family does not cover the universe")
        chosen.append(best)
        covered |= masks[best]
    return chosen


def _min_cover_size(universe: int, masks: list[int]) -> int:
    """Branch-and-bound optimal cover size.

    Dominated sets (subsets of another set) are dropped first: any cover
    using a dominated set maps to one of equal size using its dominator,
    so the optimal size is preserved. Branches on the least-covered
    uncovered element; prunes with a counting lower bound, a greedy
    upper bound, and a best-effort-per-state memo.
    """
    if universe == 0:
        return 0
    order = sorted(range(len(masks)), key=lambda i: -masks[i].bit_count())
    kept: list[int] = []
    for i in order:
        if any(masks[i] | m == m for m in kept):
            continue
        kept.append(masks[i])
    max_size = max(m.bit_count() for m in kept)
    covering = {}
    for e in range(universe.bit_length()):
        covering[e] = [m for m in kept if m >> e & 1]
    best = len(_greedy_masks(universe, kept))
    seen: dict[int, int] = {}
    def dfs(uncovered: int, used: int):
        nonlocal best
        if uncovered == 0:
            best = min(best, used)
            return
        if used + ceil(uncovered.bit_count() / max_size) >= best:
            return
        prev = seen.get(uncovered)
        if prev is not None and prev <= used:
            return
        seen[uncovered] = used
        e = min(
            (x for x in range(universe.bit_length()) if uncovered >> x & 1),
            key=lambda x: len(covering[x]),
        )
        for m in covering[e]:
            dfs(uncovered & ~m, used + 1)
    dfs(universe, 0)
    return best


def _lex_smallest_cover(universe: int, masks: list[int], k: int) -> tuple[int, ...]:
    """Lexicographically smallest size-k cover over the original family."""
    n = len(masks)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] | masks[i]
    max_size = max((m.bit_count() for m in masks), default=1)
    failed: dict[tuple[int, int], int] = {}

    def feasible(uncovered: int, i: int, budget: int) -> bool:
        if uncovered == 0:
            return True
        if budget <= 0 or i >= n:
            return False
        if suffix[i] & uncovered != uncovered:
            return False
        if ceil(uncovered.bit_count() / max_size) > budget:
            return False
        key = (uncovered, i)
        if failed.get(key, -1) >= budget:
            return False
        if masks[i] & uncovered and feasible(uncovered & ~masks[i], i + 1, budget - 1):
            return True
        if feasible(uncovered, i + 1, budget):
            return True
        failed[key] = max(failed.get(key, -1), budget)
        return False

    chosen: list[int] = []
    covered = 0
    start = 0
    budget = k
    while covered != universe:
        for i in range(start, n):
            gain = masks[i] & ~covered
            if not gain:
                continue
            if feasible(universe & ~(covered | masks[i]), i + 1, budget - 1):
                chosen.append(i)
                covered |= masks[i]
                start = i + 1
                budget -= 1
                break
        else:
            raise AssertionError("no size-k cover found; k below optimum")
    return tuple(chosen)


def solve_exact(
    instance: SetCoverInstance, exact_limit: int = EXACT_UNIVERSE_LIMIT
) -> CoverSolution:
    """Minimum-cardinality cover, lexicographically smallest on ties.

    Branch-and-bound finds the optimal size, then a lexicographic
    reconstruction picks the cover. Raises TooLarge when the universe
    exceeds ``exact_limit`` elements.
    """
    if len(instance.universe) > exact_limit:
        raise TooLarge(
            f"universe has {len(instance.universe)} elements; exact solving is "
            f"limited to {exact_limit} (use the greedy solver instead)"
        )
    if not instance.universe:
        return CoverSolution(frozenset(), exact=True)
    universe, masks = _to_masks(instance)
    k = _min_cover_size(universe, masks)
    combo = _lex_smallest_cover(universe, masks, k)
    return CoverSolution(frozenset(i + 1 for i in combo), exact=True)


def solve_greedy(instance: SetCoverInstance) -> CoverSolution:
    """Greedy cover: maximum uncovered gain, ties broken by lowest index.

    Always returns a cover; its size is within a factor (1 + ln|U|) of
    the optimum.
    """
    if not instance.universe:
        return CoverSolution(frozenset(), exact=False)
    universe, masks = _to_masks(instance)
    chosen = _greedy_masks(universe, masks)
    return CoverSolution(frozenset(i + 1 for i in chosen), exact=False)
