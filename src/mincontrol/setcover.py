"""Minimum set cover: instances, an exact solver, and the greedy heuristic.

Set indices are 1-based throughout the public interface, matching the
customary S_1..S_n naming. The exact solver is deterministic: among all
minimum-cardinality covers it returns the lexicographically smallest
index set. One complete feasibility search, branching on the uncovered
element with the fewest covering sets, finds the optimal size as the
least budget that covers the universe. The same search, with the same
failure memo, then rebuilds the lexicographically smallest cover of
that size in one pass over the sets in index order, keeping a set
whenever the rest can still be covered within the budget.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import TooLarge

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


def _incidence(instance: SetCoverInstance) -> np.ndarray:
    """Sets x elements boolean incidence; column k is the k-th smallest element."""
    bit = {e: k for k, e in enumerate(sorted(instance.universe))}
    lengths = [len(s) for s in instance.sets]
    incidence = np.zeros((instance.n_sets, len(bit)), dtype=bool)
    columns = map(bit.__getitem__, chain.from_iterable(instance.sets))
    incidence[
        np.repeat(np.arange(instance.n_sets), lengths),
        np.fromiter(columns, np.intp, sum(lengths)),
    ] = True
    return incidence


def _row_masks(bits: np.ndarray) -> list[int]:
    """One bitmask per row of a boolean array; bit k stands for column k."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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


def _packing_bound(uncovered: int, neighbours: list[int], cap: int) -> int:
    """Uncovered elements that pairwise share no set, counted up to ``cap``.

    Each of them needs a set of its own, so the count is a lower bound
    on the sets still needed.
    """
    need = 0
    while uncovered and need < cap:
        uncovered &= ~neighbours[(uncovered & -uncovered).bit_length() - 1]
        need += 1
    return need


def _branch_sets(uncovered: int, sets_of: list[int], lo: int) -> list[int]:
    """Indices >= lo of the sets covering the uncovered element that has fewest.

    ``sets_of[e]`` is the bitmask of the sets covering element e. The
    list is empty when some uncovered element has no such set.
    """
    best, fewest = 0, -1
    while uncovered:
        low = uncovered & -uncovered
        uncovered ^= low
        sets = sets_of[low.bit_length() - 1] >> lo
        count = sets.bit_count()
        if fewest < 0 or count < fewest:
            best, fewest = sets, count
            if count <= 1:
                break
    indices = []
    while best:
        low = best & -best
        best ^= low
        indices.append(lo + low.bit_length() - 1)
    return indices


def _lex_smallest_cover(incidence: np.ndarray) -> tuple[int, ...]:
    """Lexicographically smallest minimum-cardinality cover of an incidence.

    One test decides everything: can the uncovered elements be covered
    by ``budget`` sets of index ``lo`` or above? It branches on the
    uncovered element with the fewest such sets, trying each of them, so
    it is complete, and prunes with counting and packing bounds. With
    ``lo`` = 0 the optimal size k is the least budget that covers the
    universe. One pass in index order then takes set i whenever the rest
    of the budget can still cover what it leaves, with sets above i.
    ``lo`` only grows, so a failure recorded at one ``lo`` holds at every
    later one, and one memo keyed on the uncovered elements serves both.
    """
    masks = _row_masks(incidence)
    universe = (1 << incidence.shape[1]) - 1
    # Per element: the sets covering it and the elements sharing a set with it.
    sets_of = _row_masks(incidence.T)
    weights = incidence.astype(np.float32)
    neighbours = _row_masks(weights.T @ weights > 0)
    max_size = max(m.bit_count() for m in masks)
    failed: dict[int, int] = {}
    lo = 0

    def feasible(uncovered: int, budget: int) -> bool:
        if uncovered == 0:
            return True
        if uncovered.bit_count() > budget * max_size:
            return False
        if failed.get(uncovered, -1) >= budget:
            return False
        if _packing_bound(uncovered, neighbours, budget + 1) <= budget and any(
            feasible(uncovered & ~masks[i], budget - 1)
            for i in _branch_sets(uncovered, sets_of, lo)
        ):
            return True
        failed[uncovered] = budget
        return False

    k = next((k for k in range(len(masks) + 1) if feasible(universe, k)), None)
    if k is None:
        raise AssertionError("family does not cover the universe")
    chosen: list[int] = []
    uncovered = universe
    for i, m in enumerate(masks):
        if uncovered == 0:
            break
        lo = i + 1
        if m & uncovered and feasible(uncovered & ~m, k - len(chosen) - 1):
            chosen.append(i)
            uncovered &= ~m
    if uncovered:
        raise AssertionError("no size-k cover found in index order")
    return tuple(chosen)


def solve_exact(
    instance: SetCoverInstance, exact_limit: int = EXACT_UNIVERSE_LIMIT
) -> CoverSolution:
    """Minimum-cardinality cover, lexicographically smallest on ties.

    One feasibility search finds the optimal size, then picks the cover
    in index order with the same search and memo. Raises TooLarge when
    the universe exceeds ``exact_limit`` elements.
    """
    return _exact_cover(_incidence(instance), exact_limit)


def _exact_cover(incidence: np.ndarray, exact_limit: int) -> CoverSolution:
    """``solve_exact`` on a sets x elements boolean incidence."""
    if incidence.shape[1] > exact_limit:
        raise TooLarge(
            f"universe has {incidence.shape[1]} elements; exact solving is "
            f"limited to {exact_limit} (use the greedy solver instead)"
        )
    if not incidence.shape[1]:
        return CoverSolution(frozenset(), exact=True)
    combo = _lex_smallest_cover(incidence)
    return CoverSolution(frozenset(i + 1 for i in combo), exact=True)


def solve_greedy(instance: SetCoverInstance) -> CoverSolution:
    """Greedy cover: maximum uncovered gain, ties broken by lowest index.

    Always returns a cover; its size is within a factor (1 + ln|U|) of
    the optimum.
    """
    return _greedy_cover(_incidence(instance))


def _greedy_cover(incidence: np.ndarray) -> CoverSolution:
    """``solve_greedy`` on a sets x elements boolean incidence."""
    if not incidence.shape[1]:
        return CoverSolution(frozenset(), exact=False)
    chosen = _greedy_masks((1 << incidence.shape[1]) - 1, _row_masks(incidence))
    return CoverSolution(frozenset(i + 1 for i in chosen), exact=False)
