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
from functools import cached_property
from typing import Iterable

import numpy as np

from .errors import TooLarge

#: Largest universe the exact solver accepts by default.
EXACT_UNIVERSE_LIMIT = 30


@dataclass(frozen=True, init=False, eq=False)
class SetCoverInstance:
    """An ordered family of subsets of the universe {1..m} whose union covers it.

    Held as ``incidence``, a read-only sets x elements boolean array, from
    which ``universe`` and ``sets`` are built when read.
    """

    incidence: np.ndarray

    def __init__(self, universe: Iterable[int], sets: Iterable[Iterable[int]]):
        universe, sets = frozenset(universe), [frozenset(s) for s in sets]
        if universe != frozenset(range(1, len(universe) + 1)):
            raise ValueError("the universe must be {1..m}")
        incidence = np.zeros((len(sets), len(universe)), dtype=bool)
        for k, (row, s) in enumerate(zip(incidence, sets), start=1):
            if not s <= universe:
                raise ValueError(f"set {k} is not a subset of the universe")
            row[np.fromiter(s, np.intp, len(s)) - 1] = True
        if not incidence.any(axis=0).all():
            raise ValueError("the family does not cover the universe")
        incidence.flags.writeable = False
        self.__dict__["incidence"] = incidence

    @classmethod
    def _of(cls, incidence: np.ndarray) -> "SetCoverInstance":
        """The instance of a read-only incidence whose every column has a star."""
        instance = object.__new__(cls)
        instance.__dict__["incidence"] = incidence
        return instance

    @cached_property
    def universe(self) -> frozenset[int]:
        return frozenset(range(1, self.incidence.shape[1] + 1))

    @cached_property
    def sets(self) -> tuple[frozenset[int], ...]:
        return tuple(map(frozenset, self.sorted_sets()))

    def sorted_sets(self) -> list[list[int]]:
        """Each set's elements in ascending order, sets in order."""
        rows, elements = np.nonzero(self.incidence)
        bounds = np.searchsorted(rows, np.arange(self.n_sets + 1)).tolist()
        elements = (elements + 1).tolist()
        return [elements[a:b] for a, b in zip(bounds, bounds[1:])]

    @property
    def n_sets(self) -> int:
        return self.incidence.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetCoverInstance):
            return NotImplemented
        return np.array_equal(self.incidence, other.incidence)

    def __hash__(self) -> int:
        return hash((self.incidence.shape, self.incidence.tobytes()))


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
    max_size = max((m.bit_count() for m in masks), default=0)
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
    incidence = instance.incidence
    if incidence.shape[1] > exact_limit:
        raise TooLarge(
            f"universe has {incidence.shape[1]} elements; exact solving is "
            f"limited to {exact_limit} (use the greedy solver instead)"
        )
    combo = _lex_smallest_cover(incidence)
    return CoverSolution(frozenset(i + 1 for i in combo), exact=True)


def solve_greedy(instance: SetCoverInstance) -> CoverSolution:
    """Greedy cover: maximum uncovered gain, ties broken by lowest index.

    Always returns a cover; its size is within a factor (1 + ln|U|) of
    the optimum.
    """
    incidence = instance.incidence
    chosen = _greedy_masks((1 << incidence.shape[1]) - 1, _row_masks(incidence))
    return CoverSolution(frozenset(i + 1 for i in chosen), exact=False)
