"""Zero/nonzero patterns and the operations defined on them.

A structural vector or matrix records only which entries are nonzero.
Patterns are rendered as strings over '0' and '*' ("0***0") in CLI
output and golden files. Positions are 1-based in all public indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptySupport, IndexOutOfRange
from .tolerances import DEFAULT_ZERO_TOL

_STAR = "*"
_ZERO = "0"


@dataclass(frozen=True)
class StructuralVector:
    """Pattern over {0, *}; ``mask[i]`` is True where entry i+1 is nonzero."""

    mask: tuple[bool, ...]

    def __post_init__(self):
        if len(self.mask) == 0:
            raise ValueError("structural vector must have positive length")
        object.__setattr__(self, "mask", tuple(map(bool, self.mask)))

    @classmethod
    def from_text(cls, text: str) -> "StructuralVector":
        bad = set(text) - {_STAR, _ZERO}
        if bad:
            raise ValueError(f"pattern text may contain only '0' and '*', got {bad}")
        return cls(tuple(c == _STAR for c in text))

    @classmethod
    def from_support(cls, support: Iterable[int], n: int) -> "StructuralVector":
        """Pattern of length n with stars at the given 1-based positions."""
        mask = [False] * n
        for i in support:
            if not 1 <= i <= n:
                raise IndexOutOfRange(f"position {i} outside 1..{n}")
            mask[i - 1] = True
        return cls(tuple(mask))

    def __len__(self) -> int:
        return len(self.mask)

    def __str__(self) -> str:
        return "".join(_STAR if m else _ZERO for m in self.mask)

    @property
    def nnz(self) -> int:
        return sum(self.mask)

    @property
    def support(self) -> tuple[int, ...]:
        """1-based positions of the stars, ascending."""
        return tuple(i + 1 for i, m in enumerate(self.mask) if m)


@dataclass(frozen=True)
class StructuralMatrix:
    """Row-major pattern over {0, *} for a rows x cols matrix."""

    rows: int
    cols: int
    mask: tuple[bool, ...]

    def __post_init__(self):
        if len(self.mask) != self.rows * self.cols:
            raise DimensionMismatch(
                f"pattern length {len(self.mask)} != {self.rows}x{self.cols}"
            )
        object.__setattr__(self, "mask", tuple(map(bool, self.mask)))

    @classmethod
    def from_numeric(cls, A, zero_tol: float = DEFAULT_ZERO_TOL) -> "StructuralMatrix":
        A = np.asarray(A)
        if A.ndim != 2 or A.size == 0:
            raise DimensionMismatch("expected a nonempty 2-d array")
        if not np.all(np.isfinite(A.view(float) if np.iscomplexobj(A) else A)):
            raise ValueError("matrix entries must be finite")
        mags = np.abs(A)
        peak = mags.max(initial=0.0)
        mask = (mags > zero_tol * peak) if peak > 0 else np.zeros_like(mags, bool)
        # tolist() already yields Python bools: skip the per-entry
        # normalization in __post_init__.
        pattern = object.__new__(cls)
        pattern.__dict__.update(
            rows=A.shape[0], cols=A.shape[1], mask=tuple(mask.ravel().tolist())
        )
        return pattern

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "StructuralMatrix":
        vecs = [StructuralVector.from_text(r) for r in rows]
        if len({len(v) for v in vecs}) > 1:
            raise DimensionMismatch("rows have differing lengths")
        return cls(len(vecs), len(vecs[0]), tuple(m for v in vecs for m in v.mask))

    def entry(self, i: int, j: int) -> bool:
        """True iff position (i, j) is a star; indices are 1-based."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise DimensionMismatch(f"({i},{j}) outside {self.rows}x{self.cols}")
        return self.mask[(i - 1) * self.cols + (j - 1)]

    def row(self, i: int) -> StructuralVector:
        start = (i - 1) * self.cols
        return StructuralVector(self.mask[start : start + self.cols])

    @property
    def diagonal(self) -> tuple[bool, ...]:
        k = min(self.rows, self.cols)
        return tuple(self.mask[i * self.cols + i] for i in range(k))

    @cached_property
    def stars(self) -> tuple[tuple[int, int], ...]:
        """1-based (row, col) positions of the stars, in row-major order."""
        flat = np.flatnonzero(np.frombuffer(bytearray(self.mask), dtype=bool))
        rows, cols = np.divmod(flat, self.cols)
        return tuple(zip((rows + 1).tolist(), (cols + 1).tolist()))

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(1, self.rows + 1))


def structural_pattern(v, zero_tol: float = DEFAULT_ZERO_TOL) -> StructuralVector:
    """Extract the zero/nonzero pattern of a numerical vector.

    Entry i is a star iff |v_i| > zero_tol * max_j |v_j|: the threshold is
    relative, so the pattern is invariant under rescaling of v. Entries
    genuinely below the eigensolver's accuracy cannot be told apart from
    zeros; callers that need a different cut pass their own zero_tol.
    """
    v = np.asarray(v)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatch("expected a nonempty 1-d vector")
    if not np.all(np.isfinite(v.view(float) if np.iscomplexobj(v) else v)):
        raise ValueError("vector entries must be finite")
    return StructuralVector(tuple(_nonzero_mask(v, zero_tol).tolist()))


def _nonzero_mask(V, zero_tol: float) -> np.ndarray:
    """Boolean stars of a vector, or of each row of a 2-d stack of vectors.

    The rule of ``structural_pattern``: |v_i| > zero_tol * max_j |v_j|,
    which leaves an all-zero vector with no star.
    """
    if zero_tol < 0:
        raise ValueError("zero_tol must be nonnegative")
    mags = np.abs(V)
    return mags > zero_tol * mags.max(axis=-1, keepdims=mags.ndim > 1)


def structural_inner(v: StructuralVector, w: StructuralVector) -> bool:
    """True (star) iff some position is a star in both patterns."""
    if len(v) != len(w):
        raise DimensionMismatch(f"lengths differ: {len(v)} vs {len(w)}")
    return any(a and b for a, b in zip(v.mask, w.mask))


def structural_geq(v: StructuralVector, w: StructuralVector) -> bool:
    """True iff every star of w is also a star of v."""
    if len(v) != len(w):
        raise DimensionMismatch(f"lengths differ: {len(v)} vs {len(w)}")
    return all(a or not b for a, b in zip(v.mask, w.mask))


def restrict(v, pattern: StructuralVector) -> np.ndarray:
    """Subvector of v at the pattern's star positions, order preserved."""
    v = np.asarray(v)
    if v.ndim != 1 or v.size != len(pattern):
        raise DimensionMismatch(f"vector length {v.size} != pattern length {len(pattern)}")
    if pattern.nnz == 0:
        raise EmptySupport("pattern has no star positions")
    return v[np.asarray(pattern.mask, dtype=bool)]
