"""Zero/nonzero patterns and the operations defined on them.

A structural vector or matrix records only which entries are nonzero.
Patterns are rendered as strings over '0' and '*' ("0***0") in CLI
output and golden files. Positions are 1-based in all public indices.
"""
from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .tolerances import DEFAULT_ZERO_TOL, check_tolerance

_STAR = "*"
_ZERO = "0"
#: Maps the bytes of a mask (0 or 1 per entry) to its text.
_TEXT = bytes.maketrans(b"\x00\x01", (_ZERO + _STAR).encode())


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
        return bytes(self.mask).translate(_TEXT).decode()

    @property
    def nnz(self) -> int:
        return sum(self.mask)

    @property
    def support(self) -> tuple[int, ...]:
        """1-based positions of the stars, ascending."""
        return tuple(i + 1 for i, m in enumerate(self.mask) if m)


@dataclass(frozen=True, init=False)
class StructuralMatrix:
    """Row-major pattern over {0, *} for a rows x cols matrix.

    The pattern is held as its stars, so it takes O(rows + nnz) memory;
    ``mask``, the rows * cols tuple of bools, is built only when read.
    Two patterns are equal exactly when rows, cols and mask are.
    """

    rows: int
    cols: int
    stars: tuple[tuple[int, int], ...]
    """1-based (row, col) positions of the stars, in row-major order."""

    def __init__(self, rows: int, cols: int, mask: Sequence[bool]):
        if len(mask) != rows * cols:
            raise DimensionMismatch(f"pattern length {len(mask)} != {rows}x{cols}")
        mask = tuple(map(bool, mask))
        self.__dict__.update(
            rows=rows,
            cols=cols,
            stars=_stars(np.flatnonzero(np.array(mask, dtype=bool)), cols),
            mask=mask,
        )

    @classmethod
    def from_numeric(cls, A, zero_tol: float = DEFAULT_ZERO_TOL) -> "StructuralMatrix":
        A = np.asarray(A)
        if A.ndim != 2 or A.size == 0:
            raise DimensionMismatch("expected a nonempty 2-d array")
        check_tolerance("zero_tol", zero_tol, zero_ok=True)
        mags, peak = _magnitudes(A.ravel())
        if not np.isfinite(peak).all():
            raise ValueError("matrix entries must be finite")
        pattern = object.__new__(cls)
        pattern.__dict__.update(
            rows=A.shape[0],
            cols=A.shape[1],
            stars=_stars(np.flatnonzero(mags > zero_tol * peak), A.shape[1]),
        )
        return pattern

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "StructuralMatrix":
        vecs = [StructuralVector.from_text(r) for r in rows]
        if len({len(v) for v in vecs}) > 1:
            raise DimensionMismatch("rows have differing lengths")
        return cls(len(vecs), len(vecs[0]), tuple(m for v in vecs for m in v.mask))

    @cached_property
    def mask(self) -> tuple[bool, ...]:
        """Row-major pattern as rows * cols Python bools; True marks a star."""
        mask = [False] * (self.rows * self.cols)
        for i, j in self.stars:
            mask[(i - 1) * self.cols + (j - 1)] = True
        return tuple(mask)

    def entry(self, i: int, j: int) -> bool:
        """True iff position (i, j) is a star; indices are 1-based."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise DimensionMismatch(f"({i},{j}) outside {self.rows}x{self.cols}")
        k = bisect_left(self.stars, (i, j))
        return k < len(self.stars) and self.stars[k] == (i, j)

    def row(self, i: int) -> StructuralVector:
        """Pattern of row i (1-based)."""
        if not 1 <= i <= self.rows:
            raise IndexOutOfRange(f"row {i} outside 1..{self.rows}")
        lo = bisect_left(self.stars, (i, 0))
        hi = bisect_left(self.stars, (i + 1, 0), lo)
        return StructuralVector.from_support((j for _, j in self.stars[lo:hi]), self.cols)

    @property
    def diagonal(self) -> tuple[bool, ...]:
        on = {i for i, j in self.stars if i == j}
        return tuple(i in on for i in range(1, min(self.rows, self.cols) + 1))

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(1, self.rows + 1))


def _stars(flat: np.ndarray, cols: int) -> tuple[tuple[int, int], ...]:
    """1-based (row, col) pairs of ascending row-major star positions."""
    i, j = np.divmod(flat, cols)
    return tuple(zip((i + 1).tolist(), (j + 1).tolist()))


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
    return _patterns(_nonzero_mask(v[None], zero_tol))[0]


def _nonzero_mask(V, zero_tol: float) -> np.ndarray:
    """Boolean stars of a vector, or of each row of a 2-d stack of vectors.

    The rule of ``structural_pattern``: |v_i| > zero_tol * max_j |v_j|,
    which leaves an all-zero vector with no star. A stack is thresholded
    in one pass: row j is the pattern of vector j and column i marks the
    vectors nonzero at position i, which is set i of the cover instance.
    """
    if not np.isfinite(V).all():
        raise ValueError("vector entries must be finite")
    check_tolerance("zero_tol", zero_tol, zero_ok=True)
    mags, peak = _magnitudes(V)
    return mags > zero_tol * peak


def _patterns(incidence: np.ndarray) -> tuple[StructuralVector, ...]:
    """One ``StructuralVector`` per row of a boolean incidence."""
    return tuple(map(StructuralVector, incidence.tolist()))


def _magnitudes(V) -> tuple[np.ndarray, np.ndarray]:
    """|V| and its peak along the last axis (kept as a length-1 axis).

    |z| of a complex entry overflows to inf when its parts are finite
    but large. Only a vector whose peak is not finite, and whose parts
    are all finite, is measured after scaling by its largest part, so
    every other magnitude is |V| to the bit. A peak stays non-finite
    exactly when its vector holds a NaN or an infinite part.
    """
    mags = np.abs(V)
    peak = mags.max(axis=-1, keepdims=True)
    if np.isfinite(peak).all():
        return mags, peak
    rows, row_mags, row_peaks = (
        X.reshape(-1, X.shape[-1]) for X in (np.asarray(V), mags, peak)
    )
    for i in np.flatnonzero(~np.isfinite(row_peaks[:, 0])):
        largest = max(np.abs(rows[i].real).max(), np.abs(rows[i].imag).max())
        if np.isfinite(largest):
            row_mags[i] = np.abs(rows[i] / largest)
            row_peaks[i] = row_mags[i].max()
    return mags, peak


def structural_geq(v: StructuralVector, w: StructuralVector) -> bool:
    """True iff every star of w is also a star of v."""
    if len(v) != len(w):
        raise DimensionMismatch(f"lengths differ: {len(v)} vs {len(w)}")
    return all(a or not b for a, b in zip(v.mask, w.mask))
