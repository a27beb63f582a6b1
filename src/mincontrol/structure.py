"""Zero/nonzero patterns and the operations defined on them.

A structural vector or matrix records only which entries are nonzero.
Patterns are rendered as strings over '0' and '*' ("0***0") in CLI
output and golden files. Positions are 1-based in all public indices.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
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


#: Bytes per block in ``StructuralMatrix.from_numeric``: a block of A,
#: its magnitudes and every other per-block temporary fit in this much,
#: under glibc's default mmap threshold (128 KiB), so the one magnitude
#: buffer and each temporary come from the heap without page faults.
_BLOCK_BYTES = 64 * 1024


@dataclass(frozen=True, init=False, eq=False, repr=False)
class StructuralMatrix:
    """Row-major pattern over {0, *} for a rows x cols matrix.

    The pattern is held as ``positions``, the ascending 0-based
    row-major indices of its stars in one read-only integer array, so it
    takes O(rows + nnz) memory. ``stars`` (1-based pairs) and ``mask``
    (the rows * cols tuple of bools) are built only when read. Two
    patterns are equal exactly when their shapes and stars are.
    """

    rows: int
    cols: int
    positions: np.ndarray

    def __init__(self, rows: int, cols: int, mask: Sequence[bool]):
        if rows < 1 or cols < 1:
            raise DimensionMismatch(f"pattern shape {rows}x{cols} is not positive")
        if len(mask) != rows * cols:
            raise DimensionMismatch(f"pattern length {len(mask)} != {rows}x{cols}")
        flags = np.fromiter(map(bool, mask), dtype=bool, count=len(mask))
        self._set(rows, cols, np.flatnonzero(flags))

    def _set(self, rows: int, cols: int, positions: np.ndarray):
        positions.flags.writeable = False
        self.__dict__.update(rows=rows, cols=cols, positions=positions)

    @classmethod
    def from_numeric(cls, A, zero_tol: float = DEFAULT_ZERO_TOL) -> "StructuralMatrix":
        """Stars where |a| > zero_tol * max |a|, the rule of ``structural_pattern``.

        ``A`` is read in blocks of ``_BLOCK_BYTES``, once for the peak
        and once for the cut, through one reused magnitude buffer, so no
        temporary the size of ``A`` is made.
        """
        A = np.asarray(A)
        if A.ndim != 2 or A.size == 0:
            raise DimensionMismatch("expected a nonempty 2-d array")
        check_tolerance("zero_tol", zero_tol, zero_ok=True)
        # A view for a C-ordered array; otherwise flatiter slices copy one block.
        flat = A.reshape(-1) if A.flags.c_contiguous else A.flat
        dtype = _abs(flat[:1]).dtype
        step = _BLOCK_BYTES // max(A.itemsize, dtype.itemsize)
        buf = np.empty(min(A.size, step), dtype)
        scale = None
        peak = _block_peak(flat, A.size, buf)
        if not np.isfinite(peak):
            scale = reduce(
                np.maximum,
                (_largest_part(flat[k : k + step]) for k in range(0, A.size, step)),
            )
            if np.isfinite(scale):
                peak = _block_peak(flat, A.size, buf, scale)
        if not np.isfinite(peak):
            raise ValueError("matrix entries must be finite")
        cut = zero_tol * peak
        hits = [
            np.flatnonzero(mags > cut) + k
            for k, mags in _block_magnitudes(flat, A.size, buf, scale)
        ]
        pattern = object.__new__(cls)
        pattern._set(A.shape[0], A.shape[1], np.concatenate(hits))
        return pattern

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "StructuralMatrix":
        if not rows:
            raise DimensionMismatch("a pattern needs at least one row")
        vecs = [StructuralVector.from_text(r) for r in rows]
        if len({len(v) for v in vecs}) > 1:
            raise DimensionMismatch("rows have differing lengths")
        return cls(len(vecs), len(vecs[0]), tuple(m for v in vecs for m in v.mask))

    @cached_property
    def stars(self) -> tuple[tuple[int, int], ...]:
        """1-based (row, col) positions of the stars, in row-major order."""
        i, j = np.divmod(self.positions, self.cols)
        return tuple(zip((i + 1).tolist(), (j + 1).tolist()))

    @cached_property
    def mask(self) -> tuple[bool, ...]:
        """Row-major pattern as rows * cols Python bools; True marks a star."""
        mask = np.zeros(self.rows * self.cols, dtype=bool)
        mask[self.positions] = True
        return tuple(mask.tolist())

    def entry(self, i: int, j: int) -> bool:
        """True iff position (i, j) is a star; indices are 1-based."""
        if not (1 <= i <= self.rows and 1 <= j <= self.cols):
            raise DimensionMismatch(f"({i},{j}) outside {self.rows}x{self.cols}")
        flat = (i - 1) * self.cols + (j - 1)
        k = np.searchsorted(self.positions, flat)
        return bool(k < self.positions.size and self.positions[k] == flat)

    def row(self, i: int) -> StructuralVector:
        """Pattern of row i (1-based)."""
        if not 1 <= i <= self.rows:
            raise IndexOutOfRange(f"row {i} outside 1..{self.rows}")
        start = (i - 1) * self.cols
        lo, hi = np.searchsorted(self.positions, (start, start + self.cols))
        row = np.zeros(self.cols, dtype=bool)
        row[self.positions[lo:hi] - start] = True
        return StructuralVector(tuple(row.tolist()))

    @property
    def diagonal(self) -> tuple[bool, ...]:
        i, j = np.divmod(self.positions, self.cols)
        on = np.zeros(min(self.rows, self.cols), dtype=bool)
        on[i[i == j]] = True
        return tuple(on.tolist())

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructuralMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and np.array_equal(
            self.positions, other.positions
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.positions.tobytes()))

    def __repr__(self) -> str:
        return f"StructuralMatrix(rows={self.rows}, cols={self.cols}, stars={self.stars})"

    def __str__(self) -> str:
        return "\n".join(str(self.row(i)) for i in range(1, self.rows + 1))


def _block_magnitudes(flat, size: int, buf: np.ndarray, scale=None):
    """(start, |block|) for each ``len(buf)``-entry block of ``flat``.

    The magnitudes are written into ``buf``, so each is valid only until
    the next block is read. With ``scale``, each block is divided by it
    first, as ``_magnitudes`` rescales a vector with an overflowing modulus.
    """
    step = len(buf)
    for k in range(0, size, step):
        block = flat[k : k + step]
        if scale is not None:
            block = block / scale
        yield k, _abs(block, out=buf[: len(block)])


def _block_peak(flat, size: int, buf: np.ndarray, scale=None):
    """max |flat| over the blocks; NaN when any block holds a NaN."""
    return reduce(np.maximum, (m.max() for _, m in _block_magnitudes(flat, size, buf, scale)))


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
    mags = _abs(V)
    peak = mags.max(axis=-1, keepdims=True)
    if np.isfinite(peak).all():
        return mags, peak
    rows, row_mags, row_peaks = (
        X.reshape(-1, X.shape[-1]) for X in (np.asarray(V), mags, peak)
    )
    for i in np.flatnonzero(~np.isfinite(row_peaks[:, 0])):
        largest = _largest_part(rows[i])
        if np.isfinite(largest):
            row_mags[i] = np.abs(rows[i] / largest)
            row_peaks[i] = row_mags[i].max()
    return mags, peak


def _abs(V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|V| entry by entry; integers and bools are measured in float64.

    In its own type, the most negative value of a signed integer is its
    own absolute value, so it would read as negative and never as a star.
    """
    return np.abs(V, out=out, dtype=np.float64 if V.dtype.kind in "biu" else None)


def _largest_part(V: np.ndarray):
    """The largest |real| or |imag| part of V; NaN when a part is NaN."""
    return np.maximum(np.abs(V.real).max(), np.abs(V.imag).max())


def structural_geq(v: StructuralVector, w: StructuralVector) -> bool:
    """True iff every star of w is also a star of v."""
    if len(v) != len(w):
        raise DimensionMismatch(f"lengths differ: {len(v)} vs {len(w)}")
    return all(a or not b for a, b in zip(v.mask, w.mask))
