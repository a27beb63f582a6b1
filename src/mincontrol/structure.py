"""Zero/nonzero patterns and the operations defined on them.

A structural vector or matrix records only which entries are nonzero.
Patterns are rendered as strings over '0' and '*' ("0***0") in CLI
output and golden files. Positions are 1-based in all public indices.
"""
from __future__ import annotations

import operator
from functools import cached_property, reduce
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatch, IndexOutOfRange
from .numerics import _largest_part, as_vector
from .tolerances import DEFAULT_ZERO_TOL, check_tolerance

_STAR = "*"
_ZERO = "0"
#: Maps the bytes of a mask (0 or 1 per entry) to its text.
_TEXT = bytes.maketrans(b"\x00\x01", (_ZERO + _STAR).encode())


class _Pattern:
    """A pattern over {0, *} held once, as ``positions``: the ascending
    0-based row-major indices of its stars in one read-only integer
    array. ``mask`` and the text are built from it when read. Two
    patterns are equal exactly when their class, shape and stars are.
    """

    positions: np.ndarray

    def __init__(self, mask: Sequence[bool], **shape: int):
        flags = np.fromiter(map(bool, mask), dtype=bool, count=len(mask))
        self._set(np.flatnonzero(flags), **shape)

    def _set(self, positions: np.ndarray, **shape: int):
        dims = tuple(shape.values())
        if min(dims) < 1:
            raise DimensionMismatch(f"pattern shape {dims} is not positive")
        positions.flags.writeable = False
        self.__dict__.update(shape, positions=positions, _shape=dims)

    @classmethod
    def _of(cls, positions: np.ndarray, **shape: int):
        pattern = object.__new__(cls)
        pattern._set(positions, **shape)
        return pattern

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def nnz(self) -> int:
        return self.positions.size

    @cached_property
    def mask(self) -> tuple[bool, ...]:
        """Entries in row-major order as Python bools; True marks a star."""
        return tuple(self._flags().tolist())

    def _flags(self) -> np.ndarray:
        flags = np.zeros(prod(self._shape), dtype=bool)
        flags[self.positions] = True
        return flags

    def __str__(self) -> str:
        """One line of '0' and '*' per row."""
        return "\n".join(_pattern_lines(self._flags().reshape(-1, self._shape[-1])))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {str(self)!r}>"

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._shape == other._shape and np.array_equal(self.positions, other.positions)

    def __hash__(self) -> int:
        return hash((self._shape, self.positions.tobytes()))


class StructuralVector(_Pattern):
    """Pattern over {0, *} of length n; ``mask[i]`` is True where entry i+1 is nonzero."""

    n: int

    def __init__(self, mask: Sequence[bool]):
        super().__init__(mask, n=len(mask))

    @classmethod
    def from_text(cls, text: str) -> "StructuralVector":
        bad = set(text) - {_STAR, _ZERO}
        if bad:
            raise ValueError(f"pattern text may contain only '0' and '*', got {bad}")
        return cls([c == _STAR for c in text])

    @classmethod
    def from_support(cls, support: Iterable[int], n: int) -> "StructuralVector":
        """Pattern of length n with stars at the given 1-based positions."""
        positions = sorted(set(map(operator.index, support)))
        for i in positions[:1] + positions[-1:]:  # sorted: the ends bound the rest
            if not 1 <= i <= n:
                raise IndexOutOfRange(f"position {i} outside 1..{n}")
        return cls._of(np.array(positions, dtype=np.intp) - 1, n=n)

    def __len__(self) -> int:
        return self.n

    @property
    def support(self) -> tuple[int, ...]:
        """1-based positions of the stars, ascending."""
        return tuple((self.positions + 1).tolist())


#: Bytes per block in ``StructuralMatrix.from_numeric``: a block of A,
#: its magnitudes and every other per-block temporary fit in this much,
#: under glibc's default mmap threshold (128 KiB), so the one magnitude
#: buffer and each temporary come from the heap without page faults.
_BLOCK_BYTES = 64 * 1024


class StructuralMatrix(_Pattern):
    """Row-major pattern over {0, *} for a rows x cols matrix.

    ``positions`` takes O(nnz) memory; ``stars`` (1-based pairs) and
    ``mask`` (the rows * cols tuple of bools) are built only when read.
    """

    rows: int
    cols: int

    def __init__(self, rows: int, cols: int, mask: Sequence[bool]):
        if len(mask) != rows * cols:
            raise DimensionMismatch(f"pattern length {len(mask)} != {rows}x{cols}")
        super().__init__(mask, rows=rows, cols=cols)

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
        return cls._of(np.concatenate(hits), rows=A.shape[0], cols=A.shape[1])

    @classmethod
    def from_rows(cls, rows: Sequence[str]) -> "StructuralMatrix":
        if not rows:
            raise DimensionMismatch("a pattern needs at least one row")
        if len({len(r) for r in rows}) > 1:
            raise DimensionMismatch("rows have differing lengths")
        flat = StructuralVector.from_text("".join(rows))
        return cls._of(flat.positions, rows=len(rows), cols=len(rows[0]))

    @cached_property
    def stars(self) -> tuple[tuple[int, int], ...]:
        """1-based (row, col) positions of the stars, in row-major order."""
        i, j = np.divmod(self.positions, self.cols)
        return tuple(zip((i + 1).tolist(), (j + 1).tolist()))

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
        return StructuralVector._of(self.positions[lo:hi] - start, n=self.cols)

    @property
    def diagonal(self) -> tuple[bool, ...]:
        i, j = np.divmod(self.positions, self.cols)
        on = np.zeros(min(self.rows, self.cols), dtype=bool)
        on[i[i == j]] = True
        return tuple(on.tolist())


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
    return _patterns(_nonzero_mask(as_vector(v)[None], zero_tol))[0]


def _nonzero_mask(V, zero_tol: float) -> np.ndarray:
    """Boolean stars of a vector, or of each row of a 2-d stack of vectors.

    The rule of ``structural_pattern``: |v_i| > zero_tol * max_j |v_j|,
    which leaves an all-zero vector with no star. A stack is thresholded
    in one pass: row j is the pattern of vector j and column i marks the
    vectors nonzero at position i, which is set i of the cover instance.
    Callers pass finite vectors (``numerics.as_vector`` or a basis).
    """
    check_tolerance("zero_tol", zero_tol, zero_ok=True)
    mags, peak = _magnitudes(V)
    return mags > zero_tol * peak


def _patterns(incidence: np.ndarray) -> tuple[StructuralVector, ...]:
    """One ``StructuralVector`` per row of a boolean incidence."""
    n = incidence.shape[1]
    return tuple(StructuralVector._of(np.flatnonzero(row), n=n) for row in incidence)


def _pattern_lines(incidence: np.ndarray) -> list[str]:
    """Each row of a boolean incidence as pattern text, one '0' or '*' per entry."""
    text = incidence.tobytes().translate(_TEXT).decode()
    width = incidence.shape[1]
    return [text[k : k + width] for k in range(0, len(text), width)]


def _magnitudes(V) -> tuple[np.ndarray, np.ndarray]:
    """|V| and its peak along the last axis (kept as a length-1 axis).

    |z| of a complex entry overflows to inf when its parts are finite
    but large. Only a vector whose peak is not finite is measured after
    scaling by its largest part, so every other magnitude is |V| to the
    bit. V must be finite.
    """
    mags = _abs(V)
    peak = mags.max(axis=-1, keepdims=True)
    if np.isfinite(peak).all():
        return mags, peak
    rows, row_mags, row_peaks = (
        X.reshape(-1, X.shape[-1]) for X in (np.asarray(V), mags, peak)
    )
    for i in np.flatnonzero(~np.isfinite(row_peaks[:, 0])):
        row_mags[i] = np.abs(rows[i] / _largest_part(rows[i]))
        row_peaks[i] = row_mags[i].max()
    return mags, peak


def _abs(V: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """|V| entry by entry; integers and bools are measured in float64.

    In its own type, the most negative value of a signed integer is its
    own absolute value, so it would read as negative and never as a star.
    """
    return np.abs(V, out=out, dtype=np.float64 if V.dtype.kind in "biu" else None)


def structural_geq(v: StructuralVector, w: StructuralVector) -> bool:
    """True iff every star of w is also a star of v."""
    if len(v) != len(w):
        raise DimensionMismatch(f"lengths differ: {len(v)} vs {len(w)}")
    return bool(np.isin(w.positions, v.positions, assume_unique=True).all())
