import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mincontrol import (
    DimensionMismatch,
    IndexOutOfRange,
    StructuralMatrix,
    StructuralVector,
    solve_mscp,
    structural_geq,
    structural_pattern,
)
from mincontrol.structure import _BLOCK_BYTES, _nonzero_mask, _pattern_lines

patterns = st.integers(1, 8).flatmap(
    lambda n: st.tuples(*([st.booleans()] * n)).map(StructuralVector)
)


def paired_patterns(n_max=8):
    return st.integers(1, n_max).flatmap(
        lambda n: st.tuples(
            st.tuples(*([st.booleans()] * n)).map(StructuralVector),
            st.tuples(*([st.booleans()] * n)).map(StructuralVector),
        )
    )


class TestStructuralPattern:
    def test_worked_eigenvector(self):
        assert str(structural_pattern([1.0, 1.0, 0.0, 0.0, 1.0])) == "**00*"

    def test_all_zero(self):
        assert str(structural_pattern([0.0, 0.0, 0.0])) == "000"

    def test_threshold_cut(self):
        assert str(structural_pattern([1.0, 1e-12, 2.0], zero_tol=1e-9)) == "*0*"

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        v = rng.normal(size=6) * (rng.uniform(size=6) > 0.3)
        base = structural_pattern(v)
        for alpha in (2.0, -3.5, 1e8, 1e-8, 1j, 0.5 - 2j):
            assert structural_pattern(alpha * v) == base

    def test_zero_tol_zero_keeps_exact_nonzeros(self):
        assert str(structural_pattern([1.0, 1e-300, 0.0], zero_tol=0.0)) == "**0"

    def test_rejects_nonfinite(self):
        for v in ([np.inf, 1.0], [1.0, complex(0.0, np.nan)]):
            with pytest.raises(ValueError, match="vector entries must be finite"):
                structural_pattern(v)

    @pytest.mark.parametrize("v", [[], [[1.0, 0.0]], 1.0])
    def test_rejects_a_non_vector(self, v):
        with pytest.raises(DimensionMismatch, match="expected a nonempty vector"):
            structural_pattern(v)

    @pytest.mark.parametrize("zero_tol", [-1e-9, np.nan, np.inf])
    def test_zero_tol_must_be_nonnegative_and_finite(self, zero_tol):
        with pytest.raises(ValueError, match="zero_tol must be nonnegative and finite"):
            structural_pattern([1.0, 0.0], zero_tol)

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_most_negative_integer_is_a_star(self, dtype):
        # In its own type, |min| is min: negative, so never above the cut.
        low = np.iinfo(dtype).min
        assert str(structural_pattern(np.array([low, 0, low], dtype=dtype))) == "*0*"
        # 1 clears 1e-9 * 128 but not 1e-9 * 2**63.
        expected = "**" if dtype == np.int8 else "*0"
        assert str(structural_pattern(np.array([low, 1], dtype=dtype))) == expected

    def test_overflowing_modulus_is_a_star(self):
        # |z| of the first entry overflows to inf; its parts are finite.
        huge = complex(1.5e308, 1.5e308)
        assert str(structural_pattern([huge, 1e300, 1.0])) == "**0"
        assert str(structural_pattern([1.0, huge, 0.0], zero_tol=0.0)) == "**0"
        stacked = np.array([[huge, 1e300, 1.0], [1.0, 1e-12, 0.0]])
        assert _nonzero_mask(stacked, 1e-9).tolist() == [
            [True, True, False],
            [True, False, False],
        ]

    def test_pattern_lines_are_each_rows_text(self):
        mask = np.random.default_rng(3).random((6, 9)) < 0.4
        for incidence in (mask, mask.T, mask[:1], mask[:, :1]):
            lines = _pattern_lines(incidence)
            assert lines == [str(StructuralVector(row.tolist())) for row in incidence]
            assert "\n".join(lines) == str(StructuralMatrix(*incidence.shape, incidence.ravel().tolist()))


class TestStructuralGeq:
    def test_worked_dominance(self):
        assert structural_geq(
            StructuralVector.from_text("0***0"), StructuralVector.from_text("0*0*0")
        )

    def test_incomparable(self):
        assert not structural_geq(
            StructuralVector.from_text("*0"), StructuralVector.from_text("0*")
        )

    @given(patterns)
    def test_reflexive(self, v):
        assert structural_geq(v, v)

    @given(paired_patterns())
    def test_antisymmetric(self, pair):
        v, w = pair
        if structural_geq(v, w) and structural_geq(w, v):
            assert v == w

    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                *(
                    [st.tuples(*([st.booleans()] * n)).map(StructuralVector)]
                    * 3
                )
            )
        )
    )
    def test_transitive(self, triple):
        u, v, w = triple
        if structural_geq(u, v) and structural_geq(v, w):
            assert structural_geq(u, w)


@st.composite
def vectors_with_others(draw):
    """A tuple-of-bools reference and a second one: equal, the same
    length, or any length."""
    ref = tuple(draw(st.lists(st.booleans(), min_size=1, max_size=40)))
    same_length = st.lists(st.booleans(), min_size=len(ref), max_size=len(ref))
    any_length = st.lists(st.booleans(), min_size=1, max_size=40)
    other = draw(st.one_of(st.just(ref), same_length.map(tuple), any_length.map(tuple)))
    return ref, other


class TestVectorMatchesTupleReference:
    """A ``StructuralVector`` held as star positions answers every query as
    the tuple of bools it was built from does."""

    @given(vectors_with_others())
    def test_queries(self, refs):
        ref, other = refs
        v, w = StructuralVector(ref), StructuralVector(other)
        text = "".join("*" if b else "0" for b in ref)
        support = tuple(i + 1 for i, b in enumerate(ref) if b)
        assert str(v) == text
        assert v.support == support
        assert v.nnz == sum(ref)
        assert len(v) == len(ref)
        assert v.mask == ref
        assert all(type(m) is bool for m in v.mask)
        assert (v == w) is (ref == other)
        assert (v != w) is (ref != other)
        if ref == other:
            assert hash(v) == hash(w)
        if len(ref) == len(other):
            dominates = all(a or not b for a, b in zip(ref, other))
            assert structural_geq(v, w) is dominates
        else:
            with pytest.raises(DimensionMismatch):
                structural_geq(v, w)

    @given(vectors_with_others())
    def test_round_trips(self, refs):
        ref, _ = refs
        v = StructuralVector(ref)
        assert StructuralVector.from_text(str(v)) == v
        assert StructuralVector.from_support(v.support, len(v)) == v
        assert StructuralVector.from_support(reversed(v.support), len(v)) == v
        # Equal stars in another shape or class are another pattern.
        row = StructuralMatrix(1, len(ref), ref)
        assert v != row and row != v
        assert repr(v).startswith("<StructuralVector ")
        assert str(row.row(1)) == str(v)
        assert row.row(1) == v


class TestStructuralVectorType:
    def test_text_round_trip(self):
        for text in ("0***0", "*", "0", "**0*"):
            assert str(StructuralVector.from_text(text)) == text

    def test_bad_text(self):
        with pytest.raises(ValueError):
            StructuralVector.from_text("0*x")

    def test_support_and_nnz(self):
        v = StructuralVector.from_text("0*0*0")
        assert v.support == (2, 4)
        assert v.nnz == 2

    def test_from_support(self):
        assert str(StructuralVector.from_support([2, 4], 5)) == "0*0*0"
        for position in (0, 6):
            with pytest.raises(IndexOutOfRange):
                StructuralVector.from_support([2, position], 5)
        for position in (1.5, "2"):
            with pytest.raises(TypeError):
                StructuralVector.from_support([position], 5)

    def test_empty_length_rejected(self):
        with pytest.raises(ValueError):
            StructuralVector(())
        with pytest.raises(DimensionMismatch):
            StructuralVector.from_support([], 0)


class TestStructuralMatrixType:
    def test_from_numeric(self, golden_a):
        pattern = StructuralMatrix.from_numeric(golden_a)
        assert str(pattern.row(2)) == "0*000"
        assert str(pattern.row(4)) == "000*0"
        assert pattern.diagonal == (True,) * 5

    def test_from_rows(self):
        m = StructuralMatrix.from_rows(["*0", "0*"])
        assert m.entry(1, 1) and m.entry(2, 2)
        assert not m.entry(1, 2)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            StructuralMatrix(2, 2, (True, False, True))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: StructuralMatrix(-1, -1, [1]),
            lambda: StructuralMatrix(0, 0, ()),
            lambda: StructuralMatrix(0, 3, ()),
            lambda: StructuralMatrix.from_rows([]),
        ],
    )
    def test_degenerate_shapes_rejected(self, build):
        with pytest.raises(DimensionMismatch):
            build()

    @pytest.mark.parametrize("dtype", [np.int8, np.int64])
    def test_most_negative_integer_is_a_star(self, dtype):
        low = np.iinfo(dtype).min
        A = np.array([[low, 0], [0, low]], dtype=dtype)
        pattern = StructuralMatrix.from_numeric(A)
        assert pattern.stars == ((1, 1), (2, 2))
        assert str(solve_mscp(pattern)) == "**"
        A[0, 1] = 1
        assert StructuralMatrix.from_numeric(A).stars == (
            ((1, 1), (1, 2), (2, 2)) if dtype == np.int8 else ((1, 1), (2, 2))
        )

    def test_stars_of_nonsquare_pattern(self):
        rows = ["0*0", "*0*"]
        expected = ((1, 2), (2, 1), (2, 3))
        assert StructuralMatrix.from_rows(rows).stars == expected
        numeric = StructuralMatrix.from_numeric([[0.0, 2.0, 0.0], [1.0, 0.0, -1.0]])
        assert numeric == StructuralMatrix.from_rows(rows)
        assert numeric.stars == expected
        assert StructuralMatrix(2, 3, (False,) * 6).stars == ()

    def test_row_outside_range(self):
        m = StructuralMatrix.from_rows(["*0", "0*", "**"])
        assert [str(m.row(i)) for i in (1, 2, 3)] == ["*0", "0*", "**"]
        for i in (-1, 0, 4):
            with pytest.raises(IndexOutOfRange):
                m.row(i)


def _reference_views(mask):
    """Every public view of a 2-d bool mask, computed entry by entry."""
    rows, cols = mask.shape
    return {
        "mask": tuple(bool(mask[i, j]) for i in range(rows) for j in range(cols)),
        "stars": tuple(
            (i + 1, j + 1) for i in range(rows) for j in range(cols) if mask[i, j]
        ),
        "diagonal": tuple(bool(mask[i, i]) for i in range(min(rows, cols))),
        "entries": {
            (i + 1, j + 1): bool(mask[i, j]) for i in range(rows) for j in range(cols)
        },
        "rows": tuple(
            "".join("*" if m else "0" for m in mask[i]) for i in range(rows)
        ),
    }


class TestStarsFirstRepresentation:
    """Every way of building a pattern gives the same public views.

    The stars are what a pattern stores; ``mask`` is derived on request.
    """

    NUMERIC = {
        "3x5": np.array(
            [
                [1.0, 0.0, -2.0, 0.0, 0.0],
                [0.0, 3.0, 0.0, 0.0, 1e-12],
                [0.0, 0.0, 0.5, 0.0, 4.0],
            ]
        ),
        "5x3": np.array(
            [
                [0.0, 1.0, 0.0],
                [2.0, 0.0, 0.0],
                [0.0, 0.0, 0.0],
                [0.0, -1.0, 7.0],
                [1e-15, 0.0, 3.0],
            ]
        ),
        "1x1": np.array([[-2.5]]),
        "1x1 zero": np.array([[0.0]]),
        "all zero": np.zeros((4, 4)),
        "complex signed zeros": np.array(
            [
                [complex(-0.0, 0.0), complex(0.0, -1.0), complex(-0.0, -0.0)],
                [complex(2.0, -0.0), complex(-0.0, -0.0), complex(0.0, 1e-13)],
                [complex(-0.0, 3.0), complex(1.0, 1.0), complex(-1.0, -0.0)],
            ]
        ),
    }

    @pytest.mark.parametrize("name", sorted(NUMERIC))
    def test_constructors_agree(self, name):
        A = self.NUMERIC[name]
        mags = np.abs(A)
        mask = mags > 1e-9 * mags.max()
        rows, cols = mask.shape
        expected = _reference_views(mask)
        variants = [
            StructuralMatrix.from_numeric(A, zero_tol=1e-9),
            StructuralMatrix(rows, cols, expected["mask"]),
            StructuralMatrix(rows, cols, mask.ravel()),
            StructuralMatrix(rows, cols, tuple(mask.astype(int).ravel().tolist())),
            StructuralMatrix.from_rows(expected["rows"]),
        ]
        for pattern in variants:
            assert (pattern.rows, pattern.cols) == (rows, cols)
            assert pattern.stars == expected["stars"]
            assert pattern.diagonal == expected["diagonal"]
            assert all(type(d) is bool for d in pattern.diagonal)
            for (i, j), value in expected["entries"].items():
                assert pattern.entry(i, j) is value
            assert tuple(str(pattern.row(i)) for i in range(1, rows + 1)) == expected[
                "rows"
            ]
            assert str(pattern) == "\n".join(expected["rows"])
            assert pattern.mask == expected["mask"]
            assert all(type(m) is bool for m in pattern.mask)
            assert pattern == variants[0]
            assert hash(pattern) == hash(variants[0])

    def test_equality_needs_equal_shape_and_stars(self):
        base = StructuralMatrix.from_rows(["*0", "0*"])
        assert base != StructuralMatrix.from_rows(["*0", "00"])
        assert base != StructuralMatrix.from_rows(["*00", "0*0"])
        assert StructuralMatrix(1, 2, (False, False)) != StructuralMatrix(
            2, 1, (False, False)
        )
        assert StructuralMatrix.from_rows(["*0"]) != StructuralMatrix.from_rows(["*00"])
        assert len({base, StructuralMatrix.from_numeric(np.eye(2))}) == 1

    def test_entry_outside_range(self):
        m = StructuralMatrix.from_rows(["*0*", "0*0"])
        for i, j in ((0, 1), (3, 1), (1, 0), (1, 4)):
            with pytest.raises(DimensionMismatch):
                m.entry(i, j)

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, complex(np.nan, 0.0), complex(0.0, -np.inf)]
    )
    def test_nonfinite_rejected(self, bad):
        A = np.array([[1.0, 0.0], [bad, 2.0]])
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            StructuralMatrix.from_numeric(A)

    def test_finite_complex_with_overflowing_modulus_is_not_rejected(self):
        # |z| overflows to inf although both parts are finite.
        A = np.array([[complex(1.5e308, 1.5e308), 1.0], [0.0, 3.0]])
        StructuralMatrix.from_numeric(A)

    def test_overflowing_modulus_is_thresholded_after_scaling(self):
        huge = complex(1.5e308, 1.5e308)
        A = np.array([[huge, 1.0], [0.0, 3.0]])
        assert StructuralMatrix.from_numeric(A).stars == ((1, 1),)
        A = np.array([[huge, 1e300], [0.0, 1e300]])
        assert StructuralMatrix.from_numeric(A).stars == ((1, 1), (1, 2), (2, 2))

    def test_is_immutable(self):
        m = StructuralMatrix.from_rows(["*0", "0*"])
        with pytest.raises(AttributeError):
            m.rows = 3
        for pattern in (m, StructuralMatrix.from_numeric(np.eye(2))):
            with pytest.raises(ValueError):
                pattern.positions[0] = 1


def _whole_array_stars(A, zero_tol=1e-9):
    """Star positions by the threshold rule applied to all of A at once."""
    A = np.asarray(A)
    mags = np.abs(A.astype(np.float64) if A.dtype.kind in "biu" else A)
    peak = mags.max()
    if not np.isfinite(peak):
        largest = max(np.abs(A.real).max(), np.abs(A.imag).max())
        if np.isfinite(largest):
            mags = np.abs(A / largest)
            peak = mags.max()
    if not np.isfinite(peak):
        raise ValueError("matrix entries must be finite")
    return np.flatnonzero(mags > zero_tol * peak)


class TestBlockwiseThreshold:
    """``from_numeric`` reads A in blocks; it must agree with the whole-array rule.

    Each matrix spans several blocks, and the interesting entries sit on
    block edges or in a late block.
    """

    N = 150  # 22,500 entries: two to six blocks, by dtype

    @staticmethod
    def block_edges(A):
        magnitude_size = A.real.itemsize if A.dtype.kind in "fc" else 8
        step = _BLOCK_BYTES // max(A.itemsize, magnitude_size)
        edges = np.arange(step, A.size, step)
        return np.unique(np.concatenate([[0, A.size - 1], edges - 1, edges]))

    def check(self, A, zero_tol=1e-9):
        expected = _whole_array_stars(A, zero_tol)
        strided = np.zeros((A.shape[0], 2 * A.shape[1]), dtype=A.dtype)[:, ::2]
        strided[...] = A
        for variant in (A, np.asfortranarray(A), strided):
            pattern = StructuralMatrix.from_numeric(variant, zero_tol)
            assert pattern.positions.tolist() == expected.tolist()
        return expected

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.complex128, np.int8])
    def test_stars_on_block_edges(self, dtype):
        A = np.zeros((self.N, self.N), dtype=dtype)
        edges = self.block_edges(A)
        A.flat[edges] = 3
        if A.dtype.kind in "fc":  # entries below the cut beside the edges
            A.flat[edges[edges < A.size - 2] + 2] = 1e-12
        stars = self.check(A)
        assert stars.tolist() == edges.tolist()

    def test_peak_in_the_last_block(self):
        rng = np.random.default_rng(3)
        A = rng.uniform(-1.0, 1.0, (self.N, self.N)) * 1e-8
        A[-1, -1] = -2.0  # peak in the last entry: most of A is below the cut
        assert self.check(A).size < A.size

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, -1, "edge"])
    def test_nonfinite_in_any_block_raises(self, bad, where):
        A = np.eye(self.N)
        k = self.block_edges(A)[2] if where == "edge" else where
        A.flat[k] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            StructuralMatrix.from_numeric(A)
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            StructuralMatrix.from_numeric(A.astype(complex))

    def test_overflowing_modulus_in_a_later_block(self):
        A = np.eye(self.N, dtype=complex) * 1e300
        A.flat[self.block_edges(A)[-2]] = complex(1.5e308, -1.5e308)
        A[0, 1] = 1e290  # below the cut once A is scaled by its largest part
        stars = self.check(A)
        assert 1 not in stars.tolist()
        assert self.block_edges(A)[-2] in stars.tolist()

    def test_zero_tol_zero_keeps_every_nonzero(self):
        A = np.zeros((self.N, self.N))
        A.flat[self.block_edges(A)] = 5e-324  # subnormal, still nonzero
        A[self.N // 2, 0] = 1.0
        stars = self.check(A, zero_tol=0.0)
        assert stars.size == self.block_edges(A).size + 1

    def test_all_zero(self):
        A = np.zeros((self.N, self.N))
        assert self.check(A).size == 0
        assert StructuralMatrix.from_numeric(A).stars == ()
