import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mincontrol import (
    DimensionMismatch,
    EmptySupport,
    IndexOutOfRange,
    StructuralMatrix,
    StructuralVector,
    restrict,
    structural_geq,
    structural_inner,
    structural_pattern,
)

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
        with pytest.raises(ValueError):
            structural_pattern([np.inf, 1.0])


class TestStructuralInner:
    def test_worked_overlap(self):
        v2 = StructuralVector.from_text("00*0*")
        b = StructuralVector.from_text("0***0")
        assert structural_inner(v2, b)

    def test_disjoint(self):
        assert not structural_inner(
            StructuralVector.from_text("*0"), StructuralVector.from_text("0*")
        )

    def test_worked_singleton(self):
        v3 = StructuralVector.from_text("000*0")
        b = StructuralVector.from_text("0***0")
        assert structural_inner(v3, b)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            structural_inner(
                StructuralVector.from_text("*0"), StructuralVector.from_text("*00")
            )

    @given(paired_patterns())
    def test_symmetric(self, pair):
        v, w = pair
        assert structural_inner(v, w) == structural_inner(w, v)


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


class TestRestrict:
    def test_worked_example(self):
        out = restrict(
            np.array([1.0, 1.0, 0.0, 0.0, 1.0]), StructuralVector.from_text("0***0")
        )
        np.testing.assert_array_equal(out, [1.0, 0.0, 0.0])

    def test_full_support_is_identity(self):
        v = np.array([3.0, -1.0, 2.5])
        np.testing.assert_array_equal(restrict(v, StructuralVector.from_text("***")), v)

    def test_single_position(self):
        np.testing.assert_array_equal(
            restrict(np.array([7.0, 8.0, 9.0]), StructuralVector.from_text("00*")),
            [9.0],
        )

    def test_empty_support(self):
        with pytest.raises(EmptySupport):
            restrict(np.array([1.0, 2.0]), StructuralVector.from_text("00"))

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            restrict(np.array([1.0, 2.0]), StructuralVector.from_text("*00"))

    @given(paired_patterns(6))
    def test_support_bound(self, pair):
        pattern, value_pattern = pair
        if pattern.nnz == 0:
            return
        v = np.array([1.0 if m else 0.0 for m in value_pattern.mask])
        out = restrict(v, pattern)
        nnz_out = int(np.count_nonzero(out))
        assert nnz_out <= pattern.nnz
        dense_everywhere = all(
            value_pattern.mask[i] for i in range(len(pattern)) if pattern.mask[i]
        )
        assert (nnz_out == pattern.nnz) == dense_everywhere


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

    def test_empty_length_rejected(self):
        with pytest.raises(ValueError):
            StructuralVector(())


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

    def test_stars_of_nonsquare_pattern(self):
        rows = ["0*0", "*0*"]
        expected = ((1, 2), (2, 1), (2, 3))
        assert StructuralMatrix.from_rows(rows).stars == expected
        numeric = StructuralMatrix.from_numeric([[0.0, 2.0, 0.0], [1.0, 0.0, -1.0]])
        assert numeric == StructuralMatrix.from_rows(rows)
        assert numeric.stars == expected
        assert StructuralMatrix(2, 3, (False,) * 6).stars == ()
