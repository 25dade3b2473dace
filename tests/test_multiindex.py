"""Index algebra, enumeration order, and the character profile."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdpair.multiindex import (
    IndexOutOfRange,
    MultiIndex,
    Shape,
    enumerate_box,
    format_multiindex,
    in_box,
    level_histogram,
    partial_sum,
    shape_profile,
)

from operator_oracle import add, sub, unit


class TestPartialSum:
    def test_full_range(self):
        assert partial_sum((2, 0, 3), 1, 3) == 5

    def test_empty_range_is_zero(self):
        assert partial_sum((2, 0, 3), 2, 1) == 0

    def test_suffix(self):
        assert partial_sum((2, 0, 3), 2, 3) == 3

    def test_bounds_checked(self):
        with pytest.raises(IndexOutOfRange):
            partial_sum((2, 0, 3), 0, 2)
        with pytest.raises(IndexOutOfRange):
            partial_sum((2, 0, 3), 1, 4)

    def test_degenerate_empty_range_with_j_above_n(self):
        # j > k with j > N is still the empty-sum convention as long as k <= N
        assert partial_sum((2, 0, 3), 4, 3) == 0


class TestEnumeration:
    def test_single_coordinate(self):
        assert enumerate_box(Shape((1,))) == [(0,), (1,)]

    def test_graded_then_lexicographic(self):
        assert enumerate_box(Shape((1, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_length_three(self):
        assert enumerate_box(Shape((2,))) == [(0,), (1,), (2,)]

    def test_count_matches_dimension(self):
        shape = Shape((2, 1, 3))
        assert len(enumerate_box(shape)) == shape.dimension == 3 * 2 * 4

    def test_weights_ascend(self):
        order = enumerate_box(Shape((2, 2, 1)))
        weights = [m.weight for m in order]
        assert weights == sorted(weights)


class TestShapeProfile:
    def test_two_ones(self):
        assert shape_profile(Shape((1, 1))) == (1, 2, 1)

    def test_single_row_is_all_ones(self):
        for ell in range(1, 6):
            assert shape_profile(Shape((ell,))) == tuple([1] * (ell + 1))

    def test_two_one(self):
        assert shape_profile(Shape((2, 1))) == (1, 2, 2, 1)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_sums_to_dimension(self, ell):
        shape = Shape(ell)
        assert sum(shape_profile(shape)) == shape.dimension

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_palindromic(self, ell):
        prof = shape_profile(Shape(ell))
        assert prof == prof[::-1]

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_two_routes_agree(self, ell):
        shape = Shape(ell)
        assert shape_profile(shape) == level_histogram(shape)


class TestTupleAlgebra:
    # unit, add and sub are the test oracles' own stepping helpers; in_box is
    # the package's
    def test_unit(self):
        assert unit(2, 3) == (0, 1, 0)
        with pytest.raises(IndexOutOfRange):
            unit(4, 3)

    def test_add_sub(self):
        assert add((1, 2), (0, 1)) == (1, 3)
        assert sub((1, 2), (0, 3)) == (1, -1)

    def test_in_box(self):
        shape = Shape((2, 1))
        assert in_box((2, 1), shape)
        assert not in_box((3, 0), shape)
        assert not in_box((0, -1), shape)
        assert not in_box((0,), shape)


class TestTypes:
    def test_shape_rejects_zero_entry(self):
        with pytest.raises(ValueError):
            Shape((2, 0))
        with pytest.raises(ValueError):
            Shape(())

    def test_multiindex_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    def test_weight(self):
        assert MultiIndex((2, 0, 3)).weight == 5

    def test_serialization(self):
        assert format_multiindex(MultiIndex((2, 0, 3))) == "[2,0,3]"
        assert format_multiindex((1, 4)) == "[1,4]"
