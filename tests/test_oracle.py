"""Brute-force oracle: detection, tallies, polynomial reconstruction,
and the independent 1-D recursion."""

import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import catalog, naive_window_scan, one_dim_recursion
from relpoly import (
    IntPolynomial,
    ResourceLimitError,
    WeightTally,
    brute_force_tally,
    detect_failures,
    failure_polynomial,
    reliability_polynomial,
    tally_to_polynomial,
    validate_shape,
)


def rows(shape, bit_patterns):
    """A (len, N) bool batch; bit i of each pattern is column i."""
    return np.array(
        [[bits >> i & 1 for i in range(shape.volume)] for bits in bit_patterns],
        dtype=bool,
    ).reshape(len(bit_patterns), shape.volume)


class TestDetection:
    def test_all_ones_fails(self):
        shape = validate_shape([2, 3], [1, 2])
        assert detect_failures(shape, np.ones((1, shape.volume)))[0]

    def test_all_zeros_survives(self):
        shape = validate_shape([2, 3], [1, 2])
        assert not detect_failures(shape, np.zeros((1, shape.volume)))[0]

    def test_exact_window_fails(self):
        # ones exactly at the two cells of the window anchored at (1, 1)
        shape = validate_shape([2, 3], [1, 2])
        assert detect_failures(shape, np.array([[1, 1, 0, 0, 0, 0]]))[0]
        assert naive_window_scan(shape, 0b11)

    def test_nonfailable_never_fails(self):
        shape = validate_shape([2], [3])
        assert not detect_failures(shape, np.ones((1, 2)))[0]
        assert not naive_window_scan(shape, 0b11)

    def test_flat_bit_order(self):
        # row-major, last axis fastest: cell (i1, i2) is column i1*3 + i2,
        # and the 1x2 window lies along the last axis
        shape = validate_shape([2, 3], [1, 2])
        ones = [(0, 1), (0, 3), (4, 5)]
        bit_patterns = [sum(1 << i for i in cells) for cells in ones]
        expected = [True, False, True]
        assert detect_failures(shape, rows(shape, bit_patterns)).tolist() == expected
        assert [naive_window_scan(shape, bits) for bits in bit_patterns] == expected

    def test_batch_matches_single(self):
        shape = validate_shape([3, 3], [2, 2])
        rng = np.random.default_rng(42)
        patterns = rng.integers(0, 2, size=(64, shape.volume), dtype=np.uint8)
        batch = detect_failures(shape, patterns)
        for row, flag in zip(patterns, batch):
            assert detect_failures(shape, row[None, :])[0] == flag

    def test_batch_shape_check(self):
        with pytest.raises(ValueError):
            detect_failures(validate_shape([2], [1]), np.zeros((4, 3)))

    @pytest.mark.parametrize(
        "n,s",
        [([12], [3]), ([4, 5], [2, 2]), ([2, 2, 5], [1, 2, 3]), ([18], [2])],
    )
    def test_prefix_detector_agrees_with_naive_scan(self, n, s):
        shape = validate_shape(n, s)
        rng = random.Random(20260809)
        bit_patterns = [rng.getrandbits(shape.volume) for _ in range(2500)]
        expected = [naive_window_scan(shape, bits) for bits in bit_patterns]
        assert detect_failures(shape, rows(shape, bit_patterns)).tolist() == expected

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_monotone_in_added_ones(self, data):
        n = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        s = [data.draw(st.integers(1, x + 1)) for x in n]
        shape = validate_shape(n, s)
        bits = data.draw(st.integers(0, (1 << shape.volume) - 1))
        flip = data.draw(st.integers(0, shape.volume - 1))
        before, after = detect_failures(shape, rows(shape, [bits, bits | 1 << flip]))
        assert after or not before

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_erosion_agrees_with_naive_scan(self, data):
        # extents up to 5, each s_r from 1 through n_r + 1 (not failable)
        n = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=3))
        s = [data.draw(st.integers(1, x + 1)) for x in n]
        shape = validate_shape(n, s)
        bit_patterns = data.draw(
            st.lists(st.integers(0, (1 << shape.volume) - 1), min_size=1, max_size=16)
        )
        expected = [naive_window_scan(shape, bits) for bits in bit_patterns]
        assert detect_failures(shape, rows(shape, bit_patterns)).tolist() == expected

    def test_rejects_cells_other_than_zero_or_one(self):
        shape = validate_shape([2, 2], [2, 1])
        # a 2 and a 0 in one window sum to the window volume
        patterns = np.array([[2, 0, 0, 0]])
        with pytest.raises(ValueError, match="0 or 1"):
            detect_failures(shape, patterns)
        with pytest.raises(ValueError, match="0 or 1"):
            detect_failures(shape, np.array([[1, 0.5, 0, 0]]))

    def test_dtypes_agree(self):
        shape = validate_shape([3, 4], [2, 2])
        rng = np.random.default_rng(7)
        cells = rng.random((200, shape.volume)) < 0.6
        expected = detect_failures(shape, cells)
        assert 0 < expected.sum() < len(expected)
        for dtype in (np.uint8, np.int64):
            got = detect_failures(shape, cells.astype(dtype))
            assert got.dtype == bool
            assert np.array_equal(got, expected)

    @pytest.mark.parametrize("dtype", [bool, np.int64])
    def test_empty_batch(self, dtype):
        shape = validate_shape([3, 4], [2, 2])
        got = detect_failures(shape, np.zeros((0, shape.volume), dtype=dtype))
        assert got.shape == (0,) and got.dtype == bool


def biased_patterns(shape, count, seed):
    """``count`` bit patterns with each cell 1 with probability 3/4."""
    rng = random.Random(seed)
    return [
        rng.getrandbits(shape.volume) | rng.getrandbits(shape.volume)
        for _ in range(count)
    ]


class TestDetectorContract:
    @pytest.mark.parametrize("dtype", [bool, np.uint8, np.int64])
    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_never_writes_its_input(self, dtype, layout):
        shape = validate_shape([4, 5], [2, 3])
        bit_patterns = biased_patterns(shape, 120, 5)
        batch = rows(shape, bit_patterns).astype(dtype)
        if layout == "C":
            base = patterns = np.ascontiguousarray(batch)
        elif layout == "F":
            base = patterns = np.asfortranarray(batch)
        else:
            # every other row of a wider array, one column in two
            base = np.zeros((240, 2 * shape.volume), dtype=dtype)
            base[::2, 1::2] = batch
            patterns = base[::2, 1::2]
        before = base.copy()
        got = detect_failures(shape, patterns)
        assert np.array_equal(base, before)
        expected = [naive_window_scan(shape, bits) for bits in bit_patterns]
        assert got.tolist() == expected
        assert 0 < sum(expected) < len(expected)

    @pytest.mark.parametrize(
        "n,s",
        [
            # s_r = n_r on some axis
            ([5], [5]),
            ([3, 4], [3, 2]),
            ([4, 3], [2, 3]),
            ([2, 3, 4], [1, 3, 2]),
            ([3, 2, 2], [3, 2, 2]),
            # s_r = 1 on every axis
            ([6], [1]),
            ([3, 4], [1, 1]),
            ([2, 3, 2], [1, 1, 1]),
            # general 1-D, 2-D and 3-D shapes
            ([11], [4]),
            ([4, 5], [3, 2]),
            ([3, 3, 4], [2, 2, 3]),
        ],
    )
    @pytest.mark.parametrize("count", [0, 1, 300])
    def test_agrees_with_naive_scan(self, n, s, count):
        shape = validate_shape(n, s)
        bit_patterns = biased_patterns(shape, count, shape.volume)
        got = detect_failures(shape, rows(shape, bit_patterns))
        assert got.shape == (count,) and got.dtype == bool
        expected = [naive_window_scan(shape, bits) for bits in bit_patterns]
        assert got.tolist() == expected

    @pytest.mark.parametrize(
        "n,s", [([3, 6], [2, 2]), ([2, 3, 3], [2, 2, 2]), ([18], [5])]
    )
    def test_peak_is_one_bool_copy(self, n, s):
        # the erosion runs in place on one copy; the corners are not copied
        shape = validate_shape(n, s)
        patterns = np.random.default_rng(3).random((1 << 16, 18)) < 0.6
        tracemalloc.start()
        try:
            got = detect_failures(shape, patterns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0 < got.sum() < len(got)
        assert peak <= patterns.nbytes + 2 * len(patterns)


class TestBruteForceTally:
    def test_two_node_run(self):
        tally = brute_force_tally(validate_shape([2], [2]))
        assert tally.f == (0, 0, 1)
        assert tally.total == 1

    def test_three_node_run_of_two(self):
        tally = brute_force_tally(validate_shape([3], [2]))
        assert tally.f == (0, 0, 2, 1)
        assert tally.total == 3

    def test_two_by_two_block(self):
        tally = brute_force_tally(validate_shape([2, 2], [2, 2]))
        assert tally.f == (0, 0, 0, 0, 1)

    def test_nonfailable(self):
        tally = brute_force_tally(validate_shape([2], [3]))
        assert tally.f == (0, 0, 0)
        assert tally.total == 0

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            brute_force_tally(validate_shape([5, 5], [2, 2]))

    def test_weight_bounds(self):
        shape = validate_shape([3, 2], [2, 1])
        tally = brute_force_tally(shape)
        assert all(fk >= 0 for fk in tally.f)
        assert all(fk == 0 for fk in tally.f[: shape.window_volume])
        assert tally.f[shape.volume] == 1

    def test_tally_length_validated(self):
        with pytest.raises(ValueError):
            WeightTally(validate_shape([2], [1]), (0, 0))


class TestTallyToPolynomial:
    def test_forced_failure(self):
        t = WeightTally(validate_shape([2], [2]), (0, 0, 1))
        assert tally_to_polynomial(t) == IntPolynomial({2: 1})

    def test_run_of_two_in_three(self):
        t = WeightTally(validate_shape([3], [2]), (0, 0, 2, 1))
        assert tally_to_polynomial(t) == IntPolynomial({2: 2, 3: -1})

    def test_zero_tally(self):
        t = WeightTally(validate_shape([2], [3]), (0, 0, 0))
        assert tally_to_polynomial(t).is_zero

    @pytest.mark.parametrize("n,s", [([4], [2]), ([2, 3], [1, 2]), ([2, 2, 2], [2, 1, 2])])
    def test_matches_engine(self, n, s):
        shape = validate_shape(n, s)
        assert tally_to_polynomial(brute_force_tally(shape)) == failure_polynomial(
            shape
        )


class TestOneDimRecursion:
    def test_spec_points(self):
        assert one_dim_recursion(1, 2, Fraction(1, 2)) == Fraction(1, 4)
        assert one_dim_recursion(2, 3, Fraction(1, 2)) == Fraction(5, 8)
        assert one_dim_recursion(2, 2, Fraction(1, 2)) == Fraction(3, 4)

    def test_short_chain_cannot_fail(self):
        assert one_dim_recursion(4, 3, Fraction(9, 10)) == 1
        assert one_dim_recursion(3, 0, Fraction(1, 2)) == 1

    def test_endpoints(self):
        assert one_dim_recursion(2, 7, Fraction(0)) == 1
        assert one_dim_recursion(2, 7, Fraction(1)) == 0

    def test_unit_run_is_all_working(self):
        q = Fraction(1, 3)
        assert one_dim_recursion(1, 5, q) == (1 - q) ** 5

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            one_dim_recursion(0, 3, Fraction(1, 2))
        with pytest.raises(ValueError):
            one_dim_recursion(2, -1, Fraction(1, 2))

    def test_agrees_with_engine_small_grid(self):
        for k in range(1, 4):
            for n in range(1, 13):
                poly = reliability_polynomial(validate_shape([n], [k]))
                for q in (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2)):
                    assert poly.eval_rational(q) == one_dim_recursion(k, n, q), (
                        k, n, q,
                    )


class TestOracleEngineEquivalenceSmall:
    """Quick sweep; the full d<=3, N<=16 catalog runs in the acceptance suite."""

    def test_catalog_slice(self):
        from relpoly import failed_count

        for shape in catalog(max_volume=8):
            tally = brute_force_tally(shape)
            assert tally_to_polynomial(tally) == failure_polynomial(shape), shape
            assert failed_count(shape) == tally.total, shape
