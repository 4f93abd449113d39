"""Exact engine: enumeration, exponents, both routes, routing, counts."""

import itertools
import math
import os
import re
import statistics
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    catalog,
    intersection_cells,
    intersection_volume,
    layer_support_by_subsets,
    one_dim_recursion,
    subset_sum_polynomial,
    union_cells,
    union_exponent_by_cells,
    union_exponent_by_ie,
)
from relpoly import (
    EngineConfig,
    IntPolynomial,
    ResourceLimitError,
    brute_force_tally,
    build_cell_mask_table,
    count_sequence,
    enumerate_elementary_failures,
    failed_count,
    failure_polynomial,
    reliability_polynomial,
    tally_to_polynomial,
    validate_shape,
)
from relpoly import engine
from relpoly.engine import (
    INCLUSION_EXCLUSION,
    PACKED,
    POLYNOMIAL,
    TRANSFER_MATRIX,
    VALUE,
    _survivor_state,
    _window_layer_polynomial,
    choose_route,
    inclusion_exclusion_polynomial,
    ordered_map,
    transfer_matrix_tally,
)

# Printed in the source material for this system family and re-derived here
# by brute force in the oracle tests.
R_2x3x4_EXPECTED = IntPolynomial(
    {
        0: 1, 6: -8, 8: 4, 9: 4, 10: 4, 11: -8, 12: 18, 14: -16, 15: -16,
        16: -12, 17: 40, 18: 4, 19: -8, 20: -8, 21: -12, 22: 20, 23: -8,
        24: 1,
    }
)


class TestEnumeration:
    def test_one_dim_unit_windows(self):
        shape = validate_shape([2], [1])
        assert enumerate_elementary_failures(shape) == [(1,), (2,)]

    def test_two_dim_lexicographic(self):
        shape = validate_shape([2, 3], [1, 2])
        assert enumerate_elementary_failures(shape) == [
            (1, 1), (1, 2), (2, 1), (2, 2),
        ]

    def test_full_array_window(self):
        assert enumerate_elementary_failures(validate_shape([3], [3])) == [(1,)]

    def test_nonfailable_is_empty(self):
        assert enumerate_elementary_failures(validate_shape([2], [3])) == []

    def test_count_matches_shape(self):
        shape = validate_shape([3, 4], [2, 2])
        assert len(enumerate_elementary_failures(shape)) == shape.num_windows


class TestOverlapAndVolume:
    def test_singleton_extent_is_window_extent(self):
        shape = validate_shape([5, 5], [2, 3])
        assert intersection_volume(shape, [(2, 2)]) == 2 * 3

    def test_adjacent_windows_share_one_cell(self):
        shape = validate_shape([3], [2])
        assert intersection_volume(shape, [(1,), (2,)]) == 1

    def test_disjoint_windows(self):
        shape = validate_shape([4], [2])
        assert intersection_volume(shape, [(1,), (3,)]) == 0

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            intersection_volume(validate_shape([3], [2]), [])

    def test_singleton_volume(self):
        shape = validate_shape([2, 3, 4], [1, 2, 3])
        assert intersection_volume(shape, [(1, 1, 1)]) == 6

    def test_diagonal_two_by_two(self):
        shape = validate_shape([3, 3], [2, 2])
        group = [(1, 1), (2, 2)]
        assert intersection_volume(shape, group) == 1
        assert len(intersection_cells(shape, group)) == 1

    def test_three_windows_no_common_cell(self):
        shape = validate_shape([4], [2])
        group = [(1,), (2,), (3,)]
        assert intersection_volume(shape, group) == 0
        assert intersection_cells(shape, group) == set()


class TestUnionExponent:
    def test_singleton_is_window_volume(self):
        shape = validate_shape([4, 4], [2, 3])
        assert union_exponent_by_ie(shape, [(2, 1)]) == 6

    def test_adjacent_one_dim(self):
        shape = validate_shape([3], [2])
        assert union_exponent_by_ie(shape, [(1,), (2,)]) == 3

    def test_disjoint_two_dim(self):
        shape = validate_shape([2, 3], [1, 2])
        group = [(1, 1), (2, 2)]
        assert union_exponent_by_ie(shape, group) == 4
        assert len(union_cells(shape, group)) == 4

    def test_inner_limit(self):
        shape = validate_shape([12], [1])
        group = enumerate_elementary_failures(shape)
        assert union_exponent_by_ie(shape, group) == 12

    def test_by_cells_full_and_single(self):
        shape = validate_shape([3], [2])
        table = build_cell_mask_table(shape)
        assert union_exponent_by_cells(table, 0b11) == 3
        assert union_exponent_by_cells(table, 0b01) == 2
        with pytest.raises(ValueError):
            union_exponent_by_cells(table, 0)

    def test_by_cells_matches_by_ie_spot(self):
        shape = validate_shape([2, 3], [1, 2])
        windows = enumerate_elementary_failures(shape)
        table = build_cell_mask_table(shape)
        mask = (1 << windows.index((1, 1))) | (1 << windows.index((2, 2)))
        assert union_exponent_by_cells(table, mask) == 4
        assert union_exponent_by_cells(table, mask) == union_exponent_by_ie(
            shape, [(1, 1), (2, 2)]
        )

    @pytest.mark.parametrize(
        "n,s",
        [([5], [2]), ([6], [3]), ([3, 3], [2, 2]), ([2, 4], [1, 2]),
         ([2, 2, 2], [1, 1, 2])],
    )
    def test_routes_agree_on_every_subset(self, n, s):
        shape = validate_shape(n, s)
        windows = enumerate_elementary_failures(shape)
        table = build_cell_mask_table(shape)
        for bits in range(1, 1 << len(windows)):
            group = [windows[j] for j in range(len(windows)) if bits >> j & 1]
            expected = len(union_cells(shape, group))
            assert union_exponent_by_cells(table, bits) == expected
            assert union_exponent_by_ie(shape, group) == expected

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_monotone_under_superset(self, data):
        n = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
        s = [data.draw(st.integers(1, x)) for x in n]
        shape = validate_shape(n, s)
        m = shape.num_windows
        table = build_cell_mask_table(shape)
        sub = data.draw(st.integers(1, (1 << m) - 1))
        sup = sub | data.draw(st.integers(0, (1 << m) - 1))
        assert union_exponent_by_cells(table, sub) <= union_exponent_by_cells(
            table, sup
        )


class TestCellMaskTable:
    def test_masks_and_groups(self):
        shape = validate_shape([3], [2])  # windows [1,2] and [2,3]
        table = build_cell_mask_table(shape)
        assert table.groups == ((0b01, 1), (0b10, 1), (0b11, 1))
        assert table.covered_cells == 3

    def test_multiplicities_sum_to_covered_cells(self):
        shape = validate_shape([3, 4], [2, 2])
        table = build_cell_mask_table(shape)
        assert sum(m for _, m in table.groups) == table.covered_cells

    def test_bit_positions_follow_enumeration(self):
        shape = validate_shape([2, 2], [1, 2])
        windows = enumerate_elementary_failures(shape)
        table = build_cell_mask_table(shape)
        for j, offsets in enumerate(windows):
            covered = union_exponent_by_cells(table, 1 << j)
            assert covered == shape.window_volume, (j, offsets)


class TestSubsetTerms:
    def test_terms_for_two_unit_windows(self):
        # two singletons at q^1, the pair at -q^2
        shape = validate_shape([2], [1])
        assert subset_sum_polynomial(shape) == IntPolynomial({1: 2, 2: -1})

    def test_singleton_exponent_is_window_volume(self):
        shape = validate_shape([3, 3], [2, 2])
        assert subset_sum_polynomial(shape).lowest_term() == (
            shape.window_volume,
            shape.num_windows,
        )


class TestFailurePolynomial:
    def test_one_dim_unit_windows(self):
        poly = failure_polynomial(validate_shape([2], [1]))
        assert poly == IntPolynomial({1: 2, 2: -1})

    def test_two_dim_golden(self):
        poly = failure_polynomial(validate_shape([2, 3], [1, 2]))
        assert poly == IntPolynomial({2: 4, 3: -2, 4: -4, 5: 4, 6: -1})

    def test_one_dim_pair_windows(self):
        # brute force over the 8 strings: {011, 110, 111} fail
        poly = failure_polynomial(validate_shape([3], [2]))
        assert poly == IntPolynomial({2: 2, 3: -1})

    def test_nonfailable_zero(self):
        assert failure_polynomial(validate_shape([2], [3])).is_zero

    def test_reliability_goldens(self):
        assert reliability_polynomial(validate_shape([2], [1])) == IntPolynomial(
            {0: 1, 1: -2, 2: 1}
        )
        assert (
            reliability_polynomial(validate_shape([2, 3, 4], [1, 2, 3]))
            == R_2x3x4_EXPECTED
        )
        assert reliability_polynomial(validate_shape([2], [3])) == IntPolynomial.one()

    def test_subset_bound_error_names_fallback(self):
        # 2116 windows, 46 of them a window layer, and 4^48 transfer-matrix
        # states: no route fits
        with pytest.raises(ResourceLimitError, match="mc"):
            failure_polynomial(validate_shape([48, 48], [3, 3]))

    def test_paths_agree(self):
        # the zeta sweep against the per-subset cell route
        for n, s in [([6], [2]), ([3, 4], [2, 2]), ([2, 2, 3], [1, 2, 2]),
                     ([8], [1]), ([16], [14])]:
            shape = validate_shape(n, s)
            summed = subset_sum_polynomial(shape)
            assert inclusion_exclusion_polynomial(shape) == summed, (n, s)

    def test_dimension_permutation_symmetry(self):
        for n, s in [([2, 3], [1, 2]), ([2, 3, 4], [1, 2, 3]), ([4, 2], [2, 2])]:
            shape = validate_shape(n, s)
            base = failure_polynomial(shape)
            for order in itertools.permutations(range(len(n))):
                assert failure_polynomial(shape.permuted(order)) == base

    def test_lowest_term_is_window_count_at_window_volume(self):
        for n, s in [([5], [2]), ([3, 3], [2, 2]), ([2, 2, 2], [1, 2, 1])]:
            shape = validate_shape(n, s)
            assert failure_polynomial(shape).lowest_term() == (
                shape.window_volume,
                shape.num_windows,
            )


class TestWorkers:
    def test_bit_identical_across_worker_counts(self):
        shape = validate_shape([17], [2])  # 16 windows
        assert shape.num_windows == 16
        polys = [
            inclusion_exclusion_polynomial(shape, config=EngineConfig(workers=w))
            for w in (1, 2, 8)
        ]
        assert polys[0] == polys[1] == polys[2]

    def test_workers_env_variable(self, monkeypatch):
        monkeypatch.setenv("RELPOLY_WORKERS", "3")
        assert EngineConfig().resolved_workers() == 3
        monkeypatch.delenv("RELPOLY_WORKERS")
        assert EngineConfig().resolved_workers() == 1

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            EngineConfig(workers=0).resolved_workers()

    def test_pool_capped_at_core_count(self, monkeypatch):
        # a pool that records its size and maps serially: no thread starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        # the pool class is looked up when a pool is built
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        jobs = [(i,) for i in range(64)]
        assert ordered_map(lambda i: i * i, jobs, 10_000) == [i * i for i in range(64)]
        assert sizes == [2]


class TestBlockedKernel:
    @pytest.mark.parametrize(
        "n,s",
        [
            # |E| = 1, 2, 3: the table is shorter than one 64-bit word
            ([2], [2]), ([3], [2]), ([4], [2]), ([2, 300], [2, 300]),
            ([2, 100], [2, 98]),  # 200 covered cells: uint8 table, uint16 keys
            ([2, 300], [2, 298]),  # 600: uint16 table, 4 lanes a word
            ([2, 20000], [2, 19998]),  # 40000: uint16 table, uint32 keys
            ([2, 40000], [2, 39998]),  # 80000: uint32 table, 2 lanes a word
        ],
    )
    def test_matches_the_term_by_term_sum(self, n, s):
        shape = validate_shape(n, s)
        assert inclusion_exclusion_polynomial(shape) == subset_sum_polynomial(shape)

    @pytest.mark.parametrize("n,s", [([6], [2]), ([4, 3], [2, 2]), ([10], [3])])
    def test_several_blocks_match_the_term_by_term_sum(self, monkeypatch, n, s):
        # blocks of 16 entries: |E| = 5, 6 and 8 make 2, 4 and 16 blocks,
        # and |E| = b + 1 = 5 the fewest past one block
        monkeypatch.setattr(engine, "_BLOCK_BITS", 4)
        shape = validate_shape(n, s)
        assert inclusion_exclusion_polynomial(shape) == subset_sum_polynomial(shape)

    def test_blocks_bit_identical_across_worker_counts(self):
        # four blocks, of index parity even, odd, odd, even, merged by the
        # thread pool in block order
        shape = validate_shape([engine._BLOCK_BITS + 2], [1])
        assert shape.num_windows == engine._BLOCK_BITS + 2
        expected = tally_to_polynomial(transfer_matrix_tally(shape))
        for w in (1, 2, 8):
            poly = inclusion_exclusion_polynomial(shape, config=EngineConfig(workers=w))
            assert poly == expected, w


class TestCounts:
    def test_single_counts(self):
        assert failed_count(validate_shape([2], [2])) == 1
        assert failed_count(validate_shape([3], [2])) == 3
        assert failed_count(validate_shape([2, 2], [2, 2])) == 1
        assert failed_count(validate_shape([2], [3])) == 0

    def test_three_dim_spot_count(self):
        # frozen from an exhaustive numpy sweep over all 2^24 configurations
        assert failed_count(validate_shape([2, 3, 4], [1, 2, 3])) == 1652895

    def test_run_of_two_sequence(self):
        assert count_sequence([2], [2], 0, 5) == [1, 3, 8, 19]

    def test_run_of_three_sequence(self):
        assert count_sequence([3], [3], 0, 5) == [1, 3, 8]

    def test_two_by_m_sequence(self):
        # oracle-derived ground truth (see test_oracle for the derivation)
        assert count_sequence([2, 2], [2, 2], 1, 4) == [1, 7, 40]

    def test_sequence_argument_errors(self):
        with pytest.raises(ValueError):
            count_sequence([2], [2], 1, 5)
        with pytest.raises(ValueError):
            count_sequence([4], [2], 0, 3)

    @pytest.mark.parametrize(
        "n,s,axis,stop",
        [([2], [2], 0, 40), ([3], [1], 0, 30), ([2, 2], [2, 2], 1, 24),
         ([3, 1], [2, 2], 1, 14), ([2, 3, 1], [2, 2, 2], 2, 13)],
    )
    def test_one_scan_sequence(self, n, s, axis, stop):
        # one value scan of the final shape along the varied axis reads
        # off every count; count_sequence gives the same counts whether it
        # takes that scan or counts each extent by its own route
        final = list(n)
        final[axis] = stop
        final_shape = validate_shape(final, s)
        expected = []
        for v in range(n[axis], stop + 1):
            final[axis] = v
            shape = validate_shape(final, s)
            if shape.num_windows <= 20:
                poly = inclusion_exclusion_polynomial(shape)
                expected.append(poly.eval_rational(Fraction(1, 2)) * 2**shape.volume)
            else:
                expected.append(transfer_matrix_tally(shape).total)
        survivors, _ = engine._window_layer_values(
            final_shape, axis, Fraction(1, 2), n[axis]
        )
        cells = final_shape.volume // stop
        assert [
            2 ** (t * cells) - v for t, v in enumerate(survivors, n[axis])
        ] == expected
        assert count_sequence(n, s, axis, stop) == expected

    @staticmethod
    def _count_paths(monkeypatch):
        # record which of the two paths count_sequence takes: one value
        # scan of the final extent, or each extent by its count route
        paths = []
        for name in ("_window_layer_values", "_reliability"):
            def spy(*args, _name=name, _original=getattr(engine, name), **kwargs):
                paths.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(engine, name, spy)
        return paths

    def test_ladder_sequence_is_one_scan(self, monkeypatch):
        # [2,2] -> [2,24]x[2,2]: the value scan of the final shape along
        # axis 2 is priced below the sum of the extents' own count routes
        paths = self._count_paths(monkeypatch)
        stats = {}
        counts = count_sequence([2, 2], [2, 2], 1, 24, stats=stats)
        assert paths == ["_window_layer_values"] and len(counts) == 23
        assert stats["route"].payload == VALUE and stats["route"].axis == 1
        assert stats["states"] == 2

    def test_per_extent_sequence(self, monkeypatch):
        # growing axis 0 of [2,25]x[2,2]: a window layer along axis 0 holds
        # 24 windows, so each extent is counted on its own, along axis 1
        expected = [
            count_sequence([m, 2], [2, 2], 1, 25)[-1] for m in (2, 3)
        ]
        paths = self._count_paths(monkeypatch)
        stats = {}
        assert count_sequence([2, 25], [2, 2], 0, 3, stats=stats) == expected
        assert paths == ["_reliability", "_window_layer_values"] * 2
        assert [run["route"].axis for run in stats["routes"]] == [1, 1]

    def test_per_extent_sequence_prices_each_extent_once(self, monkeypatch):
        # the routes priced against the one scan are the routes each extent
        # is counted by; counts and reports are those of failed_count
        shapes = [validate_shape([m, 25], [2, 2]) for m in (2, 3)]
        runs = [{} for _ in shapes]
        expected = [failed_count(x, stats=r) for x, r in zip(shapes, runs)]
        priced = []

        def spy(shape, **kwargs):
            priced.append(shape)
            return choose_route(shape, **kwargs)

        monkeypatch.setattr(engine, "choose_route", spy)
        stats = {}
        assert count_sequence([2, 25], [2, 2], 0, 3, stats=stats) == expected
        assert stats == {"routes": runs}
        assert sorted(priced, key=lambda x: x.n) == shapes

    def test_count_reports_its_route(self):
        stats = {}
        shape = validate_shape([4, 22], [4, 3])
        failed_count(shape, stats=stats)
        assert stats["route"] == choose_route(shape, q=Fraction(1, 2))
        assert stats["route"].payload == VALUE and stats["route"].axis == 1
        assert stats["states"] <= stats["route"].states
        # [3,4,5]x[2,2,2]: the polynomial along axis 3 is priced below the
        # value scan, and reports no states
        stats = {}
        failed_count(validate_shape([3, 4, 5], [2, 2, 2]), stats=stats)
        assert stats == {"route": choose_route(validate_shape([3, 4, 5], [2, 2, 2]))}


class TestTransferMatrix:
    # the tally against brute force over the whole catalog is
    # test_acceptance.py::test_transfer_matrix_oracle_sweep, which reuses the
    # oracle tallies the acceptance suite already holds

    def test_one_dim_recursion(self):
        # n up to 80 takes the Python-int counts past N = 62
        points = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2))
        for k in range(1, 6):
            for n in range(1, 81):
                tally = transfer_matrix_tally(validate_shape([n], [k]))
                for q in points:
                    p = sum(
                        fk * q**w * (1 - q) ** (n - w) for w, fk in enumerate(tally.f)
                    )
                    assert 1 - p == one_dim_recursion(k, n, q), (k, n, q)

    @pytest.mark.parametrize("n,s", [([4, 22], [4, 3]), ([6, 6], [2, 2])])
    def test_matches_sweep(self, n, s):
        shape = validate_shape(n, s)
        tally = transfer_matrix_tally(shape)
        poly = inclusion_exclusion_polynomial(shape)
        assert tally_to_polynomial(tally) == poly
        assert tally.total == poly.eval_rational(Fraction(1, 2)) * 2**shape.volume

    @pytest.mark.parametrize(
        "n,s",
        [([3, 5], [2, 3]), ([4, 4], [3, 2]), ([2, 7], [2, 2]),
         ([2, 2, 4], [2, 2, 2]), ([2, 3, 2], [1, 2, 2]), ([3, 2, 2], [2, 1, 2]),
         ([2, 2, 3], [2, 2, 2])],
    )
    def test_every_scan_axis_matches_brute_force(self, n, s):
        # the route scans one axis; the box slice is indexed per axis, so
        # scan along each of them
        shape = validate_shape(n, s)
        expected = brute_force_tally(shape).f
        for axis in range(shape.d):
            assert self._scan_tally(shape, axis) == expected, axis

    @pytest.mark.parametrize("n", [[4, 4], [3, 5]])
    def test_every_scan_axis_series_closed_form(self, n):
        # one failed cell fails a series system: f_k = C(N, k) for k >= 1
        shape = validate_shape(n, [1, 1])
        volume = shape.volume
        expected = tuple(math.comb(volume, k) if k else 0 for k in range(volume + 1))
        for axis in range(shape.d):
            assert self._scan_tally(shape, axis) == expected

    @staticmethod
    def _scan_tally(shape, axis):
        state = _survivor_state(shape, axis)
        survivors = state.sum(axis=tuple(range(state.ndim - 1)))
        return tuple(
            math.comb(shape.volume, w) - int(g)
            for w, g in enumerate(survivors)
        )

    def test_nonfailable(self):
        shape = validate_shape([3, 2], [2, 3])
        assert transfer_matrix_tally(shape).f == (0,) * 7

    def test_reaches_past_the_subset_bound(self):
        shape = validate_shape([40], [1])  # 40 windows: series system
        assert failed_count(shape) == 2**40 - 1
        assert reliability_polynomial(shape) == IntPolynomial(
            {j: (-1) ** j * math.comb(40, j) for j in range(41)}
        )


class TestWindowLayerScan:
    # the same polynomial along every axis as the whole-set sweep and brute
    # force: the footprints, the held layers and the padded shift are all
    # indexed per axis

    @pytest.mark.parametrize(
        "n,s",
        [([3, 5], [2, 3]), ([4, 4], [3, 2]), ([2, 7], [2, 2]),
         ([2, 2, 4], [2, 2, 2]), ([2, 3, 2], [1, 2, 2]), ([3, 2, 2], [2, 1, 2]),
         ([2, 2, 3], [2, 2, 2]), ([3, 4], [2, 2]), ([2, 3, 3], [2, 2, 2]),
         # s_a = 1 on some axis: no window layer is held
         ([3, 4], [1, 2]), ([4, 4], [1, 1]), ([6], [1]),
         # s_a = n_a: one window layer
         ([3, 5], [3, 2]), ([5], [5]),
         # fewer window layers than s_a
         ([4, 5], [3, 2]), ([6], [4]), ([2, 5, 2], [2, 4, 1])],
    )
    def test_every_axis_matches_brute_force(self, n, s):
        shape = validate_shape(n, s)
        expected = tally_to_polynomial(brute_force_tally(shape))
        assert inclusion_exclusion_polynomial(shape) == expected
        for axis in range(shape.d):
            assert _window_layer_polynomial(shape, axis) == expected, axis

    def test_every_axis_of_the_catalog(self):
        for shape in catalog(max_volume=12):
            expected = inclusion_exclusion_polynomial(shape)
            for axis in range(shape.d):
                assert _window_layer_polynomial(shape, axis) == expected, (shape, axis)

    def test_nonfailable(self):
        shape = validate_shape([3, 2], [2, 3])
        for axis in range(shape.d):
            assert _window_layer_polynomial(shape, axis).is_zero

    @pytest.mark.parametrize(
        "n,s",
        # |E| = 61 and 58 on the int64 rows (N = 124 and 90); 62, 67 and 69
        # past them, on the packed scan along the same axis, [67]x[1] with
        # coefficients up to C(67, 33) > 2^63
        [([2, 62], [2, 2]), ([3, 30], [2, 2]), ([2, 63], [2, 2]), ([67], [1]),
         ([2, 70], [2, 2])],
    )
    def test_both_sides_of_the_int64_bound(self, n, s):
        shape = validate_shape(n, s)
        axis = shape.d - 1
        expected = tally_to_polynomial(transfer_matrix_tally(shape))
        if shape.num_windows <= 61:
            assert _window_layer_polynomial(shape, axis) == expected
        else:
            with pytest.raises(ResourceLimitError):
                _window_layer_polynomial(shape, axis)
            assert engine._packed_polynomial(shape, axis)[0] == expected

    @pytest.mark.parametrize(
        "n,s",
        [([2, 63], [2, 2]), ([62], [1]), ([3, 60], [2, 3]), ([5, 24], [2, 3]),
         ([300], [3]), ([4, 100], [2, 2]), ([5, 38], [3, 5]), ([2, 3, 40], [2, 2, 2]),
         ([3, 33], [2, 2]), ([6, 20], [3, 3])],
    )
    def test_rows_stop_at_the_int64_bound(self, n, s):
        # |E| >= 62: the rows cost infinity along every axis, and no route
        # choice, for the polynomial or a value, takes them
        shape = validate_shape(n, s)
        assert shape.num_windows >= 62
        for axis in range(shape.d):
            assert engine._window_layer_cost(shape, axis).seconds == math.inf
        for q in (None, Fraction(1, 2), Fraction(19, 50)):
            route = choose_route(shape, q=q)
            rows = (INCLUSION_EXCLUSION, POLYNOMIAL)
            assert route.axis is None or (route.route, route.payload) != rows, (
                shape, q,
            )

    def test_one_dim_recursion(self):
        points = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2))
        for k in range(1, 6):
            for n in range(1, 61):
                poly = _window_layer_polynomial(validate_shape([n], [k]), 0)
                for q in points:
                    assert 1 - poly.eval_rational(q) == one_dim_recursion(k, n, q), (
                        k, n, q,
                    )

    def test_support_of_one_window_layer(self):
        # [3]x[2]: windows {0,1} and {1,2}; each footprint has one subset
        support, counts = engine._layer_support((3,), (2,))
        assert support == (0b000, 0b011, 0b110, 0b111)
        assert counts == (1, -1, -1, 1)
        # [4]x[2]: {0,1,2,3} is covered by {w0, w2} and by {w0, w1, w2},
        # whose signs cancel; the cached support is immutable
        support, counts = engine._layer_support((4,), (2,))
        assert 0b1111 not in support
        assert isinstance(support, tuple) and isinstance(counts, tuple)

    # cross-sections past the catalog's W <= 12: series layers (s = 1) and
    # 2-D layers with W = 13-16
    WIDE_LAYERS = [((13,), (1,)), ((16,), (1,)), ((4, 4), (1, 1)), ((14,), (2,)),
                   ((17,), (2,)), ((5, 5), (2, 2)), ((6, 6), (3, 3)), ((5, 6), (2, 3))]

    def test_support_by_every_subset(self):
        # the footprints merged as they go, against every subset listed
        sections = sorted({engine._cross_section(x, a) for x in catalog()
                           for a in range(x.d)})
        small = [
            (n, s) for n, s in sections
            if math.prod(nr - sr + 1 for nr, sr in zip(n, s)) <= 12
        ]
        assert len(small) > 100
        for cross in small + self.WIDE_LAYERS:
            assert engine._layer_support(*cross) == layer_support_by_subsets(*cross), (
                cross
            )


class TestWindowLayerValues:
    # the window-layer scan with one exact value per state, merged by
    # suffix unions: b^N R(a/b) along every axis, and the counts at 1/2

    QS = (Fraction(1, 10), Fraction(99, 100), Fraction(0.38))

    @staticmethod
    def _value(shape, axis, q):
        (value,), reached = engine._window_layer_values(shape, axis, q, shape.n[axis])
        assert 1 <= reached
        return Fraction(value, q.denominator**shape.volume)

    def test_every_axis_of_the_catalog(self):
        for shape in catalog():
            poly = inclusion_exclusion_polynomial(shape)
            count = failed_count(shape)
            assert count == poly.eval_rational(Fraction(1, 2)) * 2**shape.volume
            for axis in range(shape.d):
                half = self._value(shape, axis, Fraction(1, 2))
                assert 2**shape.volume * (1 - half) == count, (shape, axis)
                for q in self.QS:
                    assert 1 - self._value(shape, axis, q) == poly.eval_rational(q), (
                        shape, axis, q,
                    )

    def test_one_dim_recursion(self):
        points = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2))
        for k in range(1, 6):
            for n in range(1, 61):
                shape = validate_shape([n], [k])
                for q in points:
                    assert self._value(shape, 0, q) == one_dim_recursion(k, n, q), (
                        k, n, q,
                    )

    @pytest.mark.parametrize("n", [[2, 70], [8, 16]])
    def test_past_the_int64_bound(self, n):
        # |E| = 69 and 105, along the long axis; [8,40]x[2,2] takes 11 s by
        # the transfer matrix
        shape = validate_shape(n, [2, 2])
        tally = transfer_matrix_tally(shape)
        half = self._value(shape, 1, Fraction(1, 2))
        assert 2**shape.volume * (1 - half) == tally.total
        q = Fraction(19, 50)
        assert 1 - self._value(shape, 1, q) == tally_to_polynomial(tally).eval_rational(q)

    def test_past_the_64_cell_bound(self):
        # [2,70]x[2,70] along axis 1: 70 cells a cross-section, more than a
        # uint64 footprint holds; the Python-int footprints of the value and
        # packed scans take them, and agree with the sweep
        shape = validate_shape([2, 70], [2, 70])
        poly = inclusion_exclusion_polynomial(shape)
        count = poly.eval_rational(Fraction(1, 2)) * 2**shape.volume
        assert 2**shape.volume * (1 - self._value(shape, 0, Fraction(1, 2))) == count
        for q in self.QS:
            assert 1 - self._value(shape, 0, q) == poly.eval_rational(q), q
        assert engine._packed_polynomial(shape, 0)[0] == poly
        assert engine._window_layer_value_cost(shape, 0, 140).seconds < math.inf

    def test_states_merge_by_suffix_unions(self):
        # [10,10]x[3,3]: 48 footprints a window layer, two held, so 2304
        # tuples of footprints; their chains of suffix unions number 569
        shape = validate_shape([10, 10], [3, 3])
        _, reached = engine._window_layer_values(shape, 0, Fraction(1, 2), 10)
        assert reached == 569
        assert engine._window_layer_value_cost(shape, 0, 100).states == 48**2

    def test_nonfailable(self):
        # no window fits: R = 1 at every extent
        shape = validate_shape([3, 2], [2, 3])
        for axis in range(shape.d):
            values, _ = engine._window_layer_values(shape, axis, Fraction(1, 3), 1)
            cells = shape.volume // shape.n[axis]
            assert values == [3 ** (t * cells) for t in range(1, shape.n[axis] + 1)]

    def test_exact_reliability(self):
        # the route is the value scan or a polynomial by predicted cost;
        # either gives eval_rational's value
        q = Fraction(19, 50)
        for n, s, payload in [([4, 5], [2, 2], VALUE), ([4, 22], [4, 3], VALUE),
                              ([3, 4, 5], [2, 2, 2], POLYNOMIAL), ([5, 5], [3, 3], POLYNOMIAL)]:
            shape = validate_shape(n, s)
            stats = {}
            value = engine.exact_reliability(shape, q, stats=stats)
            assert value == reliability_polynomial(shape).eval_rational(q), n
            assert stats["route"] == choose_route(shape, q=q)
            assert stats["route"].payload == payload, n
            assert ("states" in stats) == (payload == VALUE)

    @pytest.mark.parametrize("q", [Fraction(-1, 2), Fraction(-1, 10**30), 2,
                                   1 + Fraction(1, 10**30)])
    def test_rejects_q_outside_the_unit_interval(self, q):
        with pytest.raises(ValueError, match=re.escape(f"got {q}")):
            engine.exact_reliability(validate_shape([5], [2]), q)

    def test_ends_of_the_unit_interval(self):
        shape = validate_shape([5], [2])
        assert engine.exact_reliability(shape, 0) == 1
        assert engine.exact_reliability(shape, 1) == 0

    def test_float_is_the_exact_value_rounded_once(self):
        # at a binary64 q, whatever route the value takes, float() of it is
        # eval_float's correctly rounded value, for R and for P; past the
        # catalog, [200]x[5] and [300]x[3] take the value scan at q = 0.3
        qs = [0.0, 5e-324, 0.001, 0.3, 0.5, 0.99, 0.999, 1.0]
        shapes = catalog() + [validate_shape([200], [5]), validate_shape([300], [3])]
        for shape in shapes:
            p = failure_polynomial(shape)
            r = 1 - p
            for q in qs:
                value = engine.exact_reliability(shape, Fraction(q))
                assert float(value) == r.eval_float(q), (shape, q)
                assert float(1 - value) == p.eval_float(q), (shape, q)
        assert choose_route(shapes[-1], q=Fraction(0.3)).payload == VALUE

    def test_reaches_past_the_polynomial(self):
        # [12,12]x[3,3]: no polynomial fits as rows of coefficients, the
        # scans with one integer per state do; the count's axes agree
        shape = validate_shape([12, 12], [3, 3])
        rows = [engine._inclusion_exclusion_cost(shape, EngineConfig()),
                engine._transfer_matrix_cost(shape),
                *(engine._window_layer_cost(shape, axis) for axis in range(2))]
        assert min(c.nbytes for c in rows) > engine.memory_budget()
        assert choose_route(shape).payload == PACKED
        stats = {}
        count = failed_count(shape, stats=stats)
        assert stats["route"].payload == VALUE and stats["states"] == 2273
        other = 1 - stats["route"].axis
        assert 2**144 * (1 - self._value(shape, other, Fraction(1, 2))) == count


class TestPackedPolynomial:
    # the window-layer scan with one value per state at q = 2^B, its digits
    # read off as the coefficients of R

    @staticmethod
    def _packed(shape, axis):
        poly, reached = engine._packed_polynomial(shape, axis)
        assert 1 <= reached
        return poly

    def test_every_axis_of_the_catalog(self):
        for shape in catalog():
            expected = inclusion_exclusion_polynomial(shape)
            assert tally_to_polynomial(transfer_matrix_tally(shape)) == expected
            for axis in range(shape.d):
                packed = self._packed(shape, axis)
                assert packed == expected, (shape, axis)
                assert packed == _window_layer_polynomial(shape, axis), (shape, axis)

    def test_series_central_binomials(self):
        # R of [n]x[1] is (1 - q)^n: its largest coefficient, C(n, n // 2),
        # must fit the signed range of one B-bit digit
        for n in range(1, 31):
            shape = validate_shape([n], [1])
            poly = self._packed(shape, 0)
            assert 1 - poly == IntPolynomial(
                {k: (-1) ** k * math.comb(n, k) for k in range(n + 1)}
            ), n
            assert math.comb(n, n // 2) < 2 ** (engine._packed_digit_bits(shape) - 1)

    @pytest.mark.parametrize("n,s", [([2, 70], [2, 2]), ([67], [1])])
    def test_past_the_int64_bound(self, n, s):
        # |E| = 69 and 67: digits of 72 bits; C(67, 33) > 2^63
        shape = validate_shape(n, s)
        expected = tally_to_polynomial(transfer_matrix_tally(shape))
        assert self._packed(shape, shape.d - 1) == expected

    def test_failure_polynomial_reports_its_states(self):
        shape = validate_shape([4, 22], [4, 3])
        stats = {}
        poly = failure_polynomial(shape, stats=stats)
        assert stats["route"] == choose_route(shape)
        assert stats["route"].payload == PACKED and stats["states"] == 3
        stats = {}
        assert reliability_polynomial(shape, stats=stats) == 1 - poly
        assert stats["states"] == 3
        stats = {}
        failure_polynomial(validate_shape([6, 6], [2, 2]), stats=stats)
        assert stats["route"].payload == POLYNOMIAL and "states" not in stats


class TestCostModel:
    # the cost model predicts each form's time within a wide band of the
    # measured median at one worker; the host's speed drifts up to 1.6x
    # between runs

    @staticmethod
    def _median_seconds(compute):
        compute()  # caches, and the first call's allocations
        times = []
        for _ in range(5):
            started = time.perf_counter()
            compute()
            times.append(time.perf_counter() - started)
        return statistics.median(times)

    @pytest.mark.parametrize(
        "n,s,form",
        [([3, 4, 5], [2, 2, 2], "layers"), ([4, 22], [4, 3], "layers"),
         ([6, 6], [2, 2], "layers"), ([4, 5], [2, 2], "sweep"),
         ([25], [2], "scan"), ([4, 22], [4, 3], "packed"), ([25], [2], "packed"),
         ([2, 24], [2, 2], "packed")],
    )
    def test_predicted_within_a_band_of_measured(self, n, s, form):
        shape = validate_shape(n, s)
        config = EngineConfig(workers=1)
        axes = range(shape.d)
        if form == "sweep":
            cost = engine._inclusion_exclusion_cost(shape, config)
            compute = lambda: inclusion_exclusion_polynomial(shape, config=config)
        elif form == "scan":
            cost = engine._transfer_matrix_cost(shape)
            compute = lambda: tally_to_polynomial(transfer_matrix_tally(shape))
        elif form == "packed":
            bits = shape.volume * engine._packed_digit_bits(shape)
            cost = engine._fastest(
                engine._window_layer_value_cost(shape, a, bits, PACKED) for a in axes
            )
            compute = lambda: engine._packed_polynomial(shape, cost.axis)
        else:
            cost = engine._fastest(engine._window_layer_cost(shape, a) for a in axes)
            compute = lambda: _window_layer_polynomial(shape, cost.axis)
        ratio = cost.seconds / self._median_seconds(compute)
        assert 0.2 <= ratio <= 5, ratio


class TestRouting:
    @pytest.mark.parametrize(
        "n,s,route",
        # the transfer matrix keeps long 1-D shapes with wide windows, where
        # the packed scan's digits are long: [1000]x[5] 148 ms against 458
        # (packed); [300]x[5] 12.7 / 14.0 ms and [250]x[6] 10.3 / 10.3 ms
        # tie, and on [200]x[5] it is within 21%, 5.9 / 4.9 ms (interleaved
        # medians at one worker, 11 rounds, 5 for [1000]x[5])
        [([6, 6], [2, 2], INCLUSION_EXCLUSION), ([200], [5], TRANSFER_MATRIX),
         ([4, 5], [2, 2], INCLUSION_EXCLUSION), ([1000], [5], TRANSFER_MATRIX),
         ([3, 4, 5], [2, 2, 2], INCLUSION_EXCLUSION),
         ([4, 22], [4, 3], INCLUSION_EXCLUSION),
         ([5, 5], [2, 2], INCLUSION_EXCLUSION), ([300], [5], TRANSFER_MATRIX),
         ([250], [6], TRANSFER_MATRIX), ([3, 8], [2, 2], INCLUSION_EXCLUSION),
         # 27 windows: no cap on |E| beyond memory
         ([4, 21], [2, 13], INCLUSION_EXCLUSION),
         ([4, 4, 4], [2, 2, 2], INCLUSION_EXCLUSION),
         # 298 windows, past the rows' int64 bound: the transfer matrix
         # 10.0-11.5 ms against 8.9-9.9 ms packed, which the model
         # over-predicts (medians of three runs of 11-21 interleaved rounds)
         ([300], [3], TRANSFER_MATRIX)],
    )
    def test_cheaper_route(self, n, s, route):
        assert choose_route(validate_shape(n, s)).route == route

    @pytest.mark.parametrize(
        "n,s,axis",
        [([3, 4, 5], [2, 2, 2], 2), ([4, 22], [4, 3], 1), ([2, 5, 6], [2, 2, 2], 2),
         ([4, 4, 4], [2, 2, 2], 0), ([4, 21], [2, 13], 0),
         ([5, 5], [2, 2], 0), ([5, 5], [3, 3], None),
         # 110 footprints a window layer, four layers held: the rows do
         # not fit, the sweep's 2^27 entries do
         ([6, 6, 6], [4, 4, 4], None), ([4, 4], [2, 2], 0)],
    )
    def test_inclusion_exclusion_form(self, n, s, axis):
        # the window-layer form scans an axis; the whole-set sweep has none
        route = choose_route(validate_shape(n, s))
        assert (route.route, route.axis) == (INCLUSION_EXCLUSION, axis)

    @pytest.mark.parametrize(
        "n,s,axis",
        # medians of the packed scan against the fastest other form, in ms,
        # interleaved at one worker (31 rounds): [3,3]x[2,2] 0.065 / 0.108
        # (sweep), [9]x[2] 0.075 / 0.148 (sweep), [14]x[2] 0.067 / 0.155
        # (sweep), [16]x[1] 0.058 / 0.176 (transfer matrix), [4,4]x[1,1]
        # 0.061 / 0.104 (rows), [4,5]x[2,2] 0.140 / 0.185 (rows),
        # [3,8]x[2,2] 0.095 / 0.168 (rows), [20]x[3] 0.105 / 0.204
        # (transfer matrix), [4,22]x[4,3] 0.267 / 0.477 (rows), [25]x[2]
        # 0.104 / 0.266 (transfer matrix), [2,24]x[2,2] 0.165 / 0.507 (rows).
        # Past the rows' int64 bound, three runs of 11-21 rounds:
        # [3,60]x[2,3] 3.7-6.5 / 35-53 ms (transfer matrix), [5,24]x[2,3]
        # 8.2-11.4 / 236-342 ms (transfer matrix)
        [([3, 3], [2, 2], 0), ([9], [2], 0), ([14], [2], 0), ([16], [1], 0),
         ([4, 4], [1, 1], 0), ([4, 5], [2, 2], 1), ([3, 8], [2, 2], 1),
         ([20], [3], 0), ([4, 22], [4, 3], 1), ([25], [2], 0), ([2, 24], [2, 2], 1),
         ([3, 60], [2, 3], 1), ([5, 24], [2, 3], 1)],
    )
    def test_packed_polynomial(self, n, s, axis):
        route = choose_route(validate_shape(n, s))
        assert (route.route, route.axis, route.payload) == (
            INCLUSION_EXCLUSION, axis, PACKED,
        )

    @pytest.mark.parametrize("n,s", [([3, 4, 5], [2, 2, 2]), ([6, 6], [2, 2])])
    def test_rows_where_a_layer_has_many_footprints(self, n, s):
        # rows against the packed scan: [3,4,5]x[2,2,2] 0.31 against 2.0 ms,
        # [6,6]x[2,2] 0.27 against 0.69 ms
        route = choose_route(validate_shape(n, s))
        assert route.payload == POLYNOMIAL and route.axis is not None

    def test_bytes_count_only_the_chunks_in_flight(self):
        # 512 subsets make one block, run serially at any worker count
        config = EngineConfig(workers=100_000)
        shape = validate_shape([5, 5], [3, 3])
        cost = choose_route(shape, config=config)
        assert (cost.route, cost.axis) == (INCLUSION_EXCLUSION, None)
        assert cost.nbytes == choose_route(shape).nbytes

    def test_bytes_count_one_block_per_core(self, monkeypatch):
        # 30 windows make 1024 blocks; 64 workers on 2 cores hold two in
        # flight, as 2 workers do
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(engine, "memory_budget", lambda: 4e9)
        shape = validate_shape([3, 4, 6], [2, 2, 2])
        costs = [
            engine._inclusion_exclusion_cost(shape, EngineConfig(workers=w))
            for w in (1, 2, 64)
        ]
        assert costs[0].nbytes < costs[1].nbytes == costs[2].nbytes

    def test_no_route_error_gives_both_costs(self):
        with pytest.raises(ResourceLimitError) as exc:
            choose_route(validate_shape([48, 48], [3, 3]))
        message = str(exc.value)
        assert INCLUSION_EXCLUSION in message and TRANSFER_MATRIX in message
        assert "bytes" in message and "'mc'" in message


    def test_no_route_error_names_the_window_layer_form(self):
        with pytest.raises(ResourceLimitError) as exc:
            choose_route(validate_shape([48, 48], [3, 3]))
        assert re.search(
            r"inclusion-exclusion along axis [12] predicts \S+ s and \S+ bytes",
            str(exc.value),
        )


class TestRefusesBeforeAllocating:
    def _peak_bytes_while_refused(self, compute):
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match="mc"):
                compute()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_inclusion_exclusion(self):
        # a 2^39-entry zeta table: 512 GiB
        shape = validate_shape([40], [2])
        peak = self._peak_bytes_while_refused(
            lambda: inclusion_exclusion_polynomial(shape)
        )
        assert peak < 1 << 20

    def test_transfer_matrix(self):
        shape = validate_shape([12, 12], [3, 3])
        peak = self._peak_bytes_while_refused(lambda: transfer_matrix_tally(shape))
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "count",
        [lambda: failed_count(validate_shape([48, 48], [3, 3])),
         lambda: count_sequence([48, 1], [3, 3], 1, 48)],
        ids=["failed_count", "count_sequence"],
    )
    def test_counts(self, count):
        # no route fits [48,48]x[3,3]: a window layer holds 46 windows
        # along either axis, so even the value scan's support does not
        assert self._peak_bytes_while_refused(count) < 1 << 20

    def test_counts_name_the_value_scan(self):
        shape = validate_shape([48, 48], [3, 3])
        with pytest.raises(ResourceLimitError) as exc:
            failed_count(shape)
        nbytes = engine._window_layer_value_cost(shape, 0, shape.volume).nbytes
        assert f"one value per state, predicts" in str(exc.value)
        assert f"{nbytes:.3g} bytes" in str(exc.value)

    def test_value_scan(self):
        # 2^46 subsets of one window layer: the check runs before the
        # support is counted
        shape = validate_shape([48, 48], [3, 3])
        peak = self._peak_bytes_while_refused(
            lambda: engine._window_layer_values(shape, 0, Fraction(1, 2), 48)
        )
        assert peak < 1 << 20

    def test_value_scan_within_a_low_budget(self, monkeypatch):
        # the states are checked before any is built
        shape = validate_shape([10, 10], [3, 3])
        nbytes = engine._window_layer_value_cost(shape, 0, shape.volume).nbytes
        monkeypatch.setattr(engine, "memory_budget", lambda: nbytes / 2)
        peak = self._peak_bytes_while_refused(
            lambda: engine._window_layer_values(shape, 0, Fraction(1, 2), 10)
        )
        assert peak < 1 << 20

    def test_window_layer_scan(self):
        # |E| = 100: past the int64 bound the rows cost infinity, and
        # refuse before the support is counted
        shape = validate_shape([12, 12], [3, 3])
        peak = self._peak_bytes_while_refused(
            lambda: engine._window_layer_polynomial(shape, 0)
        )
        assert peak < 1 << 20

    def test_window_layer_scan_names_the_int64_bound(self):
        # |E| = 62 along axis 2: the rows refuse by their coefficient
        # width, not by a predicted cost, and point to the packed scan
        shape = validate_shape([2, 63], [2, 2])
        peak = self._peak_bytes_while_refused(
            lambda: engine._window_layer_polynomial(shape, 1)
        )
        assert peak < 1 << 20
        with pytest.raises(ResourceLimitError) as exc:
            engine._window_layer_polynomial(shape, 1)
        message = str(exc.value)
        assert "62 windows exceed the 61" in message and "int64" in message
        assert "packed scan" in message and "predicts" not in message

    def test_window_layer_scan_names_the_footprint_bound(self):
        # [2,70]x[2,70] along axis 1: a 70-cell cross-section, one window;
        # the rows refuse by their uint64 footprints and point to the
        # packed scan, which builds it (TestWindowLayerValues)
        shape = validate_shape([2, 70], [2, 70])
        peak = self._peak_bytes_while_refused(
            lambda: engine._window_layer_polynomial(shape, 0)
        )
        assert peak < 1 << 20
        with pytest.raises(ResourceLimitError) as exc:
            engine._window_layer_polynomial(shape, 0)
        message = str(exc.value)
        assert "along axis 1 has 70 cells" in message
        assert "64 bits of a footprint mask" in message
        assert "packed scan" in message and "predicts" not in message
        assert engine._window_layer_cost(shape, 0).seconds == math.inf

    def test_window_layer_scan_within_a_low_budget(self, monkeypatch):
        # |E| = 24 on int64: the rows refuse by their predicted bytes
        shape = validate_shape([3, 4, 5], [2, 2, 2])
        nbytes = engine._window_layer_cost(shape, 2).nbytes
        monkeypatch.setattr(engine, "memory_budget", lambda: nbytes / 2)
        peak = self._peak_bytes_while_refused(
            lambda: engine._window_layer_polynomial(shape, 2)
        )
        assert peak < 1 << 20

    def test_transfer_matrix_without_a_memory_report(self, monkeypatch):
        # with no physical memory to budget against, the state tensor must
        # still fit the address space: 3^70 states do not
        def unreported(name):
            raise ValueError(name)

        monkeypatch.setattr(os, "sysconf", unreported)
        shape = validate_shape([70, 70], [2, 2])
        peak = self._peak_bytes_while_refused(lambda: transfer_matrix_tally(shape))
        assert peak < 1 << 20
