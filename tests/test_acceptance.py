"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The sweeps share a module-scoped cache of engine polynomials and
oracle tallies over the fixed shape catalog (every failable shape with
d <= 3 and N <= 16, plus spot shapes up to N = 20).
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import (
    catalog,
    one_dim_recursion,
    subset_sum_polynomial,
    union_exponent_by_cells,
    union_exponents_by_ie,
)
from relpoly import (
    EngineConfig,
    IntPolynomial,
    brute_force_tally,
    build_cell_mask_table,
    count_sequence,
    enumerate_elementary_failures,
    estimate_failure_probability,
    failed_count,
    failure_polynomial,
    reliability_polynomial,
    validate_shape,
)
from relpoly.cli import main
from relpoly.engine import inclusion_exclusion_polynomial, transfer_matrix_tally

SPOT_SHAPES = [
    ([17], [2]),
    ([20], [3]),
    ([4, 5], [2, 2]),
    ([2, 10], [2, 4]),
    ([3, 3, 2], [2, 2, 1]),
]

GOLDEN_TEXT = {
    ("2", "1"): "1 - 2q + q^2",
    ("2,3", "1,2"): "1 - 4q^2 + 2q^3 + 4q^4 - 4q^5 + q^6",
    ("2,3,4", "1,2,3"): (
        "1 - 8q^6 + 4q^8 + 4q^9 + 4q^10 - 8q^11 + 18q^12 - 16q^14 - 16q^15"
        " - 12q^16 + 40q^17 + 4q^18 - 8q^19 - 8q^20 - 12q^21 + 20q^22"
        " - 8q^23 + q^24"
    ),
}


@contextmanager
def criterion(num: int, name: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[criterion {num}] {name}: FAIL")
        raise
    print(f"\n[criterion {num}] {name}: PASS ({time.perf_counter() - started:.1f}s)")


def all_shapes():
    return catalog(max_volume=16) + [validate_shape(n, s) for n, s in SPOT_SHAPES]


_CACHE: dict = {}


def computed():
    """shape -> (inclusion-exclusion failure polynomial, oracle weight
    tally), memoized.

    The first caller (criterion 2) pays the computation inside its timed
    window; later criteria reuse the cache.
    """
    if not _CACHE:
        for shape in all_shapes():
            _CACHE[shape] = (
                inclusion_exclusion_polynomial(shape),
                brute_force_tally(shape),
            )
    return _CACHE


def test_criterion_1_paper_golden_polynomials(capsys):
    with criterion(1, "paper golden polynomials"):
        started = time.perf_counter()
        for (n, s), expected in GOLDEN_TEXT.items():
            code = main(["poly", "--n", n, "--s", s, "--target", "r"])
            out = capsys.readouterr().out
            assert code == 0
            assert out.strip() == expected, (n, s)
        assert time.perf_counter() - started < 1.0


def test_criterion_2_oracle_equivalence_sweep():
    with criterion(2, "oracle equivalence sweep"):
        started = time.perf_counter()
        from relpoly.oracle import tally_to_polynomial

        for shape, (engine_poly, tally) in computed().items():
            assert engine_poly == tally_to_polynomial(tally), shape
            # every configuration is equally likely at q = 1/2
            count = engine_poly.eval_rational(Fraction(1, 2)) * 2**shape.volume
            assert count == tally.total, shape
        assert time.perf_counter() - started < 300.0


def test_criterion_3_inner_ie_equivalence():
    with criterion(3, "inner inclusion-exclusion equivalence"):
        shapes = all_shapes()
        for shape in shapes:
            m = shape.num_windows
            if m > 10:
                continue
            table = build_cell_mask_table(shape)
            unions = union_exponents_by_ie(shape, enumerate_elementary_failures(shape))
            for bits in range(1, 1 << m):
                assert union_exponent_by_cells(table, bits) == unions[bits], (
                    shape,
                    bits,
                )
        # the zeta sweep against the per-subset cell route, summand by summand
        for shape in shapes:
            if shape.num_windows > 12:
                continue
            summed = subset_sum_polynomial(shape)
            assert inclusion_exclusion_polynomial(shape) == summed, shape


def test_criterion_4_count_sequences():
    with criterion(4, "failed-count sequences vs oracle"):
        for k, n_start in [(2, 2), (3, 3), (4, 4)]:
            got = count_sequence([n_start], [k], 0, 12)
            oracle = [
                brute_force_tally(validate_shape([n], [k])).total
                for n in range(n_start, 13)
            ]
            assert got == oracle, k
        assert count_sequence([2], [2], 0, 5) == [1, 3, 8, 19]

        for n in range(2, 5):
            shape = validate_shape([n, n], [2, 2])
            assert failed_count(shape) == brute_force_tally(shape).total, n

        got = count_sequence([2, 2], [2, 2], 1, 4)
        oracle = [
            brute_force_tally(validate_shape([2, m], [2, 2])).total
            for m in range(2, 5)
        ]
        assert got == oracle == [1, 7, 40]


def test_criterion_5_normalization_and_shape_properties():
    with criterion(5, "normalization and shape properties"):
        cache = computed()
        for shape, (p, tally) in cache.items():
            assert p.eval_rational(Fraction(0)) == 0, shape
            assert p.eval_rational(Fraction(1)) == 1, shape
            assert reliability_polynomial(shape) + p == IntPolynomial.one(), shape
            assert p.lowest_term() == (shape.window_volume, shape.num_windows), shape
            # the only failing arrays of minimal weight are the window
            # placements themselves
            assert tally.f[shape.window_volume] == shape.num_windows, shape
            for order in itertools.permutations(range(shape.d)):
                permuted = shape.permuted(order)
                if permuted in cache:
                    other = cache[permuted][0]
                else:
                    other = failure_polynomial(permuted)
                assert other == p, (shape, order)


def test_criterion_6_one_dim_triangulation():
    with criterion(6, "1-D triangulation against the recursion"):
        points = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2))
        for k in range(1, 6):
            for n in range(1, 31):
                poly = 1 - inclusion_exclusion_polynomial(validate_shape([n], [k]))
                for q in points:
                    assert poly.eval_rational(q) == one_dim_recursion(k, n, q), (
                        k, n, q,
                    )


def test_criterion_7_monte_carlo_consistency():
    with criterion(7, "Monte Carlo consistency and coverage"):
        started = time.perf_counter()
        shape = validate_shape([4, 4], [2, 2])
        exact = failure_polynomial(shape).eval_float(0.3)

        est = estimate_failure_probability(shape, 0.3, 100_000, 7)
        assert abs(est.p_hat - exact) <= 3 * est.stderr

        hits = 0
        for seed in range(100):
            e = estimate_failure_probability(shape, 0.3, 5000, seed)
            if e.ci95[0] <= exact <= e.ci95[1]:
                hits += 1
        assert hits >= 90, hits
        assert time.perf_counter() - started < 60.0


def test_criterion_8_determinism_under_parallelism():
    with criterion(8, "determinism under parallelism"):
        shape = validate_shape([17], [2])
        assert shape.num_windows >= 16
        polys = [
            inclusion_exclusion_polynomial(shape, config=EngineConfig(workers=w))
            for w in (1, 2, 8)
        ]
        assert polys[0] == polys[1] == polys[2]


def test_transfer_matrix_oracle_sweep():
    # the third exact lineage: the transfer-matrix tally equals the oracle's
    # on every shape of the sweep
    for shape, (_, tally) in computed().items():
        assert transfer_matrix_tally(shape) == tally, shape
