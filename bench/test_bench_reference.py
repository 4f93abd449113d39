"""Tests of the benchmark's own references and output checks.

Every reference is compared with a pure-Python brute force that re-derives
window cells from coordinates; none of this imports relpoly.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import reference as ref
import workloads as wl


def brute_tally(n, s):
    """Failed configurations by weight, testing every window cell by cell."""
    volume = math.prod(n)
    windows = [
        [int(np.ravel_multi_index(cell, n)) for cell in itertools.product(*[range(c, c + w) for c, w in zip(corner, s)])]
        for corner in itertools.product(*[range(x - w + 1) for x, w in zip(n, s)])
    ]
    f = [0] * (volume + 1)
    for bits in range(1 << volume):
        if any(all(bits >> c & 1 for c in cells) for cells in windows):
            f[bin(bits).count("1")] += 1
    return f


@pytest.mark.parametrize("length", range(1, 11))
@pytest.mark.parametrize("run", range(1, 5))
def test_one_dim_tally_matches_brute_force(length, run):
    assert ref.one_dim_tally(length, run) == brute_tally((length,), (run,))


@pytest.mark.parametrize(
    "n, s", [((2, 5), (2, 2)), ((3, 4), (3, 2)), ((2, 2, 4), (2, 2, 3)), ((4, 3), (2, 3)), ((2, 2), (2, 2))]
)
def test_reduced_shapes_match_brute_force(n, s):
    assert ref.reduction(n, s) is not None
    method, coeffs = ref.reference_failure_poly(n, s)
    assert method == "1-D DP"
    assert coeffs == ref.power_from_tally(brute_tally(n, s), math.prod(n))


@pytest.mark.parametrize("n", [(5,), (2, 3), (2, 2, 2)])
def test_series_closed_form_matches_brute_force(n):
    s = (1,) * len(n)
    method, coeffs = ref.reference_failure_poly(n, s)
    assert method == "series"
    assert coeffs == ref.power_from_tally(brute_tally(n, s), math.prod(n))


@pytest.mark.parametrize("n, s", [((3, 4), (2, 2)), ((2, 3, 2), (2, 2, 1)), ((4, 4), (2, 3)), ((3, 3), (2, 2))])
def test_enumeration_matches_brute_force(n, s):
    assert ref.enumerated_tally(n, s) == brute_tally(n, s)
    assert ref.reference_failure_poly(n, s)[0] == "enumeration"


def test_no_reference_beyond_the_enumeration_limit():
    assert ref.reference_failure_poly((5, 5), (2, 2)) is None
    with pytest.raises(ValueError):
        ref.enumerated_tally((3, 7), (2, 2))


def test_tally_and_power_bases_round_trip():
    rng = random.Random(5)
    for volume in (1, 4, 9):
        f = [rng.randrange(0, math.comb(volume, k) + 1) for k in range(volume + 1)]
        assert ref.tally_from_power(ref.power_from_tally(f, volume), volume) == f


def test_bernstein_value_matches_power_form():
    f = brute_tally((3, 3), (2, 2))
    coeffs = ref.power_from_tally(f, 9)
    for q in (Fraction(1, 3), Fraction(7, 8), Fraction(0), Fraction(1)):
        assert ref.bernstein_value(f, q) == sum(c * q**e for e, c in coeffs.items())


def test_one_dim_failure_float_matches_exact():
    for length, run, x in [(12, 3, 0.4), (30, 2, 0.1), (7, 7, 0.9)]:
        exact = ref.bernstein_value(ref.one_dim_tally(length, run), Fraction(x))
        assert ref.one_dim_failure_float(length, run, x) == pytest.approx(float(exact), rel=1e-12, abs=1e-15)


def test_tally_properties_hold_for_references_and_catch_faults():
    n, s = (3, 4), (2, 2)
    f = ref.enumerated_tally(n, s)
    assert ref.tally_violations(f, n, s) == []
    broken = {
        "negative": lambda g: g.__setitem__(6, -1),
        "below window": lambda g: g.__setitem__(3, 1),
        "|E|": lambda g: g.__setitem__(4, g[4] + 1),
        "f_N": lambda g: g.__setitem__(12, 2),
        "monotone": lambda g: g.__setitem__(11, 1),
    }
    for why, tamper in broken.items():
        g = list(f)
        tamper(g)
        assert ref.tally_violations(g, n, s), why


def test_poly_check_flags_a_wrong_coefficient():
    n, s = (4, 5), (2, 2)
    coeffs = dict(ref.reference_failure_poly(n, s)[1])
    assert wl.check_failure_poly(n, s, coeffs) == (wl.OK, "enumeration")
    coeffs[10] += 1
    assert wl.check_failure_poly(n, s, coeffs)[0] == wl.WRONG


def test_float_check_uses_the_stated_tolerance():
    exact = Fraction(1, 3)
    volume = 20
    tol = wl.FLOAT_TOL_UNITS * volume * 2.0**-52 / 3
    assert wl.check_float(float(exact), exact, volume)[0] == wl.OK
    assert wl.check_float(1 / 3 + 2 * tol, exact, volume)[0] == wl.FAILED
    assert wl.check_float(-1e-20, Fraction(1, 10**30), volume)[0] == wl.FAILED


def test_mc_check_uses_five_standard_errors():
    n, s, q, samples = (4, 64), (4, 3), 0.65, 10_000
    p = wl.mc_reference(n, s, q)
    stderr = math.sqrt(p * (1 - p) / samples)
    assert wl.check_mc_counts(n, s, q, samples, round(samples * (p + 4 * stderr)))[0] == wl.OK
    assert wl.check_mc_counts(n, s, q, samples, round(samples * (p + 6 * stderr)))[0] == wl.WRONG


def test_poly_text_parser():
    assert wl.parse_poly_text("1 - 4q^2 + 2q^3 + q^6") == {0: 1, 2: -4, 3: 2, 6: 1}
    assert wl.parse_poly_text("-q + 3q^2") == {1: -1, 2: 3}
    assert wl.parse_poly_text("0") == {}
