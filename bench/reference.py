"""Reference results owned by the benchmark.

Nothing here imports relpoly: every value the benchmark checks the program
against is derived again from first principles.

Three exact references cover the shapes they apply to:

* a 1-D weight-tally DP in Python integers.  It covers d = 1, and every
  shape where all axes but one have ``n_r = s_r``: such a system is a 1-D
  system along the free axis whose super-cells (cross-section slabs of
  ``m = prod(other s_r)`` cells) fail with probability ``q^m``;
* the closed form ``P = 1 - (1-q)^N`` for series shapes (all ``s_r = 1``);
* a numpy enumeration of all ``2^N`` configurations for ``N <= 20``, which
  tests windows as bitmasks (not with the program's prefix-sum detector).

Every other shape is checked for the properties any correct tally has
(:func:`tally_violations`).  Polynomials are plain ``{exponent: coefficient}``
dicts; a tally ``f`` lists failed configurations by weight 0..N.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

#: Largest cell count the enumeration reference accepts (2^20 rows).
ENUMERATION_MAX_CELLS = 20


# -- polynomial and tally conversions -----------------------------------------


def tally_from_power(coeffs: dict[int, int], volume: int) -> list[int]:
    """Weight tally of P(q) = sum_k f_k q^k (1-q)^(N-k) from power coefficients.

    Uses q^j = sum_k C(N-j, k-j) q^k (1-q)^(N-k), so
    f_k = sum_{j<=k} c_j C(N-j, k-j).
    """
    f = [0] * (volume + 1)
    for j, c in coeffs.items():
        for k in range(j, volume + 1):
            f[k] += c * math.comb(volume - j, k - j)
    return f


def power_from_tally(f: list[int], volume: int) -> dict[int, int]:
    """Power coefficients of sum_k f_k q^k (1-q)^(N-k), expanded exactly."""
    coeffs: dict[int, int] = {}
    for k, fk in enumerate(f):
        if fk:
            for i in range(volume - k + 1):
                c = fk * math.comb(volume - k, i)
                coeffs[k + i] = coeffs.get(k + i, 0) + (-c if i % 2 else c)
    return {e: c for e, c in coeffs.items() if c}


def complement(coeffs: dict[int, int]) -> dict[int, int]:
    """Power coefficients of 1 - P."""
    out = {e: -c for e, c in coeffs.items()}
    out[0] = out.get(0, 0) + 1
    return {e: c for e, c in out.items() if c}


def bernstein_value(f: list[int], q: Fraction) -> Fraction:
    """Exact P(q) = sum_k f_k q^k (1-q)^(N-k) for a rational q."""
    volume = len(f) - 1
    q = Fraction(q)
    a, d = q.numerator, q.denominator
    b = d - a
    total = sum(fk * a**k * b ** (volume - k) for k, fk in enumerate(f) if fk)
    return Fraction(total, d**volume)


# -- the 1-D weight-tally DP ---------------------------------------------------


def one_dim_survivors(length: int, run: int) -> list[int]:
    """Binary strings of ``length`` with no ``run`` consecutive ones, by weight.

    DP over positions; the state is the current trailing run of ones
    (0..run-1), and each state holds a count per weight.
    """
    if run < 1:
        raise ValueError("run length must be positive")
    states = [[0] * (length + 1) for _ in range(run)]
    states[0][0] = 1
    for _ in range(length):
        nxt = [[0] * (length + 1) for _ in range(run)]
        for r, counts in enumerate(states):
            for w, c in enumerate(counts):
                if c:
                    nxt[0][w] += c  # a zero resets the run
                    if r + 1 < run:
                        nxt[r + 1][w + 1] += c  # a one extends it
        states = nxt
    return [sum(counts[w] for counts in states) for w in range(length + 1)]


def one_dim_tally(length: int, run: int) -> list[int]:
    """Failed strings (containing ``run`` consecutive ones) by weight."""
    alive = one_dim_survivors(length, run)
    return [math.comb(length, w) - alive[w] for w in range(length + 1)]


def one_dim_failure_float(length: int, run: int, x: float) -> float:
    """P(some run of ``run`` ones among ``length`` Bernoulli(x) cells), in floats.

    A Markov chain over the trailing run; every term is nonnegative, so the
    result is accurate to a few ulps of the survival probability.
    """
    alive = [1.0] + [0.0] * (run - 1)
    for _ in range(length):
        total = sum(alive)
        alive = [total * (1.0 - x)] + [alive[r] * x for r in range(run - 1)]
    return 1.0 - sum(alive)


def reduction(n, s) -> tuple[int, int, int] | None:
    """(free extent L, run k, super-cell size m) when the shape is 1-D in effect.

    Applies when every axis but (at most) one has ``n_r = s_r``; None
    otherwise, or for a non-failable shape.
    """
    if any(sr > nr for nr, sr in zip(n, s)):
        return None
    free = [r for r, (nr, sr) in enumerate(zip(n, s)) if nr != sr]
    if len(free) > 1:
        return None
    axis = free[0] if free else 0
    m = math.prod(sr for r, sr in enumerate(s) if r != axis)
    return n[axis], s[axis], m


def reduced_failure_poly(length: int, run: int, m: int) -> dict[int, int]:
    """P(q) of a reducible shape: sum_w g_w x^w (1-x)^(L-w) with x = q^m."""
    g = one_dim_tally(length, run)
    return {m * e: c for e, c in power_from_tally(g, length).items()}


# -- series closed form ----------------------------------------------------------


def series_failure_poly(volume: int) -> dict[int, int]:
    """P(q) = 1 - (1-q)^N: any failed cell fails a series system."""
    return {j: (-1) ** (j + 1) * math.comb(volume, j) for j in range(1, volume + 1)}


# -- numpy enumeration -----------------------------------------------------------


def window_bitmasks(n, s) -> list[int]:
    """Bitmask of the cells of every window placement (row-major, last axis fastest)."""
    strides = [math.prod(n[r + 1 :]) for r in range(len(n))]
    masks = []
    for corner in itertools.product(*[range(nr - sr + 1) for nr, sr in zip(n, s)]):
        mask = 0
        for cell in itertools.product(*[range(c, c + sr) for c, sr in zip(corner, s)]):
            mask |= 1 << sum(i * st for i, st in zip(cell, strides))
        masks.append(mask)
    return masks


def enumerated_tally(n, s) -> list[int]:
    """Failed configurations by weight, by testing all 2^N configurations."""
    volume = math.prod(n)
    if volume > ENUMERATION_MAX_CELLS:
        raise ValueError(f"enumeration is limited to N <= {ENUMERATION_MAX_CELLS}")
    configs = np.arange(1 << volume, dtype=np.uint32)
    failed = np.zeros(configs.shape, dtype=bool)
    for mask in window_bitmasks(n, s):
        failed |= (configs & np.uint32(mask)) == mask
    weights = np.bitwise_count(configs[failed])
    return [int(x) for x in np.bincount(weights, minlength=volume + 1)]


# -- dispatch and properties -----------------------------------------------------


def reference_failure_poly(n, s) -> tuple[str, dict[int, int]] | None:
    """(method name, exact P coefficients) from the first reference that applies."""
    n, s = tuple(n), tuple(s)
    volume = math.prod(n)
    if any(sr > nr for nr, sr in zip(n, s)):
        return "non-failable", {}
    if all(sr == 1 for sr in s):
        return "series", series_failure_poly(volume)
    red = reduction(n, s)
    if red is not None:
        return "1-D DP", reduced_failure_poly(*red)
    if volume <= ENUMERATION_MAX_CELLS:
        return "enumeration", power_from_tally(enumerated_tally(n, s), volume)
    return None


def tally_violations(f: list[int], n, s) -> list[str]:
    """Properties every failure tally of a failable shape must have.

    0 <= f_k <= C(N,k); f_k = 0 below the window volume; f at the window
    volume equals |E|; f_N = 1; and f_k / C(N,k) is non-decreasing in k,
    since failure is monotone in the set of failed cells.
    """
    volume = math.prod(n)
    window = math.prod(s)
    windows = math.prod(nr - sr + 1 for nr, sr in zip(n, s))
    bad = []
    if len(f) != volume + 1:
        return [f"tally has {len(f)} entries, expected {volume + 1}"]
    for k, fk in enumerate(f):
        if not 0 <= fk <= math.comb(volume, k):
            bad.append(f"f_{k} = {fk} outside [0, C({volume},{k})]")
        if k < window and fk:
            bad.append(f"f_{k} = {fk} below the window volume {window}")
    if f[window] != windows:
        bad.append(f"f_{window} = {f[window]}, expected |E| = {windows}")
    if f[volume] != 1:
        bad.append(f"f_N = {f[volume]}, expected 1")
    for k in range(volume):
        # f_{k+1} / C(N,k+1) >= f_k / C(N,k), cross-multiplied
        if f[k + 1] * math.comb(volume, k) < f[k] * math.comb(volume, k + 1):
            bad.append(f"f_k / C(N,k) decreases at k = {k}")
    return bad
