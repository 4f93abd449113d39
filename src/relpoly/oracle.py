"""Independent ground truth by exhaustive enumeration.

Everything here is deliberately direct: enumerate all 2^N configurations,
detect an all-ones window by separable box erosion (shifted ANDs along each
axis), tally failures by weight, and rebuild the failure polynomial from
the tally.  No counting shortcuts, so the results are trustworthy checks
for both of the engine's exact routes, inclusion-exclusion and the
transfer matrix.  Monte Carlo classifies its draws with the same
detector; :func:`naive_window_scan` is its cell-by-cell reference.  A
classic 1-D reliability recursion is included as a further, independently
derived route for d=1.

The oracle never imports the engine; window placements are re-derived
locally from the shape.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import IntPolynomial, ResourceLimitError, SystemShape

__all__ = [
    "DEFAULT_ORACLE_CAP",
    "WeightTally",
    "brute_force_tally",
    "detect_failures",
    "tally_to_polynomial",
]

#: brute_force_tally refuses instances with more than this many cells.
DEFAULT_ORACLE_CAP = 24

_TALLY_CHUNK = 1 << 18


@dataclass(frozen=True)
class BinaryArray:
    """One concrete 0/1 configuration of a shape's cells.

    Bit i of ``bits`` is the cell at flat row-major index i, where cell
    (i_1, ..., i_d) with 0-based coordinates maps to
    ``(((i_1 * n_2) + i_2) * n_3 + ...) + i_d`` (last axis fastest).
    """

    shape: SystemShape
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < (1 << self.shape.volume):
            raise ValueError("bit pattern wider than the array volume")

    @classmethod
    def from_cells(cls, shape: SystemShape, cells: Sequence[int]) -> "BinaryArray":
        if len(cells) != shape.volume:
            raise ValueError(
                f"expected {shape.volume} cells, got {len(cells)}"
            )
        bits = 0
        for i, v in enumerate(cells):
            if v not in (0, 1):
                raise ValueError(f"cell values must be 0 or 1, got {v!r}")
            bits |= v << i
        return cls(shape, bits)

    def cell(self, coords: Sequence[int]) -> int:
        """Value at 0-based coordinates."""
        idx = 0
        for i, nr in zip(coords, self.shape.n):
            if not 0 <= i < nr:
                raise IndexError(f"coordinate {list(coords)} out of range")
            idx = idx * nr + i
        return self.bits >> idx & 1

    @property
    def weight(self) -> int:
        """Number of 1-cells."""
        return self.bits.bit_count()


def detect_failures(shape: SystemShape, patterns: np.ndarray) -> np.ndarray:
    """Classify a batch of configurations: does any window come up all ones?

    ``patterns`` is a (B, N) 0/1 array, rows in the flat bit order of
    :class:`BinaryArray`; any dtype, but a non-bool array holding a value
    other than 0 or 1 raises ValueError.  Returns a length-B bool array.

    Separable box erosion (van Herk 1992; Gil & Werman 1993): viewed as
    ``(B, *n)`` bool, each axis r is folded with
    ``a = a[:len - step] & a[step:]`` while the run length it certifies
    grows 1, 2, 4, ... up to exactly ``s_r`` (the last step is shortened),
    so ``ceil(log2 s_r)`` ANDs per axis.  A surviving position is the
    corner of an all-ones window.  No integer table is built: the peak is
    two bool arrays of at most the batch's size besides the input.
    """
    patterns = np.asarray(patterns)
    if patterns.ndim != 2 or patterns.shape[1] != shape.volume:
        raise ValueError(f"expected a (batch, {shape.volume}) array")
    if patterns.dtype != bool:
        cells = patterns.astype(bool)
        if np.any(cells != patterns):
            raise ValueError("pattern cells must be 0 or 1")
        patterns = cells
    batch = patterns.shape[0]
    if not shape.failable or batch == 0:
        return np.zeros(batch, dtype=bool)

    a = patterns.reshape(batch, *shape.n)
    for axis, sr in enumerate(shape.s, start=1):
        lead = (slice(None),) * axis
        run = 1
        while run < sr:
            step = min(run, sr - run)
            a = a[lead + (slice(None, -step),)] & a[lead + (slice(step, None),)]
            run += step
    return a.reshape(batch, -1).any(axis=1)


def has_failure_window(arr: BinaryArray) -> bool:
    """True iff the configuration contains a contiguous all-ones window."""
    n = arr.shape.volume
    row = np.fromiter((arr.bits >> i & 1 for i in range(n)), dtype=bool, count=n)
    return bool(detect_failures(arr.shape, row.reshape(1, n))[0])


def naive_window_scan(arr: BinaryArray) -> bool:
    """Reference detector: test every window cell-by-cell, no tables."""
    shape = arr.shape
    if not shape.failable:
        return False
    corner_ranges = [range(nr - sr + 1) for nr, sr in zip(shape.n, shape.s)]
    for corner in itertools.product(*corner_ranges):
        cells = itertools.product(
            *[range(c, c + sr) for c, sr in zip(corner, shape.s)]
        )
        if all(arr.cell(coords) for coords in cells):
            return True
    return False


@dataclass(frozen=True)
class WeightTally:
    """Failed-configuration counts by number of 1-cells.

    ``f[k]`` is the number of failed configurations of weight k; the vector
    runs from 0 to N inclusive.
    """

    shape: SystemShape
    f: tuple[int, ...]

    def __post_init__(self):
        if len(self.f) != self.shape.volume + 1:
            raise ValueError("tally must have one entry per weight 0..N")

    @property
    def total(self) -> int:
        """Total failed configurations (the count a)."""
        return sum(self.f)


def brute_force_tally(shape: SystemShape) -> WeightTally:
    """Sweep all 2^N configurations and tally failures by weight.

    Patterns are processed in index-range chunks: the indices' little-endian
    bytes are unpacked into bool rows in the flat bit order of
    :class:`BinaryArray`, and each chunk is classified with
    :func:`detect_failures`.  Refuses past :data:`DEFAULT_ORACLE_CAP` cells.
    """
    volume = shape.volume
    if volume > DEFAULT_ORACLE_CAP:
        raise ResourceLimitError(
            f"brute force over 2^{volume} configurations exceeds the oracle "
            f"cap of N <= {DEFAULT_ORACLE_CAP}"
        )
    f = np.zeros(volume + 1, dtype=np.int64)
    if shape.failable:
        for start in range(0, 1 << volume, _TALLY_CHUNK):
            idx = np.arange(
                start, min(start + _TALLY_CHUNK, 1 << volume), dtype="<u8"
            )
            patterns = np.unpackbits(
                idx.view(np.uint8).reshape(-1, 8),
                axis=1,
                count=volume,
                bitorder="little",
            ).view(bool)
            failed = detect_failures(shape, patterns)
            weights = np.bitwise_count(idx[failed])
            f += np.bincount(weights, minlength=volume + 1)
    return WeightTally(shape, tuple(int(x) for x in f))


def tally_to_polynomial(tally: WeightTally) -> IntPolynomial:
    """Rebuild P(q) = sum_k f_k q^k (1-q)^(N-k), expanded exactly.

    Horner in ``1 - q``: after step k the accumulator holds
    ``sum_{j<=k} f_j q^j (1-q)^(k-j)``, so each step multiplies it by
    ``1 - q`` (one vectorised subtraction of the shifted coefficients) and
    adds ``f_k q^k``.  Coefficients are Python ints in an object array.
    """
    coeffs = np.zeros(len(tally.f), dtype=object)
    for k, fk in enumerate(tally.f):
        coeffs[1 : k + 1] -= coeffs[:k]
        coeffs[k] += fk
    return IntPolynomial(enumerate(coeffs.tolist()))


def one_dim_recursion(k: int, n: int, q: Fraction | int) -> Fraction:
    """Reliability of the 1-D system, by the classic linear recursion.

    With fewer than k nodes the system cannot fail; with exactly k it
    survives unless all k nodes fail; beyond that each extra node removes
    the configurations whose new node completes a failing run:

        R_m = R_{m-1} - (1 - q) * q^k * R_{m-k-1}   for m > k.

    Evaluated exactly in rational arithmetic.  A derivation lineage
    independent of both engine routes, used to triangulate d=1 results.
    """
    if k < 1:
        raise ValueError(f"run length k must be positive, got {k}")
    if n < 0:
        raise ValueError(f"node count n must be non-negative, got {n}")
    q = Fraction(q)
    if n < k:
        return Fraction(1)
    values = [Fraction(1)] * k + [1 - q**k]  # R_0 .. R_k
    step = (1 - q) * q**k
    for m in range(k + 1, n + 1):
        values.append(values[m - 1] - step * values[m - k - 1])
    return values[n]
