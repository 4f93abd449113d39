"""Independent ground truth by exhaustive enumeration.

Everything here is deliberately direct: enumerate all 2^N configurations,
detect an all-ones window by separable box erosion (shifted ANDs along each
axis), tally failures by weight, and rebuild the failure polynomial from
the tally.  No counting shortcuts, so the results are trustworthy checks
for both of the engine's exact routes, inclusion-exclusion and the
transfer matrix.  Monte Carlo classifies its draws with the same
detector.

The oracle never imports the engine; window placements are re-derived
locally from the shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .model import IntPolynomial, ResourceLimitError, SystemShape

if TYPE_CHECKING:
    import numpy as np

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


def detect_failures(shape: SystemShape, patterns: np.ndarray) -> np.ndarray:
    """Classify a batch of configurations: does any window come up all ones?

    ``patterns`` is a (B, N) 0/1 array.  Column i of a row is the cell at
    flat index i, row-major with the last axis fastest: cell
    (i_1, ..., i_d), 0-based, is column
    ``(((i_1 * n_2) + i_2) * n_3 + ...) + i_d``.  Any dtype, but a non-bool
    array holding a value other than 0 or 1 raises ValueError.  Returns a
    length-B bool array.

    Separable box erosion (van Herk 1992; Gil & Werman 1993) on one flat,
    row-major bool copy of the batch, in which a step along axis r is a
    step of ``stride_r = n_{r+1} * ... * n_d`` positions.  Each axis r is
    folded in place with ``a[:-k] &= a[k:]``, ``k = stride_r * step``,
    while the run length it certifies grows 1, 2, 4, ... up to exactly
    ``s_r`` (the last step is shortened), so ``ceil(log2 s_r)`` ANDs per
    axis.  Each position reads only itself and a later one, so numpy needs
    no temporary.  A valid corner (``i_r <= n_r - s_r`` on every axis) that
    survives is the corner of an all-ones window; its window never crosses
    a row or a sample, so the junk the shifts leave elsewhere is never
    read.  ``any`` runs over a view of the valid corners.  The input is
    never written; for a bool input the peak is one bool copy plus O(B).
    """
    import numpy as np

    patterns = np.asarray(patterns)
    if patterns.ndim != 2 or patterns.shape[1] != shape.volume:
        raise ValueError(f"expected a (batch, {shape.volume}) array")
    cells = patterns.astype(bool, order="C")
    if patterns.dtype != bool and np.any(cells != patterns):
        raise ValueError("pattern cells must be 0 or 1")
    batch = patterns.shape[0]
    if not shape.failable or batch == 0:
        return np.zeros(batch, dtype=bool)

    flat = cells.reshape(-1)
    stride = shape.volume
    for nr, sr in zip(shape.n, shape.s):
        stride //= nr
        run = 1
        while run < sr:
            step = min(run, sr - run)
            shift = stride * step
            np.bitwise_and(flat[:-shift], flat[shift:], out=flat[:-shift])
            run += step
    valid = tuple(slice(nr - sr + 1) for nr, sr in zip(shape.n, shape.s))
    corners = cells.reshape(batch, *shape.n)[(slice(None), *valid)]
    return corners.any(axis=tuple(range(1, shape.d + 1)))


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
    bytes are unpacked into bool rows, bit i of an index into column i, and
    each chunk is classified with :func:`detect_failures`.  Refuses past :data:`DEFAULT_ORACLE_CAP` cells.
    """
    volume = shape.volume
    if volume > DEFAULT_ORACLE_CAP:
        raise ResourceLimitError(
            f"brute force over 2^{volume} configurations exceeds the oracle "
            f"cap of N <= {DEFAULT_ORACLE_CAP}"
        )
    import numpy as np

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
    import numpy as np

    coeffs = np.zeros(len(tally.f), dtype=object)
    for k, fk in enumerate(tally.f):
        coeffs[1 : k + 1] -= coeffs[:k]
        coeffs[k] += fk
    return IntPolynomial(enumerate(coeffs.tolist()))

