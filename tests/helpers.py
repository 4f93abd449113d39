"""Shared test utilities: the shape catalog, a tiny set-based window model,
and the reference routines the package is checked against.

The catalog is the fixed universe the equivalence suites sweep: every
failable shape of dimension up to 3 whose cell count stays within a cap.
The set-based helpers re-derive window geometry from first principles
(explicit cell sets), independent of both the engine and the oracle.  The
references compute union volumes, window detection and the 1-D
reliability by routes the package does not take.
"""

import itertools
from fractions import Fraction

from relpoly import (
    IntPolynomial,
    SystemShape,
    build_cell_mask_table,
    validate_shape,
)


def extent_tuples(d, max_volume):
    """All d-tuples of positive extents whose product is <= max_volume."""
    if d == 0:
        yield ()
        return
    for first in range(1, max_volume + 1):
        for rest in extent_tuples(d - 1, max_volume // first):
            yield (first, *rest)


def catalog(max_volume=16, dims=(1, 2, 3)):
    """Every failable shape with d in dims and volume <= max_volume."""
    shapes = []
    for d in dims:
        for n in extent_tuples(d, max_volume):
            for s in itertools.product(*[range(1, x + 1) for x in n]):
                shapes.append(validate_shape(n, s))
    return shapes


def window_cells(shape: SystemShape, offsets):
    """Cells of one window as a set of 0-based coordinate tuples."""
    return set(
        itertools.product(
            *[range(e - 1, e - 1 + sr) for e, sr in zip(offsets, shape.s)]
        )
    )


def union_cells(shape, group):
    cells = set()
    for e in group:
        cells |= window_cells(shape, e)
    return cells


def intersection_cells(shape, group):
    group = list(group)
    cells = window_cells(shape, group[0])
    for e in group[1:]:
        cells &= window_cells(shape, e)
    return cells


def intersection_volume(shape, group):
    """Cells common to all windows of a nonempty group of offsets: per axis
    the windows overlap in ``max(0, s_r - (max e_r - min e_r))`` cells."""
    vol = 1
    for axis, sr in enumerate(shape.s):
        offs = [e[axis] for e in group]
        vol *= max(0, sr - (max(offs) - min(offs)))
        if vol == 0:
            break
    return vol


def signed_intersection_volumes(shape, windows):
    """``(-1)^(|J|+1)`` times the intersection volume of each subset J of
    ``windows``, indexed by bitmask; entry 0, the empty subset, is 0."""
    m = len(windows)
    signed = [0] * (1 << m)
    for bits in range(1, 1 << m):
        sub = [windows[j] for j in range(m) if bits >> j & 1]
        sign = 1 if bits.bit_count() % 2 else -1
        signed[bits] = sign * intersection_volume(shape, sub)
    return signed


def union_exponent_by_ie(shape, group):
    """Cells covered by the union of the windows, by inner inclusion-exclusion
    over the intersection volumes of every nonempty subgroup (cost 2^|group|)."""
    return sum(signed_intersection_volumes(shape, group))


def union_exponents_by_ie(shape, windows):
    """:func:`union_exponent_by_ie` of every subset of ``windows``, indexed
    by bitmask.  Each subset's intersection volume is computed once (2^m
    calls); each mask then sums the signed volumes of its nonempty
    submasks, walked by ``sub = (sub - 1) & bits`` (3^m additions)."""
    signed = signed_intersection_volumes(shape, windows)
    unions = [0] * len(signed)
    for bits in range(1, len(signed)):
        sub = bits
        while sub:
            unions[bits] += signed[sub]
            sub = (sub - 1) & bits
    return unions


def union_exponent_by_cells(table, subset_mask):
    """Cells covered by the union of the windows selected by ``subset_mask``:
    those whose coverage mask intersects the subset."""
    if subset_mask == 0:
        raise ValueError("subset mask must be nonzero")
    return sum(mult for mask, mult in table.groups if mask & subset_mask)


def subset_sum_polynomial(shape):
    """The failure polynomial summed term by term: ``(-1)^(|J|+1) q^k(J)``
    over every nonempty window subset J, ``k(J)`` by
    :func:`union_exponent_by_cells`."""
    table = build_cell_mask_table(shape)
    return IntPolynomial(
        (union_exponent_by_cells(table, bits), 1 if bits.bit_count() % 2 else -1)
        for bits in range(1, 1 << table.num_windows)
    )


def naive_window_scan(shape, bits):
    """Reference detector: is some window all ones, cell set by cell set?

    Bit i of ``bits`` is the cell at flat index i, row-major with the last
    axis fastest, which is the order ``itertools.product`` lists cells in.
    """
    cells = itertools.product(*map(range, shape.n))
    ones = {c for i, c in enumerate(cells) if bits >> i & 1}
    corners = itertools.product(
        *[range(1, nr - sr + 2) for nr, sr in zip(shape.n, shape.s)]
    )
    return any(window_cells(shape, e) <= ones for e in corners)


def layer_support_by_subsets(cross_n, cross_s):
    """Footprints of one window layer's subsets with their signed counts,
    by listing all 2^W subsets of its W windows, none merged on the way.

    The windows are the ``cross_s`` boxes of the ``cross_n`` cross-section,
    built as cell sets; the footprint of a subset is the bitmask of the
    cells its windows cover, bit i the cell at flat index i (row-major, the
    order ``itertools.product`` lists cells in).  Returns the footprints
    whose signed count, the sum of ``(-1)^|J|`` over their subsets J, is not
    zero, ascending, and those counts.
    """
    cells = list(itertools.product(*map(range, cross_n)))
    corners = itertools.product(
        *[range(nr - sr + 1) for nr, sr in zip(cross_n, cross_s)]
    )
    boxes = [
        {tuple(c + o for c, o in zip(corner, offs))
         for offs in itertools.product(*map(range, cross_s))}
        for corner in corners
    ]
    masks = [sum(1 << i for i, c in enumerate(cells) if c in box) for box in boxes]
    counts = {}
    for bits in range(1 << len(masks)):
        foot = 0
        for j, mask in enumerate(masks):
            if bits >> j & 1:
                foot |= mask
        counts[foot] = counts.get(foot, 0) + (-1) ** bits.bit_count()
    support = sorted(f for f, c in counts.items() if c)
    return tuple(support), tuple(counts[f] for f in support)


def one_dim_recursion(k, n, q):
    """Reliability of the 1-D system, by the classic linear recursion.

    With fewer than k nodes the system cannot fail; with exactly k it
    survives unless all k nodes fail; beyond that each extra node removes
    the configurations whose new node completes a failing run:

        R_m = R_{m-1} - (1 - q) * q^k * R_{m-k-1}   for m > k.

    Evaluated exactly in rational arithmetic.
    """
    if k < 1:
        raise ValueError(f"run length k must be positive, got {k}")
    if n < 0:
        raise ValueError(f"node count n must be non-negative, got {n}")
    q = Fraction(q)
    values = [Fraction(1)] * k + [1 - q**k]  # R_0 .. R_k
    step = (1 - q) * q**k
    for m in range(k + 1, n + 1):
        values.append(values[m - 1] - step * values[m - k - 1])
    return values[n]
