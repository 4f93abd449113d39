"""Exact failure/reliability polynomials by inclusion-exclusion.

An *elementary failure* is a placement of the ``s_1 x ... x s_d`` window
inside the array, identified by the 1-based offsets ``e`` of its minimal
corner; there are ``|E| = prod(n_r - s_r + 1)`` of them.  The failure
polynomial is the inclusion-exclusion sum over all nonempty subsets J of E:

    P(q) = sum over J of (-1)^(|J|+1) * q^k(J)

where ``k(J)`` counts the cells in the union of the windows of J.  The sum
has ``2^|E| - 1`` terms, so the per-term exponent must be cheap.  Two
per-subset exponent routines serve as references:

* ``union_exponent_by_ie`` -- an inner inclusion-exclusion over subsets of
  J whose terms are box-intersection volumes (per-axis extents
  ``max(0, s_r - (max e_r - min e_r))``).
* ``union_exponent_by_cells`` -- every lattice cell knows the bitmask of
  windows covering it; ``k(J)`` is the number of cells whose mask
  intersects J.  Equality of the two routines is a tested invariant.

:func:`failure_polynomial` computes every exponent at once: one subset-sum
(zeta) transform over the cell masks, O(2^|E| * |E|), turns each ``k(J)``
into a table lookup, and the sweep tallies the lookups by exponent and sign
in vectorized chunks.  :func:`iter_subset_terms` yields the same summands
one at a time through ``union_exponent_by_cells``, as the reference the
sweep is tested against.

The worker rule lives here as well: :func:`resolve_workers` reads
``RELPOLY_WORKERS`` and :func:`ordered_map` runs jobs on a thread pool in
job order.  The Monte Carlo estimator uses both.
"""

from __future__ import annotations

import itertools
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .model import (
    IntPolynomial,
    ResourceLimitError,
    SystemShape,
    validate_shape,
)

__all__ = [
    "DEFAULT_INNER_IE_LIMIT",
    "DEFAULT_SUBSET_BOUND",
    "WORKERS_ENV_VAR",
    "CellMaskTable",
    "EngineConfig",
    "SubsetTerm",
    "build_cell_mask_table",
    "count_sequence",
    "enumerate_elementary_failures",
    "failed_count",
    "failure_polynomial",
    "intersection_volume",
    "iter_subset_terms",
    "pair_overlap_extent",
    "reliability_polynomial",
    "union_exponent_by_cells",
    "union_exponent_by_ie",
]

#: Offsets of one elementary failure: 1-based minimal corner, one per axis.
Offsets = tuple[int, ...]

#: Exact computation refuses instances with more than this many windows
#: (the sweep is 2^|E|).  Overridable via EngineConfig.
DEFAULT_SUBSET_BOUND = 26

#: union_exponent_by_ie refuses subsets larger than this (cost 2^|J|).
DEFAULT_INNER_IE_LIMIT = 20

#: Environment variable consulted when no worker count is passed.
WORKERS_ENV_VAR = "RELPOLY_WORKERS"

# Work is split into fixed-size chunks of subset indices regardless of the
# worker count, and merged by commutative integer addition, so results are
# bit-identical for any worker count.
_ZETA_CHUNK = 1 << 22


def resolve_workers(workers: int | None) -> int:
    """The worker count to use: ``workers``, or RELPOLY_WORKERS when None.

    An unset variable means 1.  Raises ValueError for a count below 1 and
    for a variable that is not a positive integer, naming the variable.
    """
    if workers is None:
        text = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(text)
        except ValueError:
            workers = 0
        if workers < 1:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be a positive integer, got {text!r}"
            )
    elif workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")
    return workers


def ordered_map(fn, jobs: Sequence[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]``, on a thread pool when that can help.

    Results come back in job order, so any downstream merge sees the same
    sequence regardless of worker count or scheduling.
    """
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda job: fn(*job), jobs))


@dataclass(frozen=True)
class EngineConfig:
    """Resource caps for the exact sweep.

    ``subset_bound`` is the largest window count |E| the sweep accepts; its
    zeta table has 2^|E| entries.  ``workers=None`` reads the
    RELPOLY_WORKERS environment variable and falls back to 1.  Neither
    field changes the result, only whether and how fast it is computed.
    """

    subset_bound: int = DEFAULT_SUBSET_BOUND
    workers: int | None = None

    def resolved_workers(self) -> int:
        return resolve_workers(self.workers)


_DEFAULT_CONFIG = EngineConfig()


def enumerate_elementary_failures(shape: SystemShape) -> list[Offsets]:
    """All window offsets in lexicographic order.

    The position of an offset in this list is its bit index in every subset
    bitmask and cell mask; the order is a stable public contract.  Empty for
    non-failable shapes.
    """
    if not shape.failable:
        return []
    axes = [range(1, nr - sr + 2) for nr, sr in zip(shape.n, shape.s)]
    return list(itertools.product(*axes))


def pair_overlap_extent(
    shape: SystemShape, group: Iterable[Offsets], axis: int
) -> int:
    """Extent along ``axis`` (0-based) of the common intersection of windows.

    For a nonempty group of offsets this is ``max(0, s_r - (max e_r - min e_r))``:
    the windows all span ``s_r`` cells along the axis, so their intersection
    shrinks by the spread of their corners.
    """
    offs = [e[axis] for e in group]
    if not offs:
        raise ValueError("group of elementary failures must be nonempty")
    return max(0, shape.s[axis] - (max(offs) - min(offs)))


def intersection_volume(shape: SystemShape, group: Iterable[Offsets]) -> int:
    """Cells common to all windows in the group: the product of the per-axis
    overlap extents (zero as soon as one axis is disjoint)."""
    group = list(group)
    vol = 1
    for axis in range(shape.d):
        t = pair_overlap_extent(shape, group, axis)
        if t == 0:
            return 0
        vol *= t
    return vol


def union_exponent_by_ie(
    shape: SystemShape,
    group: Sequence[Offsets],
    *,
    limit: int = DEFAULT_INNER_IE_LIMIT,
) -> int:
    """Cells covered by the union of the windows, by inner inclusion-exclusion.

    Sums ``(-1)^(|J'|+1) * intersection_volume(J')`` over all nonempty
    subsets J' of the group.  This is the reference route; cost is 2^|group|,
    guarded by ``limit``.
    """
    group = list(group)
    m = len(group)
    if m == 0:
        raise ValueError("group of elementary failures must be nonempty")
    if m > limit:
        raise ResourceLimitError(
            f"inner inclusion-exclusion over {m} windows exceeds the limit "
            f"{limit} (cost 2^{m}); use union_exponent_by_cells instead"
        )
    total = 0
    for bits in range(1, 1 << m):
        sub = [group[j] for j in range(m) if bits >> j & 1]
        sign = 1 if bits.bit_count() % 2 == 1 else -1
        total += sign * intersection_volume(shape, sub)
    return total


@dataclass(frozen=True)
class CellMaskTable:
    """Per-cell window-coverage bitmasks plus their compressed multiset.

    ``cell_masks[i]`` has bit j set iff window j (in enumeration order)
    covers the cell at flat row-major index i.  ``groups`` holds each
    distinct nonzero mask with its multiplicity, ascending by mask;
    ``covered_cells`` is the number of cells under at least one window.
    """

    num_windows: int
    cell_masks: tuple[int, ...]
    groups: tuple[tuple[int, int], ...]
    covered_cells: int


def build_cell_mask_table(shape: SystemShape) -> CellMaskTable:
    """Tabulate which windows cover each lattice cell."""
    windows = enumerate_elementary_failures(shape)
    n = shape.n
    # flat row-major index of a 0-based cell coordinate (last axis fastest)
    strides = [1] * shape.d
    for r in range(shape.d - 2, -1, -1):
        strides[r] = strides[r + 1] * n[r + 1]
    masks = [0] * shape.volume
    for j, e in enumerate(windows):
        bit = 1 << j
        ranges = [
            range((er - 1) * st, (er - 1 + sr) * st, st)
            for er, sr, st in zip(e, shape.s, strides)
        ]
        for parts in itertools.product(*ranges):
            masks[sum(parts)] |= bit
    counts: dict[int, int] = {}
    for m in masks:
        if m:
            counts[m] = counts.get(m, 0) + 1
    groups = tuple(sorted(counts.items()))
    return CellMaskTable(
        num_windows=len(windows),
        cell_masks=tuple(masks),
        groups=groups,
        covered_cells=sum(c for _, c in groups),
    )


def union_exponent_by_cells(table: CellMaskTable, subset_mask: int) -> int:
    """Cells covered by the union of the windows selected by ``subset_mask``:
    those whose coverage mask intersects the subset."""
    if subset_mask == 0:
        raise ValueError("subset mask must be nonzero")
    return sum(mult for mask, mult in table.groups if mask & subset_mask)


class SubsetTerm(NamedTuple):
    """One inclusion-exclusion summand: subset bitmask, sign, q-exponent."""

    subset: int
    sign: int
    exponent: int


def iter_subset_terms(
    shape: SystemShape, *, config: EngineConfig | None = None
) -> Iterator[SubsetTerm]:
    """Yield every summand of the failure polynomial, in subset-index order.

    Diagnostic/reference view of the sweep; the polynomial itself is
    assembled by :func:`failure_polynomial`, which fuses the accumulation.
    """
    config = config or _DEFAULT_CONFIG
    table = _checked_table(shape, config)
    if table is None:
        return
    for bits in range(1, 1 << table.num_windows):
        sign = 1 if bits.bit_count() % 2 == 1 else -1
        yield SubsetTerm(bits, sign, union_exponent_by_cells(table, bits))


# -- the subset sweep ---------------------------------------------------------


def _checked_table(shape: SystemShape, config: EngineConfig) -> CellMaskTable | None:
    """Cell-mask table behind the subset bound; None for non-failable shapes."""
    m = shape.num_windows
    if m == 0:
        return None
    if m > config.subset_bound:
        raise ResourceLimitError(
            f"instance has {m} window placements; the exact sweep is "
            f"2^{m} subsets, beyond the configured bound of "
            f"{config.subset_bound}. Raise EngineConfig.subset_bound, or "
            "fall back to the Monte Carlo estimator (CLI subcommand 'mc')."
        )
    return build_cell_mask_table(shape)


def _zeta_containment_table(table: CellMaskTable) -> np.ndarray:
    """f[S] = number of covered cells whose mask is contained in S.

    Subset-sum (zeta) transform over the distinct-mask multiset, in place.
    The dtype is chosen so the cell counts fit; values never exceed
    ``covered_cells``.
    """
    m = table.num_windows
    if table.covered_cells <= np.iinfo(np.uint8).max:
        dtype = np.uint8
    elif table.covered_cells <= np.iinfo(np.uint16).max:
        dtype = np.uint16
    else:
        dtype = np.uint32
    f = np.zeros(1 << m, dtype=dtype)
    for mask, mult in table.groups:
        f[mask] = mult
    for i in range(m):
        view = f.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return f


def _sweep_zeta_chunk(
    f: np.ndarray, covered: int, num_windows: int, start: int, stop: int
) -> np.ndarray:
    """Per-(exponent, parity) tallies for subsets in [start, stop).

    The exponent of subset J is ``covered - f[full ^ J]``: covered cells
    minus those buried entirely in the complement of J.  ``full ^ J``
    equals ``full - J``, so the lookups are a reversed slice of f.
    Entry ``2*e + p`` counts the subsets of exponent e and size parity p
    (1 for odd, which carries the + sign).  Tallies are int64 subset
    counts, bounded by 2^num_windows.
    """
    full = (1 << num_windows) - 1
    exps = covered - f[full - stop + 1 : full - start + 1][::-1].astype(np.int64)
    parity = np.bitwise_count(np.arange(start, stop, dtype=np.uint64)) & 1
    return np.bincount(2 * exps + parity, minlength=2 * (covered + 1))


def _spans(total_start: int, total_stop: int, chunk: int) -> list[tuple[int, int]]:
    return [
        (a, min(a + chunk, total_stop))
        for a in range(total_start, total_stop, chunk)
    ]


def failure_polynomial(
    shape: SystemShape, *, config: EngineConfig | None = None
) -> IntPolynomial:
    """Exact failure probability P as a polynomial in q.

    Sweeps all ``2^|E| - 1`` nonempty window subsets, adding
    ``(-1)^(|J|+1)`` to the coefficient of ``q^k(J)``.  Returns the zero
    polynomial for non-failable shapes.  Raises
    :class:`~relpoly.model.ResourceLimitError` when ``|E|`` exceeds the
    configured subset bound.
    """
    config = config or _DEFAULT_CONFIG
    workers = config.resolved_workers()
    table = _checked_table(shape, config)
    if table is None:
        return IntPolynomial.zero()
    m = table.num_windows
    # tallies are subset counts < 2^m, far below int64 range
    assert m < 62
    f = _zeta_containment_table(table)
    covered = table.covered_cells
    parts = ordered_map(
        lambda a, b: _sweep_zeta_chunk(f, covered, m, a, b),
        _spans(1, 1 << m, _ZETA_CHUNK),
        workers,
    )
    tally = sum(parts)
    return IntPolynomial(
        {e: int(tally[2 * e + 1]) - int(tally[2 * e]) for e in range(covered + 1)}
    )


def reliability_polynomial(
    shape: SystemShape, *, config: EngineConfig | None = None
) -> IntPolynomial:
    """Exact reliability R = 1 - P."""
    return 1 - failure_polynomial(shape, config=config)


def failed_count(shape: SystemShape, *, config: EngineConfig | None = None) -> int:
    """Number of failed configurations among all 2^N binary arrays.

    At q = 1/2 every configuration is equally likely, so the count is
    ``2^N * P(1/2)``, evaluated exactly in rational arithmetic.
    """
    p = failure_polynomial(shape, config=config)
    value = p.eval_rational(Fraction(1, 2)) * (1 << shape.volume)
    if value.denominator != 1:
        raise AssertionError(
            f"2^N * P(1/2) = {value} is not an integer; engine bug"
        )
    return int(value)


def count_sequence(
    n: Sequence[int],
    s: Sequence[int],
    axis: int,
    stop: int,
    *,
    config: EngineConfig | None = None,
) -> list[int]:
    """Failed-configuration counts as one array extent grows.

    Axis ``axis`` (0-based) of ``n`` runs from its given value up to
    ``stop`` inclusive; all other extents stay fixed.
    """
    n = list(n)
    if not 0 <= axis < len(n):
        raise ValueError(f"axis {axis} out of range for d={len(n)}")
    start = n[axis]
    if stop < start:
        raise ValueError(f"stop {stop} is below the starting extent {start}")
    out = []
    for v in range(start, stop + 1):
        n[axis] = v
        out.append(failed_count(validate_shape(n, s), config=config))
    return out
