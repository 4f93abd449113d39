"""Exact failure/reliability polynomials and values, by routes picked by cost.

**Inclusion-exclusion.**  An *elementary failure* is a placement of the
``s_1 x ... x s_d`` window inside the array, identified by the 1-based
offsets ``e`` of its minimal corner; there are ``|E| = prod(n_r - s_r + 1)``
of them.  The failure polynomial is the inclusion-exclusion sum over all
nonempty subsets J of E:

    P(q) = sum over J of (-1)^(|J|+1) * q^k(J)

where ``k(J)`` counts the cells in the union of the windows of J.  The sum
is evaluated in one of two forms:

- the whole-set sweep, :func:`inclusion_exclusion_polynomial`, visits all
  ``2^|E| - 1`` terms.  Every lattice cell knows the bitmask of windows
  covering it (the cell-mask table), so ``k(J)`` is the number of cells
  whose mask intersects J, and one subset-sum (zeta) transform over the
  cell masks, O(2^|E| * |E|), turns each ``k(J)`` into a table entry.  The
  table is processed in fixed blocks that stay in cache: each block
  finishes its low zeta passes on uint64 words of several table entries,
  then is histogrammed by exponent and sign at once;
- the window-layer scan, :func:`_window_layer_polynomial`, walks the cell
  layers along an axis ``a``.  A cell layer is covered only by the windows
  of the ``s_a`` window layers that end at it, so ``k(J)`` is a sum of one
  term per cell layer, and the sum over J runs as a scan whose state holds
  the footprints chosen in the last ``s_a - 1`` window layers, each with a
  row of int64 coefficients, so it runs while ``|E| <= 61``.  Its cost
  grows with the footprints of one window layer to the power ``s_a``, not
  with ``2^|E|``.

The window-layer scan has a second payload, :func:`_window_layer_values`:
one exact integer per state in place of a polynomial row, which gives
``b^N R(a/b)`` at one rational q = a/b.  Its states are chains of suffix
unions of the held footprints, so tuples that cover the coming cell layers
alike merge.  A failed count is ``2^N`` less its value at q = 1/2.  The
same scan at ``q = 2^B`` gives the whole polynomial, packed
(:func:`_packed_polynomial`): every coefficient of R is a sum of at most
``2^|E|`` signs, so with ``B = |E| + 2`` bits, rounded up to whole bytes,
the integer ``R(2^B)`` holds one coefficient per B-bit digit, and a
biased byte read decodes it.  Its cell-layer weights ``2^(B k)`` are
powers of two, as a count's are, so each scales a state by a shift.  This
is the Python-int form of inclusion-exclusion past the rows' int64 bound.

**Transfer matrix.**  :func:`transfer_matrix_tally` counts the surviving
configurations by weight in one scan along an axis ``a`` (finite Markov
chain imbedding: Fu & Koutras 1994; Yamamoto & Miyakawa 1995 for the
lattice form).  Its state holds, for each cell of the cross-section, the
run of failed cells along ``a`` that ends at the current layer, capped at
``s_a``.  It is stored densely, as one array with a digit axis per
cross-section cell and a weight axis that grows by one per scanned cell,
so each cell costs a few whole-array slice operations over all
``(s_a + 1)^(N / n_a)`` states, and the scan about N * states * N.  The
failed tally is ``C(N, k)`` minus the survivors, and the polynomial
follows from it as in the oracle.

:func:`failure_polynomial` takes whichever of four (the sweep, the
window-layer scan with int64 rows of coefficients or with one packed
integer per state, each along its best axis, and the transfer matrix)
:func:`choose_route` predicts to be fastest among those whose predicted
peak memory fits in half the machine's physical memory.  A value at one q
(:func:`failed_count`, :func:`count_sequence`, :func:`exact_reliability`)
can also take the window-layer scan with one value per state, and takes
it where it is predicted fastest.  Memory is the only bound on any of
them: inclusion-exclusion has no cap on |E| of its own.  Each refuses
with :class:`~relpoly.model.ResourceLimitError` before it allocates, and
so does the choice when none fits.

Only the array routes import numpy, when they run: the sweep, the
window-layer rows and the transfer matrix.  The pricing and the scans
with one Python int per state need none of it, so a process whose calls
they answer never loads it.

The worker rule lives here as well: :func:`resolve_workers` reads
``RELPOLY_WORKERS`` and :func:`ordered_map` runs jobs in job order on a
thread pool of at most one thread per core.  The Monte Carlo estimator
uses both.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
import sys
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .model import (
    IntPolynomial,
    ResourceLimitError,
    SystemShape,
    validate_shape,
)
from .oracle import WeightTally, tally_to_polynomial

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "INCLUSION_EXCLUSION",
    "PACKED",
    "POLYNOMIAL",
    "TRANSFER_MATRIX",
    "VALUE",
    "WORKERS_ENV_VAR",
    "CellMaskTable",
    "EngineConfig",
    "RouteCost",
    "build_cell_mask_table",
    "choose_route",
    "count_sequence",
    "enumerate_elementary_failures",
    "exact_reliability",
    "failed_count",
    "failure_polynomial",
    "inclusion_exclusion_polynomial",
    "reliability_polynomial",
    "transfer_matrix_tally",
]

#: Offsets of one elementary failure: 1-based minimal corner, one per axis.
Offsets = tuple[int, ...]

#: Route names, as reported by :func:`choose_route`.
INCLUSION_EXCLUSION = "inclusion-exclusion"
TRANSFER_MATRIX = "transfer-matrix"

#: Payloads, as reported by :class:`RouteCost`: the whole polynomial as
#: rows of coefficients, one exact integer per scan state read at one q,
#: or the whole polynomial packed into one integer per scan state.
POLYNOMIAL = "polynomial"
VALUE = "value"
PACKED = "packed"

# Counts are values at q = 1/2: 2^N R(1/2) configurations survive.
_HALF = Fraction(1, 2)

#: Environment variable consulted when no worker count is passed.
WORKERS_ENV_VAR = "RELPOLY_WORKERS"

# The zeta table is processed in blocks of 2^_BLOCK_BITS entries (1 MB of
# uint8, within a 2 MB L2 cache): once the passes for the higher bits have
# run over the whole table, each block runs its low passes and its
# histogram while it is in cache.  Blocks of 2^18 entries ran as fast on
# one thread, but made four times as many short numpy calls, and two
# threads contending for the interpreter lock then gained nothing or ran
# slower than one.
# The blocks are fixed whatever the worker count and their tallies merge by
# integer addition, so results are bit-identical for any worker count.
_BLOCK_BITS = 20

# Peak bytes per block entry in one block's temporaries: its keys (up to 4
# bytes) and the int64 copy np.bincount makes of them, plus slack.
# tracemalloc measures 6.5 per entry for uint8 keys counted in pairs, 10
# counted one by one, 12.4 for uint16 keys.
_BLOCK_BYTES_PER_ENTRY = 16

# State tensors alive at the peak of one scan step, as multiples of the
# final one: the current state and its successor, one weight wider (2.0
# measured with tracemalloc on the largest int64 scans), plus slack.
_SCAN_LIVE_MATRICES = 3

# The cost model of the sweep and the scan, in seconds.  The sweep costs
# a fixed per-call overhead (cell-mask table, numpy calls) plus 2^|E| * |E|
# steps (the zeta passes over the blocked table, then one histogram).  The
# transfer matrix costs, per scanned cell, a fixed numpy overhead plus one
# step per state-by-weight count, and N^2 steps to rebuild the polynomial
# (math.comb per weight, Horner in 1 - q): N * (cell + states * (N + 1) *
# entry + N * rebuild), with the state bound as the state count.  Fitted to
# timings of both routes at one worker on a 2-core x86-64 host (Python
# 3.11, numpy 2.4), whose speed drifts up to 2x between sessions, so
# constants fitted in different sessions are put in the units of the
# window-layer scan's (below): a session's medians are scaled by the
# median ratio of that scan's predicted to measured time in the same
# interleaved runs (1.6-2.0).  Inclusion-exclusion: two interleaved
# sessions of 41 and 61 rounds at |E| = 9-16, fitted in relative error:
# 0.23 ms per call and 0.44 ns per step (within 0.77-1.17x of each
# shape).  It predicts 1.49 s for [6,6,6]x[4,4,4], which measured 1.1 s.
# Dense scan over 25 shapes: 16.5 us per cell, and 2.2 ns per int64 or 25
# ns per Python-int count, each shape within 0.74-1.37x of its scan time;
# 0.22 us per rebuild step, the least-squares fit in relative error of the
# whole polynomial's medians over 40 1-D and 2-D shapes with N = 3-200
# (0.39-1.42x of each).
_IE_SECONDS_PER_CALL = 2.3e-4
_IE_SECONDS_PER_STEP = 4.4e-10
_SCAN_SECONDS_PER_CELL = 1.65e-5
_SCAN_SECONDS_PER_INT64_ENTRY = 2.2e-9
_SCAN_SECONDS_PER_OBJECT_ENTRY = 2.5e-8
_SCAN_SECONDS_PER_REBUILD_STEP = 2.2e-7

# The window-layer scan costs a fixed per-call overhead, a numpy overhead
# per cell layer, and one step per coefficient its rows copy and gather:
# call + n_a * (layer + rows * width * entry), with the rows of one layer
# (see _window_layer_cost) and their mean width.  Fitted at one worker on
# the same host, in relative error, to the medians of 53 shape-axis pairs
# with |E| = 8-58 (the support cached, as after a first call): 0.12 ms per
# call, 25 us per layer and 1.1 ns per coefficient, each pair within
# 0.51-1.32x of its median.  The support of a window layer is counted
# exactly up to 2^_LAYER_SUPPORT_MAX_WINDOWS subsets (0.1-0.6 ms, once per
# cross-section), and bounded by 2^W beyond.  It is charged 64 bytes per
# subset.  Counting it peaks (tracemalloc) at 1-12 bytes per subset where
# windows overlap and footprints merge, and at 101 on series layers, whose
# 2^W footprints are all distinct; the start table at 24 per joint state.
_LAYER_SUPPORT_MAX_WINDOWS = 12
# A coefficient of the rows lies in [-2^|E|, 2^|E|]: int64 up to 61 windows.
# A footprint of the rows is a uint64 mask of the cross-section's cells.
_LAYER_INT64_MAX_WINDOWS = 61
_LAYER_UINT64_MAX_CELLS = 64
_LAYER_SUPPORT_BYTES_PER_SUBSET = 64
_LAYER_BYTES_PER_JOINT_STATE = 24
_LAYER_SECONDS_PER_CALL = 1.2e-4
_LAYER_SECONDS_PER_LAYER = 2.5e-5
_LAYER_SECONDS_PER_ENTRY = 1.1e-9

# The window-layer scan with one value per state costs a fixed per-call
# overhead, one per cell layer, and one Python-int step per state and
# footprint or covered-cell count, which grows with the bits of the values:
# call + n_a * (layer + steps * (step + bits * step_bit)), see
# _window_layer_value_cost.  Fitted in relative error to the medians of 100
# shape-axis-q triples (q = 1/2, 1/10, 19/50 and binary64 0.38; 9
# interleaved rounds) with the states that were reached, then scaled by
# 2.0 into the units above: 31 us per call, 1.6 us per layer, 0.23 us per
# step and 0.15 ns per step and bit, each triple within 0.61-1.49x.  Priced
# with the state bound instead, merged scans are over-predicted, 5.5x on
# [12,12]x[3,3].  A dict entry peaks at 90-110 bytes besides its value
# (tracemalloc, two dicts alive); twice that is charged.  The packed scan
# is priced with the same constants at N * B bits: within 0.85-1.5x of the
# medians of the 16 shapes with |E| < 48 that it is picked for, at one
# worker, when it scaled by multiplies.  It scales by shifts, whose time
# grows with the bits but not their square, and runs 2.4-19x below its
# prediction on eight shapes with |E| = 64-996: 3.7 against 27 ms on
# [3,60]x[2,3], 93 ms against 1.8 s on [10,10]x[3,3], whose 2,304 bounded
# states merge to 569.
_VALUE_SECONDS_PER_CALL = 3.1e-5
_VALUE_SECONDS_PER_LAYER = 1.6e-6
_VALUE_SECONDS_PER_STEP = 2.3e-7
_VALUE_SECONDS_PER_STEP_BIT = 1.5e-10
_VALUE_BYTES_PER_STATE = 200


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


def _pool_threads(workers: int, jobs: float) -> int:
    """Threads a pool runs ``jobs`` jobs on: at most one per job and core."""
    threads = min(workers, jobs)
    return threads if threads <= 1 else min(threads, os.cpu_count() or 1)


def ordered_map(fn, jobs: Sequence[tuple], workers: int) -> list:
    """``[fn(*job) for job in jobs]``, on a thread pool when that can help.

    The pool has at most one thread per job and per core, whatever
    ``workers`` asks for.  Results come back in job order, so any
    downstream merge sees the same sequence regardless of worker count or
    scheduling.
    """
    workers = _pool_threads(workers, len(jobs))
    if workers <= 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda job: fn(*job), jobs))


@dataclass(frozen=True)
class EngineConfig:
    """Worker count for the exact routes.

    ``workers=None`` reads the RELPOLY_WORKERS environment variable and
    falls back to 1.  It changes only how fast the result is computed, and
    the predicted memory of the inclusion-exclusion blocks in flight.
    """

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


@dataclass(frozen=True)
class CellMaskTable:
    """Per-cell window-coverage bitmasks, as a multiset.

    A cell's mask has bit j set iff window j (in enumeration order) covers
    it.  ``groups`` holds each distinct nonzero mask with the number of
    cells that have it, ascending by mask; ``covered_cells`` is the number
    of cells under at least one window.
    """

    num_windows: int
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
        groups=groups,
        covered_cells=sum(c for _, c in groups),
    )


# -- route costs --------------------------------------------------------------


class RouteCost(NamedTuple):
    """Predicted cost of one exact route on one shape.

    ``seconds`` and ``nbytes`` (peak memory) come from the calibrated cost
    model; the route can run when ``nbytes`` fits :func:`memory_budget`.
    ``axis`` (0-based) is the axis a scan walks: the transfer matrix's, or
    the window-layer form of inclusion-exclusion's.  It is None for the
    inclusion-exclusion sweep over all window subsets.  ``payload`` says
    what the route computes: the whole polynomial as rows of coefficients
    (``POLYNOMIAL``); one exact integer per scan state, for one q
    (``VALUE``); or the whole polynomial packed into one integer per scan
    state, the value at ``q = 2^B`` with B bits a coefficient (``PACKED``,
    see :func:`_packed_polynomial`).  For the last two ``states`` is the
    bound on the states the scan was priced with.
    """

    route: str
    seconds: float
    nbytes: float
    axis: int | None = None
    payload: str = POLYNOMIAL
    states: float | None = None

    def describe(self) -> str:
        where = "" if self.axis is None else f" along axis {self.axis + 1}"
        if self.payload == VALUE:
            where += ", one value per state,"
        elif self.payload == PACKED:
            where += ", one packed polynomial per state,"
        return (
            f"{self.route}{where} predicts {self.seconds:.3g} s and "
            f"{self.nbytes:.3g} bytes"
        )


_SECONDS = operator.attrgetter("seconds")


def memory_budget() -> float:
    """Bytes one computation may plan to hold: half the physical memory.

    Half leaves room for the interpreter, other processes and a
    misestimate.  Where ``os.sysconf`` does not report the memory, the
    budget is ``sys.maxsize``, the most any array can address.
    """
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2
    except (AttributeError, ValueError, OSError):  # not reported here
        return float(sys.maxsize)


def _within_budget(
    shape: SystemShape, costs: Sequence[RouteCost], what: str = "instance"
) -> list[RouteCost]:
    """The routes whose predicted bytes fit :func:`memory_budget`.

    Raises :class:`~relpoly.model.ResourceLimitError`, naming ``what`` and
    the shape, every route's prediction, the budget and the Monte Carlo
    fallback, when none does.
    """
    budget = memory_budget()
    fitting = [c for c in costs if c.nbytes <= budget]
    if fitting:
        return fitting
    raise ResourceLimitError(
        f"{what} {shape}: {'; '.join(c.describe() for c in costs)}, beyond the "
        f"memory budget of {budget:.3g} bytes. Fall back to the Monte Carlo "
        "estimator (CLI subcommand 'mc')."
    )


def _power(base: float, exponent: float) -> float:
    """``base ** exponent`` as a float; infinity past the float range."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return math.inf


def _zeta_itemsize(covered_cells: int) -> int:
    """Bytes of the narrowest unsigned integer that holds every zeta table
    value: 1, 2 or 4."""
    if covered_cells <= 0xFF:
        return 1
    if covered_cells <= 0xFFFF:
        return 2
    return 4


def _inclusion_exclusion_cost(shape: SystemShape, config: EngineConfig) -> RouteCost:
    m, volume = shape.num_windows, shape.volume
    subsets = _power(2, m)
    block = min(subsets, 1 << _BLOCK_BITS)
    blocks = subsets / block
    threads = _pool_threads(config.resolved_workers(), blocks)
    key_bytes = _zeta_itemsize(2 * volume + 1)
    nbytes = (
        subsets * _zeta_itemsize(volume)  # the table
        + block * (key_bytes + threads * _BLOCK_BYTES_PER_ENTRY)
        + blocks * 16 * (volume + 1)  # one int64 tally per block
    )
    seconds = _IE_SECONDS_PER_CALL + _IE_SECONDS_PER_STEP * subsets * m
    return RouteCost(INCLUSION_EXCLUSION, seconds, nbytes)


def _transfer_matrix_cost(shape: SystemShape) -> RouteCost:
    """The scan's cost along the axis with the fewest states."""
    n, s, volume = shape.n, shape.s, shape.volume

    def log2_states(r: int) -> float:
        return volume // n[r] * math.log2(s[r] + 1)

    axis = min(range(shape.d), key=log2_states)
    states = _power(2, log2_states(axis))
    if volume < 63:  # every count is at most 2^N
        entry_bytes, entry_seconds = 8, _SCAN_SECONDS_PER_INT64_ENTRY
    else:
        entry_bytes = 8 + sys.getsizeof(1 << volume)
        entry_seconds = _SCAN_SECONDS_PER_OBJECT_ENTRY
    entries = states * (volume + 1)
    nbytes = _SCAN_LIVE_MATRICES * entries * entry_bytes
    rebuild = volume * _SCAN_SECONDS_PER_REBUILD_STEP
    seconds = volume * (_SCAN_SECONDS_PER_CELL + entries * entry_seconds + rebuild)
    # a budget within sys.maxsize bytes also keeps the state tensor within
    # numpy's 64 axes, since each digit axis at least doubles the states
    return RouteCost(TRANSFER_MATRIX, seconds, nbytes, axis)


@lru_cache(maxsize=256)
def _layer_footprints(shape: SystemShape, axis: int) -> tuple[int, float]:
    """Windows W of one window layer along ``axis``, and the footprints
    ``u`` in its support.

    ``u`` is counted where the layer has at most
    ``2^_LAYER_SUPPORT_MAX_WINDOWS`` subsets, and bounded by ``2^W`` beyond,
    so no support larger than that is built to price a scan.  Cached:
    both window-layer scans price every axis of every route choice.
    """
    cross_n, cross_s = _cross_section(shape, axis)
    per_layer = math.prod(max(0, nr - sr + 1) for nr, sr in zip(cross_n, cross_s))
    if per_layer <= _LAYER_SUPPORT_MAX_WINDOWS:
        return per_layer, len(_layer_support(cross_n, cross_s)[0])
    return per_layer, _power(2, per_layer)


def _window_layer_cost(shape: SystemShape, axis: int) -> RouteCost:
    """The window-layer scan's cost along ``axis`` of a failable shape.

    With ``u`` footprints in the support, the scan holds ``u^(s_a - 1)``
    states and, at each of the ``n_a`` cell layers, copies every state's
    ``cells + 1`` shifts and gathers ``u^s_a`` rows of int64 coefficients,
    which widen by one cross-section per layer up to ``N + 1`` exponents.
    Footprints are 64-bit masks and coefficients int64 while ``|E| <= 61``
    (see :func:`_window_layer_polynomial`), so a cross-section of more than
    64 cells, or more windows, costs infinity.
    """
    n_a, s_a, volume = shape.n[axis], shape.s[axis], shape.volume
    cells = volume // n_a
    if cells > _LAYER_UINT64_MAX_CELLS or shape.num_windows > _LAYER_INT64_MAX_WINDOWS:
        return RouteCost(INCLUSION_EXCLUSION, math.inf, math.inf, axis)
    per_layer, u = _layer_footprints(shape, axis)
    states = _power(u, s_a - 1)
    joint = _power(u, s_a)
    rows = joint + states * (cells + 1)  # gathered rows and shift copies
    nbytes = (
        (rows + 2 * states) * (volume + 1 + cells) * 8
        + _LAYER_BYTES_PER_JOINT_STATE * joint  # the start table
        + _LAYER_SUPPORT_BYTES_PER_SUBSET * _power(2, per_layer)
    )
    seconds = (
        _LAYER_SECONDS_PER_CALL
        + n_a * _LAYER_SECONDS_PER_LAYER
        + n_a * rows * ((volume + cells) / 2 + 1) * _LAYER_SECONDS_PER_ENTRY
    )
    return RouteCost(INCLUSION_EXCLUSION, seconds, nbytes, axis)


def _value_bits(shape: SystemShape, q: Fraction) -> float:
    """Bits of the scaled value ``b^N R(a/b)`` at q = a/b: N for a count."""
    return shape.volume * math.log2(max(abs(q.numerator), q.denominator, 2))


def _packed_digit_bits(shape: SystemShape) -> int:
    """Bits B of one coefficient of R in ``R(2^B)``: ``|E| + 2``, rounded up
    to whole bytes.

    A coefficient of R sums at most ``2^|E|`` signs, so it lies in
    ``[-2^|E|, 2^|E|]``, within the signed range of ``|E| + 2`` bits.
    """
    return -(-(shape.num_windows + 2) // 8) * 8


def _window_layer_value_cost(
    shape: SystemShape, axis: int, bits: float, payload: str = VALUE
) -> RouteCost:
    """The cost along ``axis`` of the window-layer scan with one value of
    about ``bits`` bits per state; ``payload`` names what the value is.

    Its states are chains of suffix unions, merged as they are reached, so
    their number is not known before the scan.  It is priced with a bound:
    ``u^(s_a - 1)`` tuples of held footprints, or ``s_a^cells`` chains (a
    cell of a chain lies in its first j unions, j = 0 .. s_a - 1),
    whichever is less.  At each of the ``n_a`` cell layers, each state is
    scaled once per covered-cell count and added into one state per
    footprint, each step a Python-int operation on about ``bits`` bits.
    Two dicts of states are alive at once.  The memory check counts the
    support's ``2^W`` subsets as the polynomial scan's does.
    """
    n_a, s_a = shape.n[axis], shape.s[axis]
    cells = shape.volume // n_a
    per_layer, u = _layer_footprints(shape, axis)
    states = min(_power(u, s_a - 1), _power(s_a, cells))
    steps = states * (u + cells + 1)
    nbytes = (
        2 * states * (_VALUE_BYTES_PER_STATE + bits / 8)
        + _LAYER_SUPPORT_BYTES_PER_SUBSET * _power(2, per_layer)
    )
    seconds = _VALUE_SECONDS_PER_CALL + n_a * (
        _VALUE_SECONDS_PER_LAYER
        + steps * (_VALUE_SECONDS_PER_STEP + bits * _VALUE_SECONDS_PER_STEP_BIT)
    )
    return RouteCost(INCLUSION_EXCLUSION, seconds, nbytes, axis, payload, states)


def _fastest(costs: Iterable[RouteCost]) -> RouteCost:
    return min(costs, key=_SECONDS)


def choose_route(
    shape: SystemShape,
    *,
    q: Fraction | int | None = None,
    config: EngineConfig | None = None,
) -> RouteCost:
    """The exact route :func:`failure_polynomial` takes for ``shape``, or,
    given ``q``, the route a value at ``q`` takes.

    The polynomial's candidates are the inclusion-exclusion sweep, the
    transfer matrix along its axis of fewest states and, for failable
    shapes, the window-layer form of inclusion-exclusion along its fastest
    axis, with rows of coefficients and with one packed integer per state
    (payload ``PACKED``).  A value at a rational ``q`` can also take the
    window-layer scan with one value per state (payload ``VALUE``) along
    its fastest axis; counts are values at q = 1/2 (:func:`failed_count`,
    :func:`exact_reliability`).  Among the candidates that can run, the one
    with the lowest predicted time.  Raises
    :class:`~relpoly.model.ResourceLimitError` with every candidate's
    predicted time and bytes when none can.
    """
    config = config or _DEFAULT_CONFIG
    costs = [_inclusion_exclusion_cost(shape, config), _transfer_matrix_cost(shape)]
    if shape.failable:
        axes = range(shape.d)
        costs.append(_fastest(_window_layer_cost(shape, a) for a in axes))
        packed = shape.volume * _packed_digit_bits(shape)
        costs.append(
            _fastest(_window_layer_value_cost(shape, a, packed, PACKED) for a in axes)
        )
        if q is not None:
            bits = _value_bits(shape, Fraction(q))
            costs.append(
                _fastest(_window_layer_value_cost(shape, a, bits) for a in axes)
            )
    return _fastest(_within_budget(shape, costs, "no exact route fits"))


# -- inclusion-exclusion: the subset sweep ------------------------------------


def _checked_table(shape: SystemShape, config: EngineConfig) -> CellMaskTable | None:
    """Cell-mask table behind the memory check; None for non-failable shapes."""
    if shape.num_windows == 0:
        return None
    _within_budget(shape, [_inclusion_exclusion_cost(shape, config)])
    return build_cell_mask_table(shape)


def _zeta_passes(f: np.ndarray, bits: range) -> None:
    """Run the zeta passes for ``bits`` on ``f``, in place.

    Pass i adds entry ``S - 2^i`` to every entry S that has bit i.  ``f``
    is read as uint64 words of several lanes; no lane carries into the
    next, because every sum is at most ``covered_cells`` and fits its lane.
    A pass across words adds whole words; a pass within a word shifts the
    low lanes of each group onto the high ones.
    """
    import numpy as np

    lanes = 8 // f.itemsize
    words = f.view("<u8")
    moved = None
    for i in bits:
        stride = 1 << i
        if stride < lanes:
            # the low half of each group of 2 * shift bits moves up by shift
            shift = 8 * f.itemsize * stride
            low = sum(((1 << shift) - 1) << g for g in range(0, 64, 2 * shift))
            moved = np.bitwise_and(words, np.uint64(low), out=moved)
            moved <<= np.uint64(shift)
            words += moved
        else:
            pairs = words.reshape(-1, 2, stride // lanes)
            if pairs.shape[2] > 8:
                pairs[:, 1] += pairs[:, 0]
            else:  # numpy is slow on short rows: add column by column
                for col in range(pairs.shape[2]):
                    pairs[:, 1, col] += pairs[:, 0, col]


def _zeta_table(table: CellMaskTable) -> np.ndarray:
    """f[S] = covered cells whose mask lies in S, save for the low bits.

    The passes for bits ``_BLOCK_BITS`` and up run here over the whole
    table; each block runs its own low passes in :func:`_block_tally`.
    Holds at least one word, zero past ``2^num_windows``.
    """
    import numpy as np

    m = table.num_windows
    itemsize = _zeta_itemsize(table.covered_cells)
    f = np.zeros(max(1 << m, 8 // itemsize), dtype=f"<u{itemsize}")
    for mask, mult in table.groups:
        f[mask] = mult
    _zeta_passes(f, range(_BLOCK_BITS, m))
    return f


def _block_tally(
    block: np.ndarray, size: int, parity: np.ndarray, covered: int, odd: bool
) -> np.ndarray:
    """Finish one block's zeta passes and count its first ``size`` entries.

    Entry ``[v, p]`` counts the sets S of the block with ``f[S] = v`` and
    ``|S|`` of parity p.  The histogram key is ``2 f[S]`` plus the parity
    of the low bits of S (``parity``, one entry per block entry); ``odd``
    says the block index has odd parity, which swaps the columns.
    """
    import numpy as np

    _zeta_passes(block, range(size.bit_length() - 1))
    if parity.dtype == block.dtype:  # the keys fit the lanes: shift words
        words = block.view("<u8") << np.uint64(1)
        words |= parity.view("<u8")
        keys = words.view(parity.dtype)[:size]
    else:
        keys = block[:size].astype(parity.dtype) << 1 | parity[:size]
    if keys.dtype == np.uint8 and size > 1 << 16:
        # more keys than uint16 values: count them two at a time, as
        # uint16 pairs, then marginalise
        pairs = np.bincount(keys.view("<u2"), minlength=1 << 16).reshape(256, 256)
        counts = pairs.sum(axis=0) + pairs.sum(axis=1)
    else:
        counts = np.bincount(keys, minlength=2 * covered + 2)
    counts = counts[: 2 * covered + 2].reshape(-1, 2)
    return counts[:, ::-1] if odd else counts


def inclusion_exclusion_polynomial(
    shape: SystemShape, *, config: EngineConfig | None = None
) -> IntPolynomial:
    """Exact failure polynomial by the inclusion-exclusion sweep.

    Sweeps all ``2^|E| - 1`` nonempty window subsets, adding
    ``(-1)^(|J|+1)`` to the coefficient of ``q^k(J)``.  Returns the zero
    polynomial for non-failable shapes.  Raises
    :class:`~relpoly.model.ResourceLimitError` before allocating when the
    zeta table and block temporaries would not fit in half the physical
    memory.

    The sweep visits the complement ``S = E - J`` of each subset: ``k(J)``
    is ``covered - f[S]`` and ``|J| = |E| - |S|``.  It counts every S,
    block by block, and then takes out the empty J (S = E).
    """
    config = config or _DEFAULT_CONFIG
    workers = config.resolved_workers()
    table = _checked_table(shape, config)
    if table is None:
        return IntPolynomial.zero()
    import numpy as np

    m = table.num_windows
    covered = table.covered_cells
    f = _zeta_table(table)
    size = 1 << min(m, _BLOCK_BITS)  # entries of S per block
    span = min(len(f), 1 << _BLOCK_BITS)  # the same, padded to a word
    # parity of the low bits of S, one key per block entry: each doubling
    # appends the pattern so far with one more bit set
    parity = np.zeros(span, dtype=f"<u{_zeta_itemsize(2 * covered + 1)}")
    for i in range(span.bit_length() - 1):
        np.bitwise_xor(parity[: 1 << i], 1, out=parity[1 << i : 2 << i])
    parts = ordered_map(
        lambda j: _block_tally(
            f[j * size : j * size + span], size, parity, covered, j.bit_count() & 1
        ),
        [(j,) for j in range(len(f) // span)],
        workers,
    )
    tally = sum(parts)
    # |J| is odd where |S| has the parity of |E| + 1
    plus, minus = tally[:, (m + 1) % 2], tally[:, m % 2]
    return IntPolynomial(
        [(covered - v, int(plus[v]) - int(minus[v])) for v in range(covered + 1)]
        + [(0, 1)]  # the empty J, counted at S = E with a minus sign
    )


# -- inclusion-exclusion: the window-layer scan -------------------------------


def _cross_section(shape: SystemShape, axis: int) -> tuple[tuple[int, ...], ...]:
    """Array and window extents of the axes other than ``axis``."""
    other = [r for r in range(shape.d) if r != axis]
    return tuple(shape.n[r] for r in other), tuple(shape.s[r] for r in other)


@lru_cache(maxsize=64)
def _layer_support(
    cross_n: tuple[int, ...], cross_s: tuple[int, ...]
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Footprints of one window layer's subsets, with their signed counts.

    A window layer holds the windows at one offset along the scan axis;
    each covers an ``s`` box of the cross-section.  The footprint of a
    subset J of the layer is the bitmask of the cross-section cells its
    windows cover (row-major, last axis fastest), and the signed count of a
    footprint f is the sum of ``(-1)^|J|`` over the subsets with footprint
    f.  Returns the footprints whose signed count is not zero, ascending,
    and those counts; the first is the empty footprint, with count 1.

    Each window w doubles the subsets so far: every footprint f with count
    c gains ``f | w`` with count -c.  The counts are merged by footprint in
    place, over a copy of the footprints before w, and a footprint whose
    count cancels to zero is dropped, since it adds zero to every footprint
    it leads to.
    """
    strides = [math.prod(cross_n[r + 1 :]) for r in range(len(cross_n))]

    def bit(cell) -> int:
        return 1 << sum(c * st for c, st in zip(cell, strides))

    box = sum(map(bit, itertools.product(*map(range, cross_s))))
    signed = {0: 1}
    get = signed.get
    corners = itertools.product(
        *[range(nr - sr + 1) for nr, sr in zip(cross_n, cross_s)]
    )
    for corner in corners:
        window = box * bit(corner)
        for f, c in signed.copy().items():
            g = f | window
            c = get(g, 0) - c
            if c:
                signed[g] = c
            else:
                del signed[g]
    support = tuple(sorted(signed))
    return support, tuple(signed[f] for f in support)


def _window_layer_polynomial(shape: SystemShape, axis: int) -> IntPolynomial:
    """Exact failure polynomial by inclusion-exclusion, window layer by
    window layer along ``axis``.

    Window layer j holds the windows at offset j along ``axis``, and they
    cover cell layers j .. j + s_a - 1.  So the union volume of a window
    set splits into one term per cell layer: the cross-section cells that
    the footprints of its subsets of the ``s_a`` window layers ending there
    cover together.  A subset enters ``R = sum of (-1)^|J| q^|union J|`` only
    through its footprint and its sign, so the sum runs over footprints
    weighted by their signed counts (:func:`_layer_support`).  The state
    is one support index per window layer of the last ``s_a - 1``, with
    the R polynomial summed so far for each tuple; a layer not yet reached
    or past the last is the empty footprint, index 0.  At each cell layer
    the scan picks the next window layer's footprint, shifts every state's
    polynomial by the cells covered, weights it by the signed count and
    sums out the oldest window layer.  The state starts as the empty tuple
    of footprints with polynomial 1, and the last layer's states sum to R.

    Every partial sum counts distinct window sets, so it stays within
    ``2^|E|`` and the coefficients are int64 while ``|E| <= 61``, and the
    footprints are uint64 masks while the cross-section has at most 64
    cells; past either bound the packed scan (:func:`_packed_polynomial`)
    builds the polynomial.  Returns the zero polynomial for non-failable
    shapes.  Raises :class:`~relpoly.model.ResourceLimitError` before
    allocating, naming the bound and the packed scan past one, or the
    prediction when the rows would not fit in half the physical memory.
    """
    if not shape.failable:
        return IntPolynomial.zero()
    cells = shape.volume // shape.n[axis]
    bound = None
    if shape.num_windows > _LAYER_INT64_MAX_WINDOWS:
        bound = (
            f"its {shape.num_windows} windows exceed the "
            f"{_LAYER_INT64_MAX_WINDOWS} whose coefficients fit int64"
        )
    elif cells > _LAYER_UINT64_MAX_CELLS:
        bound = (
            f"its cross-section along axis {axis + 1} has {cells} cells, more "
            f"than the {_LAYER_UINT64_MAX_CELLS} bits of a footprint mask"
        )
    if bound:
        raise ResourceLimitError(
            f"window-layer rows of instance {shape}: {bound}. The packed scan "
            "(payload 'packed') builds the polynomial exactly; where no exact "
            "route fits, fall back to the Monte Carlo estimator (CLI subcommand "
            "'mc')."
        )
    _within_budget(shape, [_window_layer_cost(shape, axis)])
    import numpy as np
    from numpy.lib.stride_tricks import sliding_window_view

    held = shape.s[axis] - 1
    window_layers = shape.n[axis] - held
    feet, signs = _layer_support(*_cross_section(shape, axis))
    support, counts = np.array(feet, np.uint64), np.array(signs, np.int64)
    u = len(support)
    # start[k_0, ..., k_held]: the cells of a cell layer that footprints
    # k_0 .. k_held leave uncovered.  A row stored after ``cells`` zeros
    # and read from there is shifted by the cells they cover.
    union = np.zeros((1,) * (held + 1), np.uint64)
    for i in range(held + 1):
        union = union | support.reshape((1,) * i + (u,) + (1,) * (held - i))
    start = cells - np.bitwise_count(union).astype(np.intp)
    # one row per state, the polynomial at columns cells .. cells + width;
    # the columns past it are still zero when the row widens
    padded = np.zeros((u**held, shape.volume + 1 + cells), np.int64)
    padded[0, cells] = 1
    shifted = sliding_window_view(padded, shape.volume + 1, axis=1)
    # each layer copies every shift of every row once, contiguous, then
    # gathers one shifted row per state and choice from the copy; both
    # buffers are reused by every layer
    copies = np.empty(u**held * (cells + 1) * (shape.volume + 1), np.int64)
    picked = np.empty(u ** (held + 1) * (shape.volume + 1), np.int64)
    first = np.arange(u**held)[:, None] * (cells + 1)
    states, width = (1,) * held, 1
    for t in range(shape.n[axis]):
        new = u if t < window_layers else 1  # footprint 0 alone past the last
        rows = math.prod(states)
        starts = start[tuple(slice(k) for k in states) + (slice(new),)]
        width += cells
        shifts = copies[: rows * (cells + 1) * width].reshape(rows, cells + 1, width)
        np.copyto(shifts, shifted[:rows, :, :width])
        grown = picked[: rows * new * width].reshape(rows * new, width)
        # the indices are in range; "clip" lets take write into ``out``
        # without buffering the rows first
        np.take(
            shifts.reshape(-1, width),
            (first[:rows] + starts.reshape(rows, new)).ravel(),
            axis=0,
            out=grown,
            mode="clip",
        )
        if held:  # sum out the oldest window layer, then weight the newest
            total = grown.reshape(states[0], -1, new, width).sum(axis=0)
            total *= counts[:new, None]
            states = states[1:] + (new,)
        else:  # no layer is held: weight the choice and sum it out
            total = counts[:new] @ grown
        padded[: math.prod(states), cells : cells + width] = total.reshape(-1, width)
    reliability = padded[: math.prod(states), cells:].sum(axis=0)
    coeffs = (-reliability).tolist()
    coeffs[0] += 1
    return IntPolynomial(enumerate(coeffs))


def _window_layer_values(
    shape: SystemShape, axis: int, q: Fraction, start: int
) -> tuple[list[int], int]:
    """``b^(t * cells) * R_t(a/b)`` for t = ``start`` .. ``n_a``, where R_t
    is the reliability of the first t cell layers along ``axis`` and q =
    a/b; and the most states the scan held.

    The sum of :func:`_window_layer_polynomial`, with one exact integer per
    state in place of a polynomial row: a cell layer with k covered cells
    multiplies a term by ``a^k * b^(cells - k)``.  Where a and b are powers
    of two, as at a count's q = 1/2 and the packed scan's ``q = 2^B``,
    every such weight is, and a left shift scales by it; otherwise at most
    one weight is, and every weight multiplies.  The state is the chain
    of suffix unions ``U_1 ⊇ ... ⊇ U_h`` of the last ``h = s_a - 1``
    footprints, since cell layer ``t + i`` is covered by the union of the
    held layers from the i-th on; tuples of footprints with the same chain
    merge.  Footprint f covers ``U_1 | f`` of the current cell layer and
    maps the chain to ``(U_2 | f, ..., U_h | f, f)``.  A chain is packed
    into one int, ``U_1`` in its low ``cells`` bits, so shifting it down
    one slot and ORing f into every slot maps it.  The empty chain holds
    the terms whose last h window layers are empty, which are the terms of
    the first t cell layers alone: R_t.  Past the last window layer only
    the empty footprint is chosen, so the scan ends on the empty chain.

    Raises :class:`~relpoly.model.ResourceLimitError` before counting the
    support or building any state when the predicted states would not fit
    in half the physical memory.
    """
    a, b = q.numerator, q.denominator
    bits = _value_bits(shape, q)
    _within_budget(shape, [_window_layer_value_cost(shape, axis, bits)])
    cells = shape.volume // shape.n[axis]
    held = shape.s[axis] - 1
    window_layers = shape.n[axis] - held
    support, counts = _layer_support(*_cross_section(shape, axis))
    spread = sum(1 << (i * cells) for i in range(held))  # one bit per slot
    moves = [(f, f * spread, c) for f, c in zip(support, counts)]
    weights = [a**k * b ** (cells - k) for k in range(cells + 1)]
    shifts = None
    if all(w > 0 and w & (w - 1) == 0 for w in weights):
        shifts = [w.bit_length() - 1 for w in weights]
    first = (1 << cells) - 1
    states, values, reached = {0: 1}, [], 1
    for t in range(1, shape.n[axis] + 1):
        choices = moves if t <= window_layers else moves[:1]
        new: dict[int, int] = {}
        get = new.get
        for chain, value in states.items():
            covered, rest = chain & first, chain >> cells
            if shifts is None:
                scaled = [value * w for w in weights]
            else:
                scaled = [value << e for e in shifts]
            for f, slots, c in choices:
                key = rest | slots
                new[key] = get(key, 0) + c * scaled[(covered | f).bit_count()]
        states = new
        reached = max(reached, len(states))
        if t >= start:
            values.append(states.get(0, 0))
    return values, reached


def _packed_polynomial(shape: SystemShape, axis: int) -> tuple[IntPolynomial, int]:
    """Exact failure polynomial of a failable shape by the window-layer
    scan with one value per state along ``axis``, at ``q = 2^B``; and the
    most states the scan held.

    Every coefficient of R fits the signed range of B bits
    (:func:`_packed_digit_bits`), so the one integer ``R(2^B)`` holds them
    all, one B-bit digit each (Kronecker substitution), and B is a whole
    number of bytes.  Adding ``2^(B-1)`` to every digit makes each
    nonnegative and cancels every borrow, so the digits are read off the
    bytes of the sum, ``2^(B-1)`` less each.  The decode is linear in
    ``N * B``.
    """
    digit = _packed_digit_bits(shape)
    (value,), reached = _window_layer_values(
        shape, axis, Fraction(1 << digit), shape.n[axis]
    )
    width, half = digit // 8, 1 << (digit - 1)
    terms = shape.volume + 1
    bias = int.from_bytes(half.to_bytes(width, "little") * terms, "little")
    data = (value + bias).to_bytes(width * terms, "little")
    coeffs = [  # of P = 1 - R
        half - int.from_bytes(data[i : i + width], "little")
        for i in range(0, len(data), width)
    ]
    coeffs[0] += 1
    return IntPolynomial(enumerate(coeffs)), reached


# -- transfer matrix: the layer scan ------------------------------------------


def _survivor_state(shape: SystemShape, axis: int) -> np.ndarray:
    """Surviving configurations of the whole array, scanned along ``axis``.

    Cells are scanned one at a time, layer by layer along ``axis`` and
    row-major within the cross-section.  The state is one array with a
    digit axis of length ``s_a + 1`` per cross-section cell, then a weight
    axis: entry ``[d_1, ..., d_cells, w]`` counts the configurations of
    weight ``w`` in which cell ``i``'s run of failed cells along ``axis``,
    ending at the current layer, is ``d_i`` capped at ``s_a``.  A worked
    cell sums its digit axis into digit 0; a failed cell moves its digit up
    one, holding the cap, and its weight up one.  A failed cell completes a
    window exactly when it is the maximal corner of an ``s``-box of the
    cross-section whose digits are all at the cap; the other cells of that
    box come earlier in the layer, so their digits are already updated,
    and zeroing that one slice drops the failing configurations.

    The weight axis grows by one per cell.  Counts are int64 while ``2^N``
    fits, Python ints otherwise.
    """
    import numpy as np

    cross_n, cross_s = _cross_section(shape, axis)
    cap = shape.s[axis]
    cells = math.prod(cross_n)
    dtype = np.int64 if shape.volume < 63 else object
    grid = list(itertools.product(*map(range, cross_n)))
    position = {coords: i for i, coords in enumerate(grid)}
    # for each cross-section cell that is the maximal corner of a box, the
    # slice of the state where every cell of the box is at the cap
    boxes: list[tuple | None] = []
    for coords in grid:
        if all(c >= sr - 1 for c, sr in zip(coords, cross_s)):
            box: list = [slice(None)] * (cells + 1)
            for offs in itertools.product(*map(range, cross_s)):
                box[position[tuple(c - o for c, o in zip(coords, offs))]] = cap
            boxes.append(tuple(box))
        else:
            boxes.append(None)

    state = np.zeros((cap + 1,) * cells + (1,), dtype=dtype)
    state[(0,) * (cells + 1)] = 1
    for _ in range(shape.n[axis]):
        for i, box in enumerate(boxes):
            lead = (slice(None),) * i
            width = state.shape[-1]
            grown = np.zeros(state.shape[:-1] + (width + 1,), dtype=dtype)
            np.sum(state, axis=i, out=grown[lead + (0, ..., slice(None, width))])
            grown[lead + (slice(1, None), ..., slice(1, None))] = state[
                lead + (slice(None, cap),)
            ]
            grown[lead + (cap, ..., slice(1, None))] += state[lead + (cap,)]
            if box is not None:
                grown[box] = 0
            state = grown
    return state


def transfer_matrix_tally(shape: SystemShape) -> WeightTally:
    """Failed configurations by weight, by the transfer-matrix scan.

    Scans along the axis with the fewest states in the bound
    ``(s_a + 1)^(N / n_a)``.  Raises
    :class:`~relpoly.model.ResourceLimitError` before allocating when the
    predicted state tensors would not fit in half the physical memory.
    """
    volume = shape.volume
    if not shape.failable:
        return WeightTally(shape, (0,) * (volume + 1))
    cost = _transfer_matrix_cost(shape)
    _within_budget(shape, [cost])
    state = _survivor_state(shape, cost.axis)
    survivors = state.sum(axis=tuple(range(state.ndim - 1)))
    return WeightTally(
        shape,
        tuple(math.comb(volume, w) - int(g) for w, g in enumerate(survivors)),
    )


# -- the public entry points --------------------------------------------------


def _failure_polynomial(
    shape: SystemShape, route: RouteCost, config: EngineConfig | None
) -> tuple[IntPolynomial, int | None]:
    """The failure polynomial by ``route``, as :func:`choose_route` gave it,
    and the most states its packed scan held (None for the other routes)."""
    if route.payload == PACKED:
        return _packed_polynomial(shape, route.axis)
    if route.route == TRANSFER_MATRIX:
        return tally_to_polynomial(transfer_matrix_tally(shape)), None
    if route.axis is not None:
        return _window_layer_polynomial(shape, route.axis), None
    return inclusion_exclusion_polynomial(shape, config=config), None


def _record(route: RouteCost, reached: int | None) -> dict:
    """What one run reports: its route and, for a scan with one value or
    packed polynomial per state, the most states it held."""
    return {"route": route} if reached is None else {"route": route, "states": reached}


def failure_polynomial(
    shape: SystemShape,
    *,
    config: EngineConfig | None = None,
    stats: dict | None = None,
) -> IntPolynomial:
    """Exact failure probability P as a polynomial in q.

    Takes the route :func:`choose_route` picks; every route gives the same
    polynomial.  Returns the zero polynomial for non-failable shapes.
    Raises :class:`~relpoly.model.ResourceLimitError` when no route fits.
    A ``stats`` dict receives the ``"route"`` taken and, for the packed
    scan, the most ``"states"`` it held.
    """
    route = choose_route(shape, config=config)
    poly, reached = _failure_polynomial(shape, route, config)
    if stats is not None:
        stats.update(_record(route, reached))
    return poly


def reliability_polynomial(
    shape: SystemShape,
    *,
    config: EngineConfig | None = None,
    stats: dict | None = None,
) -> IntPolynomial:
    """Exact reliability R = 1 - P; ``stats`` as :func:`failure_polynomial`
    fills it."""
    return 1 - failure_polynomial(shape, config=config, stats=stats)


def failed_count(
    shape: SystemShape,
    *,
    config: EngineConfig | None = None,
    stats: dict | None = None,
) -> int:
    """Number of failed configurations among all 2^N binary arrays.

    That is ``2^N * (1 - R(1/2))``, with the value at q = 1/2 that
    :func:`exact_reliability` gives: by the window-layer scan with one value
    per state, or by the polynomial at 1/2, whichever is predicted faster.
    A ``stats`` dict receives what :func:`exact_reliability` reports.
    """
    reliability = exact_reliability(shape, _HALF, config=config, stats=stats)
    return int((1 - reliability) * 2**shape.volume)


def exact_reliability(
    shape: SystemShape,
    q: Fraction | int,
    *,
    config: EngineConfig | None = None,
    stats: dict | None = None,
) -> Fraction:
    """Exact reliability R at a rational q in [0, 1].

    Takes the route :func:`choose_route` picks for a value at ``q``: the
    window-layer scan with one value per state, which builds no
    polynomial, or a polynomial evaluated at ``q``.  A binary64 q is
    exactly ``a/2^m``, so ``float()`` of ``R(Fraction(q))`` is R at that q
    correctly rounded, as :meth:`~relpoly.model.IntPolynomial.eval_float`
    gives it.  Raises ``ValueError`` for q outside [0, 1].  A ``stats`` dict
    receives the ``"route"`` taken and, for a scan with one value or packed
    polynomial per state, the most ``"states"`` it held.
    """
    q = Fraction(q)
    if not 0 <= q <= 1:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    route = choose_route(shape, q=q, config=config)
    reliability, reached = _reliability(shape, q, route, config)
    if stats is not None:
        stats.update(_record(route, reached))
    return reliability


def _reliability(
    shape: SystemShape, q: Fraction, route: RouteCost, config: EngineConfig | None
) -> tuple[Fraction, int | None]:
    """R at ``q`` by ``route``, as :func:`choose_route` priced it for a value
    at ``q``, and the most states its scan held (None for the rows, the
    sweep and the transfer matrix)."""
    if route.payload == VALUE:
        (value,), reached = _window_layer_values(shape, route.axis, q, shape.n[route.axis])
        return Fraction(value, q.denominator**shape.volume), reached
    poly, reached = _failure_polynomial(shape, route, config)
    return 1 - poly.eval_rational(q), reached


def count_sequence(
    n: Sequence[int],
    s: Sequence[int],
    axis: int,
    stop: int,
    *,
    config: EngineConfig | None = None,
    stats: dict | None = None,
) -> list[int]:
    """Failed-configuration counts as one array extent grows.

    Axis ``axis`` (0-based) of ``n`` runs from its given value up to
    ``stop`` inclusive; all other extents stay fixed.  One window-layer
    scan of the final extent along ``axis``, with one value per state,
    yields every count: after cell layer t its empty chain holds
    ``2^(t * cells)`` times the reliability of extent t at q = 1/2.  It is
    taken when it fits and its predicted time is at most the sum of the
    extents' own count routes (:func:`failed_count`); otherwise each
    extent is counted by the route it was priced with.  The extents are
    priced from the largest down, and only until their sum reaches the
    scan's.  A ``stats`` dict receives what :func:`failed_count` reports
    for the one scan, or under ``"routes"`` a list of those reports, one
    per extent.
    """
    n = list(n)
    if not 0 <= axis < len(n):
        raise ValueError(f"axis {axis} out of range for d={len(n)}")
    start = n[axis]
    if stop < start:
        raise ValueError(f"stop {stop} is below the starting extent {start}")
    n[axis] = stop
    final = validate_shape(n, s)
    scan = _window_layer_value_cost(final, axis, final.volume)
    scan_fits = scan.nbytes <= memory_budget()
    priced: list[tuple[SystemShape, RouteCost]] = []  # ascending, as returned
    total = 0.0
    for v in range(stop, start - 1, -1):
        if scan_fits and total >= scan.seconds:
            break
        n[axis] = v
        shape = validate_shape(n, s)
        route = choose_route(shape, q=_HALF, config=config)
        priced.insert(0, (shape, route))
        total += route.seconds
    if scan_fits and total >= scan.seconds:
        survivors, reached = _window_layer_values(final, axis, _HALF, start)
        if stats is not None:
            stats.update(_record(scan, reached))
        cells = final.volume // stop
        return [(1 << (t * cells)) - v for t, v in enumerate(survivors, start)]
    counts, runs = [], []
    for shape, route in priced:
        reliability, reached = _reliability(shape, _HALF, route, config)
        counts.append(int((1 - reliability) * 2**shape.volume))
        runs.append(_record(route, reached))
    if stats is not None:
        stats["routes"] = runs
    return counts
