"""Seeded Monte Carlo estimation of the failure probability.

The statistical fallback for instances too large for the exact sweep.
Cells are drawn independently (1 with probability q) from a counter-based
Philox generator: each cell is one raw 64-bit word, thresholded as an
integer into a bool mask exactly where ``Generator.random()`` would fall
below q.  The mask is classified with the oracle's window detector (an
in-place separable box erosion of one bool copy, no integer tables), and
the failure frequency is reported with a 95% confidence interval.

Sampling is organized in fixed-size batches; batch i derives its stream
from (seed, i), and batch results merge by failure-count addition, so an
estimate depends only on (seed, samples, batch size), never on scheduling.
Each batch is drawn and classified in row chunks of 2^18 cells, fewer rows
where the batches in flight would not fit the engine's memory budget; the
chunks do not change the draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .engine import _pool_threads, memory_budget, ordered_map, resolve_workers
from .model import SystemShape
from .oracle import detect_failures

if TYPE_CHECKING:
    import numpy as np

__all__ = ["DEFAULT_BATCH_SIZE", "McEstimate", "estimate_failure_probability"]

#: Samples per generator batch.  Part of the reproducibility contract:
#: changing it changes which stream each sample comes from.
DEFAULT_BATCH_SIZE = 1 << 14

#: Generator algorithm recorded in every estimate.
RNG_NAME = "philox4x64"

_Z_95 = 1.96

# Cells per row chunk of a batch (at least one row), so that a batch's peak
# stays a few MB whatever its size, as the engine's fixed table blocks do.
_CHUNK_CELLS = 1 << 18


@dataclass(frozen=True)
class McEstimate:
    """A reproducible failure-probability estimate.

    ``ci95`` is the normal-approximation interval, replaced by the Wilson
    interval in the degenerate cases (no failures / all failures) where the
    normal width collapses to zero.  The seed and generator name are part
    of the record so any estimate can be regenerated.
    """

    shape: SystemShape
    q: float
    samples: int
    failures: int
    p_hat: float
    stderr: float
    ci95: tuple[float, float]
    seed: int
    rng: str = RNG_NAME


def _batch_bits(seed: int, batch_index: int) -> np.random.Philox:
    import numpy as np

    ss = np.random.SeedSequence(entropy=seed, spawn_key=(batch_index,))
    return np.random.Philox(ss)


def _draw_cells(bits: np.random.Philox, q: float, cells: tuple[int, int]) -> np.ndarray:
    """The next ``cells`` draws of ``bits`` as a bool mask, 1 with probability q.

    ``Generator.random()`` maps a raw word x to ``(x >> 11) * 2^-53``, so
    it falls below q exactly when ``x < ceil(q * 2^53) << 11``: the mask
    is that integer comparison on the raw words, the same draws without
    the float conversion.  At q = 1 the bound is 2^64 and every cell is 1.
    """
    import numpy as np

    limit = math.ceil(q * 2**53) << 11
    if limit >> 64:
        return np.ones(cells, dtype=bool)
    return bits.random_raw(cells) < limit


def _row_bytes(shape: SystemShape) -> int:
    """Peak bytes per sampled row while a chunk is drawn and classified.

    Per cell the raw uint64 word and its bool mask: 9 bytes.  The words
    are freed before the detector runs, and the detector's one bool copy
    of the mask (1 per cell) fits in their place.  tracemalloc measures
    9.0 per cell plus about 1 KB per chunk; rounded up to 10 per cell.
    """
    return 10 * shape.volume


def _count_batch(
    shape: SystemShape, q: float, seed: int, batch_index: int, size: int, rows: int
) -> int:
    """Failures among the ``size`` samples of one batch, ``rows`` at a time.

    The generator fills its output in sequence, so the chunks' draws
    concatenate to the batch's single draw and the count does not depend
    on ``rows``.
    """
    bits = _batch_bits(seed, batch_index)
    failures = 0
    for start in range(0, size, rows):
        # the raw words are freed once compared, before the detector runs
        mask = _draw_cells(bits, q, (min(rows, size - start), shape.volume))
        failures += int(detect_failures(shape, mask).sum())
    return failures


def _wilson_interval(failures: int, samples: int) -> tuple[float, float]:
    z2 = _Z_95 * _Z_95
    p = failures / samples
    denom = 1.0 + z2 / samples
    center = (p + z2 / (2 * samples)) / denom
    half = (
        _Z_95
        * math.sqrt(p * (1 - p) / samples + z2 / (4 * samples * samples))
        / denom
    )
    # the Wilson interval contains the point estimate; keep that true under
    # floating-point rounding as well
    return max(0.0, min(p, center - half)), min(1.0, max(p, center + half))


def estimate_failure_probability(
    shape: SystemShape,
    q: float,
    samples: int,
    seed: int,
    *,
    batch_size: int = DEFAULT_BATCH_SIZE,
    workers: int | None = None,
) -> McEstimate:
    """Estimate P(q) from ``samples`` independent random configurations.

    Same (shape, q, samples, seed, batch_size) always yields the identical
    estimate.  ``workers`` follows the engine's rule
    (:func:`relpoly.engine.resolve_workers`); the worker count never
    affects the result.
    """
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must lie in [0, 1], got {q}")
    if samples < 1:
        raise ValueError(f"sample count must be positive, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if batch_size < 1:
        raise ValueError(f"batch size must be positive, got {batch_size}")
    workers = resolve_workers(workers)

    sizes = [
        min(batch_size, samples - start)
        for start in range(0, samples, batch_size)
    ]
    # _CHUNK_CELLS per chunk, or fewer rows to fit the budget share of each
    # batch in flight, one per pool thread
    in_flight = _pool_threads(workers, len(sizes))
    budget_rows = int(memory_budget() // (in_flight * _row_bytes(shape)))
    rows = max(1, min(_CHUNK_CELLS // shape.volume, budget_rows))
    counts = ordered_map(
        lambda i, size: _count_batch(shape, q, seed, i, size, rows),
        list(enumerate(sizes)),
        workers,
    )
    failures = sum(counts)

    p_hat = failures / samples
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    if failures in (0, samples):
        ci = _wilson_interval(failures, samples)
    else:
        ci = (
            max(0.0, p_hat - _Z_95 * stderr),
            min(1.0, p_hat + _Z_95 * stderr),
        )
    return McEstimate(
        shape=shape,
        q=q,
        samples=samples,
        failures=failures,
        p_hat=p_hat,
        stderr=stderr,
        ci95=ci,
        seed=seed,
    )
