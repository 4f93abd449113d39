"""Monte Carlo estimator: determinism, degenerate inputs, interval sanity."""

import os
import tracemalloc

import numpy as np
import pytest

import relpoly.montecarlo
from relpoly import (
    estimate_failure_probability,
    failure_polynomial,
    validate_shape,
)

SHAPE = validate_shape([4, 4], [2, 2])


class TestDegenerateInputs:
    def test_q_zero_never_fails(self):
        est = estimate_failure_probability(SHAPE, 0.0, 100, 7)
        assert est.failures == 0
        assert est.p_hat == 0.0
        assert est.ci95[0] == 0.0

    def test_q_one_always_fails_when_failable(self):
        est = estimate_failure_probability(SHAPE, 1.0, 100, 7)
        assert est.failures == 100
        assert est.p_hat == 1.0
        assert est.ci95[1] == 1.0

    def test_q_one_nonfailable(self):
        shape = validate_shape([2], [3])
        est = estimate_failure_probability(shape, 1.0, 100, 7)
        assert est.p_hat == 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_failure_probability(SHAPE, 1.5, 100, 7)
        with pytest.raises(ValueError):
            estimate_failure_probability(SHAPE, -0.1, 100, 7)
        with pytest.raises(ValueError):
            estimate_failure_probability(SHAPE, 0.5, 0, 7)
        with pytest.raises(ValueError):
            estimate_failure_probability(SHAPE, 0.5, 100, -1)
        with pytest.raises(ValueError):
            estimate_failure_probability(SHAPE, 0.5, 100, 7, batch_size=0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_nonpositive_workers(self, workers):
        with pytest.raises(ValueError, match="worker count"):
            estimate_failure_probability(SHAPE, 0.5, 100, 7, workers=workers)


class TestReproducibility:
    def test_same_seed_bit_identical(self):
        a = estimate_failure_probability(SHAPE, 0.3, 50_000, 123)
        b = estimate_failure_probability(SHAPE, 0.3, 50_000, 123)
        assert a == b

    def test_different_seeds_differ(self):
        a = estimate_failure_probability(SHAPE, 0.3, 50_000, 0)
        b = estimate_failure_probability(SHAPE, 0.3, 50_000, 1)
        assert a.failures != b.failures

    def test_worker_count_never_changes_the_estimate(self):
        kwargs = dict(batch_size=1 << 12)
        a = estimate_failure_probability(SHAPE, 0.3, 40_000, 9, workers=1, **kwargs)
        b = estimate_failure_probability(SHAPE, 0.3, 40_000, 9, workers=4, **kwargs)
        assert a == b

    @pytest.mark.parametrize(
        "n,s,q,samples,seed,batch,failures",
        [([4, 4], [2, 2], 0.3, 50_000, 123, 1 << 14, 3191),
         ([4, 4], [2, 2], 0.3, 3000, 5, 1024, 182),
         ([8, 8], [3, 3], 0.45, 5000, 7, 2048, 132),
         ([30], [4], 0.6, 4000, 11, 1500, 3434),
         ([3, 4, 5], [2, 2, 2], 0.5, 2500, 3, 700, 223)],
    )
    def test_golden_failures(self, n, s, q, samples, seed, batch, failures):
        # (seed, batch size) fixes every draw: these counts must not move
        est = estimate_failure_probability(
            validate_shape(n, s), q, samples, seed, batch_size=batch
        )
        assert est.failures == failures

    @pytest.mark.parametrize("rows", [1, 7])
    def test_row_chunks_keep_the_draws(self, monkeypatch, rows):
        # a budget of `rows` rows per batch in flight: the batch is drawn in
        # chunks of that many rows and must give the same failures
        shape = validate_shape([3, 4, 5], [2, 2, 2])
        budget = 2 * rows * relpoly.montecarlo._row_bytes(shape)
        monkeypatch.setattr(relpoly.montecarlo, "memory_budget", lambda: budget)
        detect = relpoly.montecarlo.detect_failures
        chunks = []

        def counted(shape, patterns):
            chunks.append(len(patterns))
            return detect(shape, patterns)

        monkeypatch.setattr(relpoly.montecarlo, "detect_failures", counted)
        est = estimate_failure_probability(
            shape, 0.5, 2500, 3, batch_size=700, workers=2
        )
        assert max(chunks) == rows and sum(chunks) == 2500
        assert est.failures == 223

    def test_budget_shared_by_the_pool_threads(self, monkeypatch):
        # 64 workers on 2 cores hold two batches in flight, as 2 workers do:
        # each gets half the budget, 7 rows, and the draws do not change
        shape = validate_shape([3, 4, 5], [2, 2, 2])
        budget = 2 * 7 * relpoly.montecarlo._row_bytes(shape)
        monkeypatch.setattr(relpoly.montecarlo, "memory_budget", lambda: budget)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        detect = relpoly.montecarlo.detect_failures
        chunks = []

        def counted(shape, patterns):
            chunks.append(len(patterns))
            return detect(shape, patterns)

        monkeypatch.setattr(relpoly.montecarlo, "detect_failures", counted)
        est = estimate_failure_probability(
            shape, 0.5, 2500, 3, batch_size=700, workers=64
        )
        assert max(chunks) == 7
        assert est.failures == 223

    @pytest.mark.parametrize(
        "n,s", [([300], [4]), ([48, 48], [3, 3]), ([12, 12, 12], [2, 2, 2])]
    )
    def test_row_bytes_bound_the_chunk_peak(self, n, s):
        shape = validate_shape(n, s)
        rows = 512
        bound = rows * relpoly.montecarlo._row_bytes(shape)
        tracemalloc.start()
        try:
            relpoly.montecarlo._count_batch(shape, 0.4, 1, 0, rows, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert bound / 2 <= peak <= bound

    def test_chunks_hold_a_fixed_cell_count(self, monkeypatch):
        # a 2048-row batch of 2304 cells is drawn 2^18 // 2304 = 113 rows at
        # a time, however large the memory budget, and peaks at a few MB
        shape = validate_shape([48, 48], [3, 3])
        count_batch = relpoly.montecarlo._count_batch
        chunk_rows = []

        def recorded(shape, q, seed, batch_index, size, rows):
            chunk_rows.append(rows)
            return count_batch(shape, q, seed, batch_index, size, rows)

        monkeypatch.setattr(relpoly.montecarlo, "_count_batch", recorded)
        tracemalloc.start()
        try:
            estimate_failure_probability(
                shape, 0.44, 2048, 1, batch_size=2048, workers=1
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chunk_rows == [113]
        assert peak < 4 << 20

    def test_generator_recorded(self):
        est = estimate_failure_probability(SHAPE, 0.2, 10, 5)
        assert est.rng == "philox4x64"
        assert est.seed == 5


class TestRawWordDraws:
    # the float draw is kept here only as the reference the raw words match
    QS = [
        0.0, 5e-324, 2**-53, 3 * 2**-53, 0.38, float(np.nextafter(0.5, 0)),
        0.5, 1 - 2**-53, 1.0,
    ]

    @pytest.mark.parametrize("q", QS)
    @pytest.mark.parametrize(
        "seed,batch_index", [(0, 0), (7, 3), (123, 1), (2**40 + 9, 17)]
    )
    def test_mask_is_the_float_draw(self, q, seed, batch_index):
        bits = relpoly.montecarlo._batch_bits(seed, batch_index)
        reference = np.random.Generator(
            relpoly.montecarlo._batch_bits(seed, batch_index)
        )
        # chunks continue one stream, as _count_batch draws them
        for cells in [(113, 48), (1, 48), (40, 48)]:
            got = relpoly.montecarlo._draw_cells(bits, q, cells)
            assert got.dtype == bool and got.shape == cells
            assert np.array_equal(got, reference.random(cells) < q)

    @pytest.mark.parametrize("q", QS)
    def test_threshold_at_the_word_boundaries(self, q):
        # words on both sides of the float boundary k * 2^-53 < q, with the
        # 11 low bits that random() discards both clear and set
        k = int(q * 2**53)
        ks = {0, 2**53 - 1} | {
            max(0, min(2**53 - 1, k + d)) for d in (-2, -1, 0, 1, 2)
        }
        words = np.array(
            [kk << 11 | low for kk in sorted(ks) for low in (0, 1, 2047)],
            dtype=np.uint64,
        )

        class Words:
            def random_raw(self, cells):
                return words.reshape(cells)

        got = relpoly.montecarlo._draw_cells(Words(), q, (1, len(words)))
        want = (words >> np.uint64(11)).astype(float) * 2.0**-53 < q
        assert np.array_equal(got[0], want)

    @pytest.mark.parametrize("q", [0.0, 1e-300, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_counts_are_the_float_draw_counts(self, q, seed):
        shape = validate_shape([6, 7], [2, 2])
        count = relpoly.montecarlo._count_batch(shape, q, seed, 2, 500, 64)
        gen = np.random.Generator(relpoly.montecarlo._batch_bits(seed, 2))
        mask = gen.random((500, shape.volume)) < q
        assert count == int(relpoly.detect_failures(shape, mask).sum())


class TestIntervals:
    def test_ci_contains_p_hat(self):
        for seed in range(5):
            est = estimate_failure_probability(SHAPE, 0.3, 2000, seed)
            assert est.ci95[0] <= est.p_hat <= est.ci95[1]
            assert 0.0 <= est.ci95[0] <= est.ci95[1] <= 1.0

    def test_wilson_interval_on_zero_failures(self):
        est = estimate_failure_probability(SHAPE, 0.01, 50, 3)
        assert est.failures == 0  # deterministic: seeded generator
        assert est.ci95[0] == 0.0
        assert est.ci95[1] > 0.0

    def test_three_sigma_consistency(self):
        exact = failure_polynomial(SHAPE).eval_float(0.3)
        est = estimate_failure_probability(SHAPE, 0.3, 50_000, 7)
        assert abs(est.p_hat - exact) <= 3 * est.stderr
