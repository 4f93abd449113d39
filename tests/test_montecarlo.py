"""Monte Carlo estimator: determinism, degenerate inputs, interval sanity."""

import pytest

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

    def test_generator_recorded(self):
        est = estimate_failure_probability(SHAPE, 0.2, 10, 5)
        assert est.rng == "philox4x64"
        assert est.seed == 5


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
