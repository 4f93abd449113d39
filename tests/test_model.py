"""Shape validation, polynomial arithmetic, evaluation, serialization."""

import json
from fractions import Fraction

import pytest

from relpoly import (
    IntPolynomial,
    ResourceLimitError,
    ShapeError,
    failure_polynomial,
    polynomial_from_json,
    polynomial_to_json,
    reliability_polynomial,
    validate_shape,
)

R_1_2 = IntPolynomial({0: 1, 1: -2, 2: 1})  # (1-q)^2


class TestValidateShape:
    def test_one_dim(self):
        shape = validate_shape([2], [1])
        assert shape.d == 1
        assert shape.volume == 2
        assert shape.num_windows == 2
        assert shape.failable

    def test_two_dim(self):
        shape = validate_shape([2, 3], [1, 2])
        assert shape.volume == 6
        assert shape.num_windows == 4
        assert shape.failable

    def test_window_larger_than_array_is_nonfailable(self):
        shape = validate_shape([2], [3])
        assert not shape.failable
        assert shape.num_windows == 0

    @pytest.mark.parametrize(
        "n,s",
        [([], []), ([2], [1, 1]), ([0], [1]), ([2], [0]), ([2, -1], [1, 1])],
    )
    def test_rejects_malformed(self, n, s):
        with pytest.raises(ShapeError):
            validate_shape(n, s)

    def test_rejects_non_integer_extents(self):
        with pytest.raises(ShapeError):
            validate_shape([2.5], [1])

    def test_volume_cap(self):
        with pytest.raises(ResourceLimitError):
            validate_shape([2048, 2048], [2, 2])

    def test_permuted(self):
        shape = validate_shape([2, 3, 4], [1, 2, 3])
        assert shape.permuted([2, 0, 1]) == validate_shape([4, 2, 3], [3, 1, 2])


class TestIntPolynomial:
    def test_drops_zero_coefficients(self):
        p = IntPolynomial({0: 1, 3: 0, 5: 2})
        assert p.terms() == [(0, 1), (5, 2)]
        assert p.coefficient(3) == 0

    def test_duplicate_pairs_accumulate(self):
        assert IntPolynomial([(2, 1), (2, 2)]) == IntPolynomial({2: 3})
        assert IntPolynomial([(2, 1), (2, -1)]).is_zero

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            IntPolynomial({-1: 2})

    def test_rejects_non_int(self):
        with pytest.raises(TypeError):
            IntPolynomial({1: 0.5})

    def test_arithmetic(self):
        p = IntPolynomial({1: 2, 2: -1})
        assert 1 - p == IntPolynomial({0: 1, 1: -2, 2: 1})
        assert p + IntPolynomial({1: -2}) == IntPolynomial({2: -1})
        assert (p - p).is_zero
        assert -p == IntPolynomial({1: -2, 2: 1})

    def test_degree_and_lowest_term(self):
        p = IntPolynomial({2: 4, 6: -1})
        assert p.degree == 6
        assert p.lowest_term() == (2, 4)
        assert IntPolynomial.zero().degree == -1
        assert IntPolynomial.zero().lowest_term() is None

    def test_immutable(self):
        p = IntPolynomial({1: 1})
        with pytest.raises(AttributeError):
            p._coeffs = {}
        with pytest.raises(TypeError):
            p.coeffs[1] = 2


class TestEvaluation:
    def test_rational_at_trivial_points(self):
        assert R_1_2.eval_rational(Fraction(0)) == 1
        assert R_1_2.eval_rational(Fraction(1)) == 0
        assert R_1_2.eval_rational(Fraction(1, 2)) == Fraction(1, 4)

    def test_float_matches_small_cases(self):
        assert R_1_2.eval_float(0.5) == pytest.approx(0.25, abs=1e-12)
        full = IntPolynomial({0: 1, 4: -1})  # 1 - q^4, the s=n case
        assert full.eval_float(1.0) == 0.0

    def test_float_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            R_1_2.eval_float(1.5)
        with pytest.raises(ValueError):
            R_1_2.eval_float(-0.1)

    def test_float_agrees_with_rational(self):
        poly = reliability_polynomial(validate_shape([2, 3], [1, 2]))
        exact = poly.eval_rational(Fraction(1, 10))
        assert poly.eval_float(0.1) == pytest.approx(float(exact), rel=1e-9)

    @pytest.mark.parametrize(
        "n,s",
        [([13], [3]), ([30], [12]), ([5, 6], [2, 3]), ([2, 3, 5], [1, 2, 3])],
    )
    def test_float_agrees_with_rational_on_spot_shapes(self, n, s):
        poly = failure_polynomial(validate_shape(n, s))
        for num, den in [(1, 10), (3, 10), (1, 2), (9, 10)]:
            exact = float(poly.eval_rational(Fraction(num, den)))
            approx = poly.eval_float(num / den)
            assert approx == pytest.approx(exact, rel=1e-9, abs=1e-15)

    def test_zero_polynomial(self):
        assert IntPolynomial.zero().eval_rational(Fraction(1, 3)) == 0
        assert IntPolynomial.zero().eval_float(0.7) == 0.0

    def test_float_agrees_with_rational_across_catalog(self):
        from helpers import catalog

        points = [Fraction(1, 10), Fraction(3, 10), Fraction(1, 2), Fraction(9, 10)]
        for shape in catalog(max_volume=12):
            poly = failure_polynomial(shape)
            for q in points:
                exact = float(poly.eval_rational(q))
                assert poly.eval_float(float(q)) == pytest.approx(
                    exact, rel=1e-9, abs=1e-15
                ), (shape, q)


# both tails, where the power-basis coefficients cancel hardest
TAIL_GRID = [0.0, 1e-9, 1e-3, 0.1, 0.25, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999,
             1 - 1e-9, 1.0]


class TestCorrectlyRounded:
    """eval_float is the exact value at the binary64 q, correctly rounded."""

    def test_catalog_in_both_tails(self):
        from helpers import catalog

        for shape in catalog(max_volume=12):
            p = failure_polynomial(shape)
            for poly in (p, 1 - p):
                for q in TAIL_GRID:
                    value = poly.eval_float(q)
                    assert value == float(poly.eval_rational(Fraction(q))), (
                        shape, q)
                    assert 0.0 <= value <= 1.0, (shape, q)

    def test_wide_exponent_gap(self):
        gap = 1 << 20
        r = IntPolynomial({0: 1, gap: -1})  # 1 - q^gap
        assert r.eval_rational(Fraction(1, 2)) == 1 - Fraction(1, 1 << gap)
        assert r.eval_float(0.5) == 1.0
        assert (1 - r).eval_float(0.5) == 0.0  # 2^-gap underflows to 0


class TestSerialization:
    def test_canonical_form(self):
        shape = validate_shape([2, 3], [1, 2])
        poly = failure_polynomial(shape)
        obj = polynomial_to_json(shape, poly)
        assert obj == {
            "n": [2, 3],
            "s": [1, 2],
            "poly": [[2, "4"], [3, "-2"], [4, "-4"], [5, "4"], [6, "-1"]],
        }
        exps = [e for e, _ in obj["poly"]]
        assert exps == sorted(exps)

    def test_round_trip(self):
        shape = validate_shape([2, 3, 4], [1, 2, 3])
        poly = reliability_polynomial(shape)
        blob = json.dumps(polynomial_to_json(shape, poly))
        shape2, poly2 = polynomial_from_json(json.loads(blob))
        assert shape2 == shape
        assert poly2 == poly

    def test_big_coefficients_survive(self):
        shape = validate_shape([100], [99])
        poly = IntPolynomial({0: 10**30, 99: -(10**30)})
        _, back = polynomial_from_json(polynomial_to_json(shape, poly))
        assert back == poly

    def test_rejects_unsorted_exponents(self):
        with pytest.raises(ValueError):
            polynomial_from_json({"n": [2], "s": [1], "poly": [[2, "1"], [1, "1"]]})

    def test_rejects_exponent_beyond_volume(self):
        with pytest.raises(ValueError):
            polynomial_from_json({"n": [2], "s": [1], "poly": [[3, "1"]]})
        with pytest.raises(ValueError):
            polynomial_to_json(validate_shape([2], [1]), IntPolynomial({3: 1}))

    def test_rejects_malformed_object(self):
        with pytest.raises(ValueError):
            polynomial_from_json({"poly": []})

    @pytest.mark.parametrize(
        "poly",
        [[[2.7, "2"], [3, -1.9]], [[2, "2"], [3, -1.9]], [[2, 2.0]], [[2.0, 1]],
         [[True, 1]], [[2, True]], [[2, "2.5"]], [[2, "1e3"]], [["2", 1]],
         [[2, " 1"]], [[2, "+1"]], [[2, None]]],
    )
    def test_rejects_non_integer_terms(self, poly):
        with pytest.raises(ValueError):
            polynomial_from_json({"n": [3], "s": [2], "poly": poly})


class TestShapePolynomialInvariants:
    """P(0)=0, P(1)=1, R+P=1 on a few shapes; the full catalog sweep lives
    in the acceptance suite."""

    @pytest.mark.parametrize(
        "n,s", [([2], [1]), ([2, 3], [1, 2]), ([4], [2]), ([2, 2, 2], [1, 2, 1])]
    )
    def test_failable_normalization(self, n, s):
        shape = validate_shape(n, s)
        p = failure_polynomial(shape)
        r = reliability_polynomial(shape)
        assert p.eval_rational(Fraction(0)) == 0
        assert p.eval_rational(Fraction(1)) == 1
        assert r + p == IntPolynomial.one()

    def test_nonfailable_is_zero(self):
        assert failure_polynomial(validate_shape([2], [3])).is_zero
        assert reliability_polynomial(validate_shape([2], [3])) == IntPolynomial.one()
