"""Problem instances and exact polynomial values.

A problem instance is an ``n_1 x ... x n_d`` array of independent binary
cells; the system fails when some contiguous ``s_1 x ... x s_d`` window is
all ones.  Both the failure probability P and the reliability R = 1 - P are
polynomials in the per-cell failure probability q, with integer coefficients.
This module holds the shape type, the sparse integer polynomial type, and
its evaluation: one integer Horner at q = a/d gives both the exact
rational value and, at a binary64 q, the correctly rounded float.

Exact rational values are plain :class:`fractions.Fraction` objects; they
are always reduced and carry arbitrary-precision numerators/denominators.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "DEFAULT_VOLUME_CAP",
    "IntPolynomial",
    "ResourceLimitError",
    "ShapeError",
    "SystemShape",
    "polynomial_from_json",
    "polynomial_to_json",
    "validate_shape",
]

#: Largest permitted cell count N = prod(n); exponents range over [0, N].
DEFAULT_VOLUME_CAP = 1 << 20


class ShapeError(ValueError):
    """The supplied problem instance is malformed (usage error)."""


class ResourceLimitError(RuntimeError):
    """The instance exceeds a resource cap (not a usage error)."""


@dataclass(frozen=True)
class SystemShape:
    """Array extents ``n`` and window extents ``s`` of one problem instance.

    Instances are immutable and safe to share between threads.  Shapes where
    some ``s_r > n_r`` are allowed and classified non-failable: no window
    fits, so the failure probability is identically zero.  Build shapes via
    :func:`validate_shape`, which checks the invariants.  ``volume`` and
    ``num_windows`` are computed once per instance; equality and hashing
    see the fields alone.
    """

    n: tuple[int, ...]
    s: tuple[int, ...]

    @property
    def d(self) -> int:
        """Number of dimensions."""
        return len(self.n)

    @cached_property
    def volume(self) -> int:
        """Total cell count N = n_1 * ... * n_d."""
        return math.prod(self.n)

    @property
    def window_volume(self) -> int:
        """Cells in a single window, s_1 * ... * s_d."""
        return math.prod(self.s)

    @cached_property
    def num_windows(self) -> int:
        """Number of window placements, prod(max(0, n_r - s_r + 1))."""
        return math.prod(max(0, nr - sr + 1) for nr, sr in zip(self.n, self.s))

    @property
    def failable(self) -> bool:
        """True iff at least one window fits (all s_r <= n_r)."""
        return self.num_windows > 0

    def permuted(self, order: Sequence[int]) -> "SystemShape":
        """Shape with the same axis permutation applied to n and s."""
        return SystemShape(
            tuple(self.n[i] for i in order), tuple(self.s[i] for i in order)
        )

    def __str__(self) -> str:
        return f"n={list(self.n)} s={list(self.s)}"


def validate_shape(n: Sequence[int], s: Sequence[int]) -> SystemShape:
    """Check and freeze a problem instance.

    Raises :class:`ShapeError` for an empty or mismatched extent vector or
    any extent < 1, and :class:`ResourceLimitError` when the cell count
    exceeds :data:`DEFAULT_VOLUME_CAP`.  Shapes with some ``s_r > n_r`` are
    accepted and marked non-failable rather than rejected.
    """
    try:
        n = tuple(operator.index(x) for x in n)
        s = tuple(operator.index(x) for x in s)
    except TypeError as exc:
        raise ShapeError(f"extents must be integers: {exc}") from exc
    if len(n) < 1:
        raise ShapeError("dimension must be at least 1 (empty extent vector)")
    if len(n) != len(s):
        raise ShapeError(
            f"extent vectors differ in length: len(n)={len(n)}, len(s)={len(s)}"
        )
    if any(x < 1 for x in n):
        raise ShapeError(f"array extents must be positive, got n={list(n)}")
    if any(x < 1 for x in s):
        raise ShapeError(f"window extents must be positive, got s={list(s)}")
    shape = SystemShape(n, s)
    if shape.volume > DEFAULT_VOLUME_CAP:
        raise ResourceLimitError(
            f"cell count {shape.volume} exceeds the volume cap {DEFAULT_VOLUME_CAP}"
        )
    return shape


class IntPolynomial:
    """Sparse polynomial in q with arbitrary-precision integer coefficients.

    Only nonzero coefficients are stored, keyed by exponent.  Coefficients
    are Python ints throughout; there is no machine-word fast path, so
    overflow cannot occur silently.  Instances are immutable; equality is
    exact coefficient-wise equality.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        acc: dict[int, int] = {}
        for exp, c in items:
            if not isinstance(exp, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be ints")
            if exp < 0:
                raise ValueError(f"negative exponent {exp}")
            if c:
                acc[exp] = acc.get(exp, 0) + c
        object.__setattr__(self, "_coeffs", {e: c for e, c in acc.items() if c})

    def __setattr__(self, name, value):
        raise AttributeError("IntPolynomial is immutable")

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls({0: 1})

    # -- inspection ------------------------------------------------------

    @property
    def coeffs(self) -> Mapping[int, int]:
        """Read-only view of the exponent -> coefficient map."""
        return MappingProxyType(self._coeffs)

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def terms(self) -> list[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs in ascending exponent order."""
        return sorted(self._coeffs.items())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        """Largest exponent with a nonzero coefficient; -1 for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else -1

    def lowest_term(self) -> tuple[int, int] | None:
        """(exponent, coefficient) of the lowest-order nonzero term, or None."""
        if not self._coeffs:
            return None
        e = min(self._coeffs)
        return e, self._coeffs[e]

    # -- arithmetic --------------------------------------------------------

    def _as_poly(self, other) -> "IntPolynomial":
        if isinstance(other, IntPolynomial):
            return other
        if isinstance(other, int):
            return IntPolynomial({0: other})
        return NotImplemented

    def __add__(self, other) -> "IntPolynomial":
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._coeffs)
        for e, c in other._coeffs.items():
            merged[e] = merged.get(e, 0) + c
        return IntPolynomial(merged)

    __radd__ = __add__

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other) -> "IntPolynomial":
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "IntPolynomial":
        other = self._as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __eq__(self, other) -> bool:
        if isinstance(other, IntPolynomial):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __repr__(self) -> str:
        return f"IntPolynomial({self.terms()!r})"

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.terms())

    # -- evaluation --------------------------------------------------------

    def _scaled_value(self, a: int, d: int) -> tuple[int, int]:
        """Integers ``(num, d^D)`` whose quotient is the value at q = a/d.

        ``num = sum of c_e * a^e * d^(D-e)``, with D the degree, by Horner
        over the sparse terms from the top exponent down; each exponent gap
        is one power of ``a`` and one of ``d``.
        """
        num, den, prev = 0, 1, max(self._coeffs, default=0)
        for exp, c in sorted(self._coeffs.items(), reverse=True):
            gap = prev - exp
            den *= d**gap  # d^(D - exp)
            num = num * a**gap + c * den
            prev = exp
        return num * a**prev, den * d**prev

    def eval_rational(self, q: Fraction | int) -> Fraction:
        """Exact value at a rational point."""
        q = Fraction(q)
        return Fraction(*self._scaled_value(q.numerator, q.denominator))

    def eval_float(self, q: float) -> float:
        """Value at the binary64 q in [0, 1]: the exact value, correctly rounded.

        A binary64 q is exactly a/2^m, and Python rounds an int / int
        quotient correctly, so P and R always lie in [0, 1]; nothing cancels
        or overflows.
        """
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must lie in [0, 1], got {q}")
        num, den = self._scaled_value(*q.as_integer_ratio())
        return num / den


# -- canonical serialization ------------------------------------------------
#
# {"n": [...], "s": [...], "poly": [[exponent, "coefficient"], ...]}
# with exponents strictly increasing and coefficients as decimal strings
# (they routinely exceed 64-bit range).


def polynomial_to_json(shape: SystemShape, poly: IntPolynomial) -> dict:
    """Canonical JSON object for a polynomial attached to a shape."""
    if poly.degree > shape.volume:
        raise ValueError(
            f"polynomial degree {poly.degree} exceeds shape volume {shape.volume}"
        )
    return {
        "n": list(shape.n),
        "s": list(shape.s),
        "poly": [[e, str(c)] for e, c in poly.terms()],
    }


def _json_int(value: object, decimal_string: bool) -> int:
    if type(value) is int or (  # not bool
        decimal_string and isinstance(value, str) and value.isascii()
        and value.removeprefix("-").isdigit()
    ):
        return int(value)
    raise ValueError(f"expected an integer in the polynomial, got {value!r}")


def polynomial_from_json(obj: Mapping) -> tuple[SystemShape, IntPolynomial]:
    """Parse the canonical serialization back into (shape, polynomial).

    Exponents must be ints, coefficients ints or decimal strings; anything
    else, floats and bools included, raises ValueError.
    """
    try:
        shape = validate_shape(obj["n"], obj["s"])
        pairs = [(_json_int(e, False), _json_int(c, True)) for e, c in obj["poly"]]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial object: {exc}") from exc
    exps = [e for e, _ in pairs]
    if exps != sorted(set(exps)):
        raise ValueError("polynomial exponents must be strictly increasing")
    if exps and exps[-1] > shape.volume:
        raise ValueError(
            f"exponent {exps[-1]} exceeds shape volume {shape.volume}"
        )
    return shape, IntPolynomial(pairs)
