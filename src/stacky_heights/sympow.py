"""Heights of degree-2 points on the line, seen as rational points of its
symmetric square.

A quadratic point is either an irreducible primitive integer form
a x^2 + b x + c (a > 0, non-square discriminant), standing for its
conjugate pair of roots, or a split pair of rational points.  The stable
height is the Mahler measure of the form (sum of the two Weil heights in
the split case); the full height adds half the log of the quadratic field
discriminant.  These are floats -- the Mahler measure is transcendental --
with relative accuracy far better than the documented 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .arith import mahler_measure_quadratic, quadratic_field_discriminant

__all__ = [
    "QuadraticPoint",
    "stable_sym_height",
    "sym_height",
    "discrepancy",
    "abs_height",
]


def _primitive_pair(p) -> tuple[int, int]:
    """A point of P^1(Q) as a primitive integer pair (num : den)."""
    if isinstance(p, tuple):
        num, den = int(p[0]), int(p[1])
    else:
        f = Fraction(p)
        num, den = f.numerator, f.denominator
    if num == 0 and den == 0:
        raise ValueError("(0, 0) is not a point of P^1")
    g = math.gcd(num, den)
    return num // g, den // g


@dataclass(frozen=True)
class QuadraticPoint:
    """Either an irreducible quadratic form or a split pair of rational points.

    The field discriminant is computed once, from one factorization of
    b^2 - 4ac, when the point is built.
    """

    form: Optional[tuple[int, int, int]] = None
    points: Optional[tuple[tuple[int, int], tuple[int, int]]] = None
    _field_disc: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if (self.form is None) == (self.points is None):
            raise ValueError("give exactly one of form or points")
        if self.form is not None:
            a, b, c = self.form
            if a <= 0:
                raise ValueError("leading coefficient must be positive")
            if math.gcd(math.gcd(a, b), c) != 1:
                raise ValueError("form must be primitive")
            disc = b * b - 4 * a * c
            if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                raise ValueError("form is reducible over Q (square discriminant)")
            object.__setattr__(self, "_field_disc", quadratic_field_discriminant(disc))
        else:
            object.__setattr__(
                self,
                "points",
                tuple(_primitive_pair(p) for p in self.points),
            )
            object.__setattr__(self, "_field_disc", 1)

    @classmethod
    def irreducible(cls, a: int, b: int, c: int) -> "QuadraticPoint":
        return cls(form=(int(a), int(b), int(c)))

    @classmethod
    def split(cls, p1, p2) -> "QuadraticPoint":
        return cls(points=(p1, p2))

    @property
    def is_split(self) -> bool:
        return self.points is not None

    def field_discriminant(self) -> int:
        """Discriminant of the field generated by a root (1 if split)."""
        return self._field_disc


def _weil_height(pt: tuple[int, int]) -> float:
    num, den = pt
    return math.log(max(abs(num), abs(den)))


def stable_sym_height(q: QuadraticPoint) -> float:
    """log of the Mahler measure; sum of the Weil heights in the split case."""
    if q.is_split:
        return _weil_height(q.points[0]) + _weil_height(q.points[1])
    return math.log(mahler_measure_quadratic(*q.form))


def sym_height(q: QuadraticPoint) -> float:
    """Stable height plus half the log of the field discriminant."""
    return stable_sym_height(q) + discrepancy(q)


def discrepancy(q: QuadraticPoint) -> float:
    """(1/2) log |field discriminant|; zero in the split case."""
    if q.is_split:
        return 0.0
    return 0.5 * math.log(abs(q.field_discriminant()))


def abs_height(q: QuadraticPoint) -> float:
    """Multiplicative absolute Weil height M(f)^(1/2) of either root."""
    if q.is_split:
        raise ValueError("absolute height is defined for irreducible points")
    return math.sqrt(mahler_measure_quadratic(*q.form))
