"""Exact height values over Q and the section-based height engine.

An ExactHeight is a finite formal sum of rational multiples of log p over
primes p; its real value is sum(c_p * log p).  Storing the coefficients
exactly lets independently derived height formulas be compared with zero
tolerance.  The coefficients share one denominator, bounded in practice by
the stabilizer orders (the root orders of a rooted line, the n of B mu_n
or of a section engine for L^n): a height is stored as a positive int
denominator and a map prime -> nonzero int numerator, in lowest terms.  So
every sum, scaling and evaluation is one lcm, integer arithmetic and one
gcd, and Fractions appear only at the public edges (terms, coefficient,
the validating constructor).  There is no floating point anywhere in this
module except in the convenience method value().

The engine height_from_sections evaluates the height of a point against a
line bundle whose n-th power is generically generated by sections with
known (rational, nonzero) pullback values x_i:

    sum over primes p of ceil(-min_i ord_p(x_i) / n) * log p
    +  (1/n) * log max_i |x_i|,

where the archimedean term is read from the valuations of the maximizing
value, so each value is factored once.  The normalization carries no
ceiling at the archimedean place, which makes the closed forms
log max_i |M_i|^{1/a_i} (weighted projective) and log |N|^{1/n} (n-th
power classes) hold exactly rather than up to a bounded function.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .arith import factor

__all__ = ["ExactHeight", "HeightBreakdown", "height_from_sections", "combine"]

Rational = Union[int, Fraction]


def _rational(x) -> Rational:
    """x as an int or a Fraction; only ints and Fractions (numbers.Rational) are exact."""
    if type(x) is int or type(x) is Fraction:
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


def _integer(x) -> int:
    """x as an int; only integers (numbers.Integral) are accepted."""
    if type(x) is int:
        return x
    if isinstance(x, numbers.Integral):
        return int(x)
    raise TypeError(f"expected an int, got {type(x).__name__}")


class ExactHeight:
    """sum_p (num_p / den) log p: a positive int denominator and a map
    prime -> nonzero int numerator with gcd(den, *nums) = 1, so equal
    heights have equal (den, nums) pairs."""

    __slots__ = ("_den", "_nums")

    def __init__(self, terms: Mapping[int, Rational] | None = None):
        fracs = {int(p): _rational(c) for p, c in terms.items()} if terms else {}
        # the lcm of reduced denominators leaves the numerators coprime to it
        den = math.lcm(*(c.denominator for c in fracs.values()))
        self._den = den
        self._nums = {p: c.numerator * (den // c.denominator) for p, c in fracs.items() if c}

    @staticmethod
    def over(den: int, nums: Mapping[int, int]) -> "ExactHeight":
        """sum_p (nums[p] / den) log p from an int den >= 1 and int numerators;
        zero numerators are dropped and a common factor is cancelled."""
        den = _integer(den)
        if den < 1:
            raise ValueError(f"denominator must be >= 1, got {den}")
        return _canonical(den, {int(p): _integer(c) for p, c in nums.items()})

    @classmethod
    def _of(cls, den: int, nums: dict[int, int]) -> "ExactHeight":
        """Wrap a lowest-terms pair with nonzero int numerators, uncopied."""
        h = cls.__new__(cls)
        h._den = den
        h._nums = nums
        return h

    @staticmethod
    def zero() -> "ExactHeight":
        return ExactHeight._of(1, {})

    @staticmethod
    def log_abs(x: Rational, scale: Rational = 1) -> "ExactHeight":
        """scale * log|x| expanded through the factorization of x (x != 0)."""
        x = _rational(x)
        if x == 0:
            raise ValueError("log_abs of 0")
        scale = _rational(scale)
        if scale == 0:
            return ExactHeight.zero()
        s = scale.numerator
        return _canonical(scale.denominator, {p: s * e for p, e in _ord_map(x).items()})

    @property
    def terms(self) -> dict[int, Fraction]:
        return {p: Fraction(c, self._den) for p, c in self._nums.items()}

    def coefficient(self, p: int) -> Fraction:
        return Fraction(self._nums.get(p, 0), self._den)

    def value(self) -> float:
        den = self._den
        return sum(c / den * math.log(p) for p, c in self._nums.items())

    def is_zero(self) -> bool:
        return not self._nums

    def __add__(self, other: "ExactHeight") -> "ExactHeight":
        return _sum((self, other))

    def __sub__(self, other: "ExactHeight") -> "ExactHeight":
        return self + (-other)

    def __neg__(self) -> "ExactHeight":
        return ExactHeight._of(self._den, {p: -c for p, c in self._nums.items()})

    def __mul__(self, r: Rational) -> "ExactHeight":
        r = _rational(r)
        if not r:
            return ExactHeight.zero()
        s = r.numerator
        return _canonical(self._den * r.denominator, {p: c * s for p, c in self._nums.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactHeight):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._den, frozenset(self._nums.items())))

    def __repr__(self):
        inner = ", ".join(f"{p}: {c}" for p, c in sorted(self.terms.items()))
        return f"ExactHeight({{{inner}}})"

    def to_json(self) -> dict:
        return {
            "terms": [
                [p, c.numerator, c.denominator]
                for p, c in sorted(self.terms.items())
            ],
            "value": self.value(),
        }

    @staticmethod
    def from_json(obj: dict) -> "ExactHeight":
        return ExactHeight(
            {int(p): Fraction(int(n), int(d)) for p, n, d in obj["terms"]}
        )


def _canonical(den: int, nums: dict[int, int]) -> ExactHeight:
    """The height sum_p (nums[p] / den) log p in lowest terms: zero
    numerators dropped, then one gcd; nums is reused when nothing changes."""
    if not all(nums.values()):
        nums = {p: c for p, c in nums.items() if c}
    if den > 1 and (g := math.gcd(den, *nums.values())) > 1:
        den //= g
        nums = {p: c // g for p, c in nums.items()}
    return ExactHeight._of(den, nums)


def _sum(heights: tuple[ExactHeight, ...]) -> ExactHeight:
    """Sum over the lcm of the denominators: a prime keeps the place where
    it is first seen, and the sum is reduced once."""
    den = math.lcm(*(h._den for h in heights))
    out: dict[int, int] = {}
    for h in heights:
        k = den // h._den
        for p, c in h._nums.items():
            c *= k
            out[p] = out[p] + c if p in out else c
    return _canonical(den, out)


@dataclass(frozen=True)
class HeightBreakdown:
    """Stable height plus per-prime local discrepancies; total is their sum.

    Built by combine, which computes the total; every field is required.
    discrepancies is a read-only copy of the mapping given, so a breakdown
    is immutable and hashable.
    """

    stable: ExactHeight
    discrepancies: Mapping[int, ExactHeight]
    total: ExactHeight

    def __post_init__(self):
        object.__setattr__(self, "discrepancies", MappingProxyType(dict(self.discrepancies)))

    def __hash__(self):
        return hash((self.stable, frozenset(self.discrepancies.items()), self.total))

    def to_json(self) -> dict:
        return {
            "stable": self.stable.to_json(),
            "discrepancies": [
                [p, h.to_json()] for p, h in sorted(self.discrepancies.items())
            ],
            "total": self.total.to_json(),
        }

    @staticmethod
    def from_json(obj: dict) -> "HeightBreakdown":
        """Rebuild through combine; ValueError if the stored total is not
        the sum of the stored parts."""
        hb = combine(
            ExactHeight.from_json(obj["stable"]),
            {int(p): ExactHeight.from_json(h) for p, h in obj["discrepancies"]},
        )
        if hb.total != ExactHeight.from_json(obj["total"]):
            raise ValueError("stored total is not stable + sum of discrepancies")
        return hb


def combine(
    stable: ExactHeight, discrepancies: Mapping[int, ExactHeight]
) -> HeightBreakdown:
    """Assemble a breakdown; total = stable + sum of discrepancies, exactly.

    Local discrepancies are nonnegative by construction everywhere they
    arise; a negative coefficient here indicates a caller bug.
    """
    clean = {int(p): d for p, d in discrepancies.items() if not d.is_zero()}
    for p, d in clean.items():
        if any(c < 0 for c in d._nums.values()):  # the denominator is positive
            raise ValueError(f"negative discrepancy coefficient at prime {p}")
    total = _sum((stable, *clean.values()))
    return HeightBreakdown(stable=stable, discrepancies=clean, total=total)


def _ord_map(x: Rational) -> dict[int, int]:
    """p -> ord_p(x) for a nonzero rational; an integer x is factored once."""
    ords = dict(factor(x.numerator).factors)
    if x.denominator != 1:
        for p, e in factor(x.denominator).factors:
            ords[p] = ords.get(p, 0) - e
    return ords


def _section_height(n: int, ord_maps: list[Mapping[int, int]], top: int) -> ExactHeight:
    """sum_p (ceil(-min_i o_i(p)) + o_top(p)) log p with o_i(p) = ord_maps[i][p] / n:
    ord_maps[i] maps p to ord_p of the i-th section value, and ord_maps[top]
    is that of a largest |x_top|, which gives the term (1/n) log |x_top|."""
    nums: dict[int, int] = {}
    for p in set().union(*ord_maps):
        m = min(om.get(p, 0) for om in ord_maps)
        nums[p] = ord_maps[top].get(p, 0) - n * (m // n)  # n ceil(-m/n) = -n (m//n)
    return _canonical(n, nums)


def height_from_sections(n: int, values: Iterable[Rational]) -> ExactHeight:
    """Height of a point from pullbacks of generating sections of L^n.

    values are the nonzero rational section values under one fixed
    trivialization; the result is invariant under multiplying all of them
    by lambda^n for any rational lambda != 0.  Each value is factored once.
    """
    vals = [_rational(v) for v in values]
    if n < 1:
        raise ValueError("n must be a positive integer")
    if not vals:
        raise ValueError("need at least one section value")
    if any(v == 0 for v in vals):
        raise ValueError("section values must be nonzero")
    top = max(range(len(vals)), key=lambda i: abs(vals[i]))
    return _section_height(n, [_ord_map(v) for v in vals], top)
