"""Exact height values over Q and the section-based height engine.

An ExactHeight is a finite formal sum of rational multiples of log p over
primes p; its real value is sum(c_p * log p).  Storing the coefficients
exactly lets independently derived height formulas be compared with zero
tolerance.  There is no floating point anywhere in this module except in
the convenience method value().

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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .arith import factor

__all__ = ["ExactHeight", "HeightBreakdown", "height_from_sections", "combine"]

Rational = Union[int, Fraction]


def _rational(x) -> Fraction:
    """x as a Fraction; only ints and Fractions (numbers.Rational) are exact."""
    if isinstance(x, numbers.Rational):
        return Fraction(x)
    raise TypeError(f"expected an int or a Fraction, got {type(x).__name__}")


def _merged(*maps: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """Sum of term maps: a first-seen coefficient is kept as is, zero sums dropped."""
    out: dict[int, Fraction] = {}
    for terms in maps:
        for p, c in terms.items():
            out[p] = out[p] + c if p in out else c
    return {p: c for p, c in out.items() if c}


class ExactHeight:
    """Finite map prime -> nonzero Fraction coefficient; value = sum c_p * log p."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, Rational] | None = None):
        clean: dict[int, Fraction] = {}
        if terms:
            for p, c in terms.items():
                c = c if type(c) is Fraction else _rational(c)
                if c:
                    clean[int(p)] = c
        self._terms = clean

    @classmethod
    def _of(cls, terms: dict[int, Fraction]) -> "ExactHeight":
        """Wrap terms whose values are already nonzero Fractions, uncopied."""
        h = cls.__new__(cls)
        h._terms = terms
        return h

    @staticmethod
    def zero() -> "ExactHeight":
        return ExactHeight()

    @staticmethod
    def log_abs(x: Rational, scale: Rational = 1) -> "ExactHeight":
        """scale * log|x| expanded through the factorization of x (x != 0)."""
        x = _rational(x)
        if x == 0:
            raise ValueError("log_abs of 0")
        scale = _rational(scale)
        if scale == 0:
            return ExactHeight()
        return ExactHeight._of({p: scale * e for p, e in _ord_map(x).items()})

    @property
    def terms(self) -> dict[int, Fraction]:
        return dict(self._terms)

    def coefficient(self, p: int) -> Fraction:
        return self._terms.get(p, Fraction(0))

    def value(self) -> float:
        return sum(float(c) * math.log(p) for p, c in self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "ExactHeight") -> "ExactHeight":
        return ExactHeight._of(_merged(self._terms, other._terms))

    def __sub__(self, other: "ExactHeight") -> "ExactHeight":
        return self + (-other)

    def __neg__(self) -> "ExactHeight":
        return ExactHeight._of({p: -c for p, c in self._terms.items()})

    def __mul__(self, r: Rational) -> "ExactHeight":
        r = _rational(r)
        return ExactHeight._of({p: c * r for p, c in self._terms.items()} if r else {})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactHeight):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        inner = ", ".join(f"{p}: {c}" for p, c in sorted(self._terms.items()))
        return f"ExactHeight({{{inner}}})"

    def to_json(self) -> dict:
        return {
            "terms": [
                [p, c.numerator, c.denominator]
                for p, c in sorted(self._terms.items())
            ],
            "value": self.value(),
        }

    @staticmethod
    def from_json(obj: dict) -> "ExactHeight":
        return ExactHeight(
            {int(p): Fraction(int(n), int(d)) for p, n, d in obj["terms"]}
        )


@dataclass(frozen=True)
class HeightBreakdown:
    """Stable height plus per-prime local discrepancies; total is their sum."""

    stable: ExactHeight
    discrepancies: dict[int, ExactHeight] = field(default_factory=dict)
    total: ExactHeight = field(default_factory=ExactHeight)

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
        return HeightBreakdown(
            stable=ExactHeight.from_json(obj["stable"]),
            discrepancies={
                int(p): ExactHeight.from_json(h) for p, h in obj["discrepancies"]
            },
            total=ExactHeight.from_json(obj["total"]),
        )


def combine(
    stable: ExactHeight, discrepancies: Mapping[int, ExactHeight]
) -> HeightBreakdown:
    """Assemble a breakdown; total = stable + sum of discrepancies, exactly.

    Local discrepancies are nonnegative by construction everywhere they
    arise; a negative coefficient here indicates a caller bug.
    """
    clean = {int(p): d for p, d in discrepancies.items() if not d.is_zero()}
    for p, d in clean.items():
        if any(c < 0 for c in d._terms.values()):
            raise ValueError(f"negative discrepancy coefficient at prime {p}")
    total = ExactHeight._of(_merged(stable._terms, *(d._terms for d in clean.values())))
    return HeightBreakdown(stable=stable, discrepancies=clean, total=total)


def _ord_map(x: Fraction) -> dict[int, int]:
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
    terms: dict[int, Fraction] = {}
    for p in set().union(*ord_maps):
        m = min(om.get(p, 0) for om in ord_maps)
        terms[p] = Fraction(ord_maps[top].get(p, 0) - n * (m // n), n)  # ceil(-m/n) = -(m//n)
    return ExactHeight._of({p: c for p, c in terms.items() if c})


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
