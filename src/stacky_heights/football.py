"""Heights on rooted projective lines over Q (footballs and generalizations).

A rooted line is P^1 with a finite set of rational points (zero loci of
primitive integer linear forms u*X + v*Y, pairwise non-proportional) given
stacky orders m_i >= 2.  A divisor d*[generic] + sum n_i/m_i [root_i] has
its height at a generic rational point (a : b), gcd(a, b) = 1, computed as

    stable part   deg(D) * log max(|a|, |b|)
    discrepancy   sum over roots i and primes p of
                  fracplus(k * n_i / m_i) * log p,   k = ord_p L_i(a, b),

with fracplus(q) = ceil(q) - q in [0, 1), and fracplus(x/m) = ((-x) mod m)/m
for integers x, m as ceil(x/m) m - x = (-x) mod m.  Points supported at a
root are classes of Q*/(Q*)^{m_i} and are delegated to the classifying heights.

The expected deformation dimension (edd) is the reduced discriminant minus
the height against the dual of the tangent divisor; on inputs where no
prime divides two distinct root values it coincides exactly with the
tangential height.  The reduced discriminant counts each prime once, even
when several roots are simultaneously stacky over it, so inputs with such
shared primes can be detected with colliding_primes before relying on the
identity.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .adelic import ExactHeight, HeightBreakdown, combine
from .arith import FactoredInt, factor, power_free_exponents
from .classifying import PowerClass, bmun_height

__all__ = [
    "RootedLine",
    "StackDivisor",
    "StackyPointError",
    "generic_height",
    "type1_height",
    "northcott",
    "tangent_divisor",
    "tangential_height",
    "rdisc",
    "edd",
    "colliding_primes",
]


class StackyPointError(ValueError):
    """Raised when a generic-point operation receives a stacky point."""


@dataclass(frozen=True)
class RootedLine:
    """Roots as ((u, v), order) pairs: the form u*X + v*Y with order m >= 2.

    orders and their lcm L, the common denominator of every height on the
    line, are computed once, at construction.
    """

    roots: tuple[tuple[tuple[int, int], int], ...]
    orders: tuple[int, ...] = field(init=False, repr=False, compare=False)
    lcm: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for (u, v), m in self.roots:
            if (u, v) == (0, 0):
                raise ValueError("zero form")
            if math.gcd(u, v) != 1:
                raise ValueError(f"form {(u, v)} is not primitive")
            if m < 2:
                raise ValueError("root orders must be >= 2")
        for i, ((u1, v1), _) in enumerate(self.roots):
            for (u2, v2), _ in self.roots[i + 1 :]:
                if u1 * v2 - u2 * v1 == 0:
                    raise ValueError("root forms must be pairwise non-proportional")
        orders = tuple(m for _, m in self.roots)
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "lcm", math.lcm(*orders))

    def values_at(self, point: tuple[int, int]) -> list[int]:
        a, b = point
        return [u * a + v * b for (u, v), _ in self.roots]


def football(a: int, b: int) -> RootedLine:
    """P^1 rooted at 0 (order a) and infinity (order b)."""
    return RootedLine((((1, 0), a), ((0, 1), b)))


@dataclass(frozen=True)
class StackDivisor:
    """d * [generic point] + sum_i (n_i / m_i) * [root_i]."""

    generic: int
    stacky: tuple[int, ...] = ()

    def degree(self, line: RootedLine) -> Fraction:
        return Fraction(self._degree_numerator(line), line.lcm)

    def _degree_numerator(self, line: RootedLine) -> int:
        """deg(D) * L, with L = line.lcm."""
        if len(self.stacky) != len(line.roots):
            raise ValueError("stacky coefficients misaligned with roots")
        L = line.lcm
        return self.generic * L + sum(n * (L // m) for n, m in zip(self.stacky, line.orders))

    def __neg__(self) -> "StackDivisor":
        return StackDivisor(-self.generic, tuple(-n for n in self.stacky))


def _generic_point(
    line: RootedLine, point: Sequence[int]
) -> tuple[int, list[int], list[FactoredInt]]:
    """max(|a|, |b|) for the point as a coprime pair (a, b), the root values
    there and their factorizations; StackyPointError at a root (such
    points are classes: type1_height)."""
    a, b = int(point[0]), int(point[1])
    if a == 0 and b == 0:
        raise ValueError("(0, 0) is not a point of P^1")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    values = line.values_at((a, b))
    if 0 in values:
        raise StackyPointError(
            f"point ({a}:{b}) is supported at root {values.index(0)}; use type1_height"
        )
    return max(abs(a), abs(b)), values, [factor(v) for v in values]


def _stable_numerators(
    deg: int, top: int, values: list[int], facs: list[FactoredInt]
) -> dict[int, int]:
    """p -> deg * ord_p(top), the numerators of deg * log top over L; the
    factorization of top is that of a root value of the same size when
    there is one, as always on a football (roots at 0 and infinity)."""
    if not deg:
        return {}
    top_factors = next((f for v, f in zip(values, facs) if abs(v) == top), None) or factor(top)
    return {p: deg * e for p, e in top_factors.factors}


def generic_height(
    line: RootedLine, divisor: StackDivisor, point: Sequence[int]
) -> HeightBreakdown:
    """Height breakdown at a generic point (a : b) avoiding all roots.

    Every coefficient is built as an int numerator over L = line.lcm.
    """
    top, values, facs = _generic_point(line, point)
    L, deg = line.lcm, divisor._degree_numerator(line)
    stable = ExactHeight.over(L, _stable_numerators(deg, top, values, facs))
    disc = _discrepancy_numerators(line, divisor, facs)
    return combine(stable, {p: ExactHeight.over(L, {p: c}) for p, c in disc.items()})


def _discrepancy_numerators(
    line: RootedLine, divisor: StackDivisor, facs: list[FactoredInt]
) -> dict[int, int]:
    """p -> L * sum_i fracplus(ord_p(L_i) n_i / m_i), the discrepancy
    numerators over L = line.lcm; each is positive."""
    L = line.lcm
    disc: dict[int, int] = {}
    for f, n, m in zip(facs, divisor.stacky, line.orders):
        for p, k in f.factors:
            if r := -k * n % m:  # fracplus(k n / m) = r / m = r (L / m) / L
                c = r * (L // m)
                disc[p] = disc[p] + c if p in disc else c
    return disc


def type1_height(
    line: RootedLine, i: int, c: PowerClass, divisor: StackDivisor
) -> ExactHeight:
    """Height of a point supported at root i, as a class of Q*/(Q*)^{m_i}.

    Only the coefficient of root i matters; it acts through its residue
    modulo the root order, and a multiple of the order gives height 0 (the
    Northcott failure mode for non-coprime divisor coefficients).
    """
    if not 0 <= i < len(line.roots):
        raise ValueError("root index out of range")
    m = line.orders[i]
    if c.n != m:
        raise ValueError(f"class modulus {c.n} does not match root order {m}")
    if len(divisor.stacky) != len(line.roots):
        raise ValueError("stacky coefficients misaligned with roots")
    j = divisor.stacky[i] % m
    if j == 0:
        return ExactHeight.zero()
    return bmun_height(c, j)


def northcott(a: int, b: int, divisor: StackDivisor) -> bool:
    """Whether d[P] + n[0] + m[inf] on the (a, b)-football is Northcott.

    Requires gcd(a, b) = 1; holds iff the degree is positive and each
    stacky coefficient is coprime to its root order.
    """
    if math.gcd(a, b) != 1:
        raise ValueError("root orders a, b must be coprime")
    line = football(a, b)
    if len(divisor.stacky) != 2:
        raise ValueError("divisor must carry coefficients for both roots")
    n, m = divisor.stacky
    return (
        divisor.degree(line) > 0
        and math.gcd(n, a) == 1
        and math.gcd(m, b) == 1
    )


def tangent_divisor(line: RootedLine) -> StackDivisor:
    """2[P] - sum_i ((m_i - 1)/m_i) [root_i]; degree 2 - r + sum 1/m_i."""
    return StackDivisor(2, tuple(-(m - 1) for m in line.orders))


def tangential_height(line: RootedLine, point: Sequence[int]) -> ExactHeight:
    """Closed form for the height against the tangent divisor:

    sum_i (1/m_i) log PFP_{m_i}(L_i(a, b)) + deg(T) * log max(|a|, |b|),

    with PFP_m the m-power-free complement.  Exactly equal to
    generic_height(line, tangent_divisor(line), point).total.  PFP_m(v) is
    read off the factorization of v as exponents, never built and refactored,
    and every coefficient is an int numerator over L = line.lcm.
    """
    top, values, facs = _generic_point(line, point)
    L, deg = line.lcm, tangent_divisor(line)._degree_numerator(line)
    nums = _stable_numerators(deg, top, values, facs)
    for f, m in zip(facs, line.orders):
        for p, r in power_free_exponents(f, m):
            c = r * (L // m)
            nums[p] = nums[p] + c if p in nums else c
    return ExactHeight.over(L, nums)


def rdisc(line: RootedLine, point: Sequence[int]) -> ExactHeight:
    """Reduced discriminant: sum of log p over stacky primes of the point.

    A prime is stacky when some root value has positive p-adic valuation
    not divisible by the root order; each such prime is counted once even
    if several roots are stacky over it.
    """
    _, _, facs = _generic_point(line, point)
    stacky = (p for f, m in zip(facs, line.orders) for p, k in f.factors if k % m)
    return ExactHeight.over(1, dict.fromkeys(stacky, 1))


def edd(line: RootedLine, point: Sequence[int]) -> ExactHeight:
    """Expected deformation dimension: rdisc minus the dual-tangent height.

    -h(-T) is one numerator map over L = line.lcm, with no breakdown: the
    stable numerators of deg(T) less the discrepancy numerators of -T.
    rdisc factors each root value a second time; letting it reuse these
    factorizations waits on ROADMAP item 1 (the benchmark tracer requires
    rdisc's own span on its heights workload).
    """
    top, values, facs = _generic_point(line, point)
    tangent = tangent_divisor(line)
    nums = _stable_numerators(tangent._degree_numerator(line), top, values, facs)
    for p, c in _discrepancy_numerators(line, -tangent, facs).items():
        nums[p] = nums[p] - c if p in nums else -c
    return ExactHeight.over(line.lcm, nums) + rdisc(line, point)


def colliding_primes(line: RootedLine, point: Sequence[int]) -> set[int]:
    """Primes dividing two distinct root values at the point.

    On inputs where this is nonempty, edd and tangential_height may differ
    (the reduced discriminant counts each prime once).  Raises
    StackyPointError at a root, as the heights do.
    """
    _, _, facs = _generic_point(line, point)
    seen = Counter(p for f in facs for p, _ in f.factors)
    return {p for p, k in seen.items() if k > 1}
