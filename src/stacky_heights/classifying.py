"""Heights of n-th power classes of Q* and Malle exponents of permutation groups.

A rational point of the classifying stack of mu_n over Q is a class in
Q*/(Q*)^n, represented by its unique n-power-free integer representative
(positive when n is odd; retaining sign when n is even, since -1 is not an
n-th power).  Heights of such classes against powers of the standard
character are computed through the section engine and recover
log |N|^{1/n} on representatives.

The degree-2 permutation height of a quadratic class is half the log of
the field discriminant, computable exactly from the fundamental
discriminant.  Malle exponents are 1 over the minimal index of a
non-identity element of a permutation group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .adelic import ExactHeight, _section_height
from .arith import factor, fundamental_discriminant, power_free_part, power_free_reduce

__all__ = [
    "PowerClass",
    "class_of",
    "bmun_height",
    "bmu3_vector_height",
    "quadratic_height",
    "PermGroup",
    "index",
    "malle_exponent",
]

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class PowerClass:
    """A class of Q*/(Q*)^n by its n-power-free integer representative."""

    n: int
    rep: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if self.rep == 0:
            raise ValueError("representative must be nonzero")
        if self.n % 2 == 1 and self.rep < 0:
            raise ValueError("odd-n classes have positive representatives")
        if any(e >= self.n for _, e in factor(self.rep).factors):
            raise ValueError("representative must be n-power-free")


def class_of(x: Rational, n: int) -> PowerClass:
    """The class of a nonzero rational modulo (Q*)^n."""
    if n < 2:
        raise ValueError("n must be >= 2")
    x = Fraction(x)
    if x == 0:
        raise ValueError("0 has no power class")
    rep = abs(power_free_reduce(x.numerator, n)[0]) * power_free_part(x.denominator, n)
    if n % 2 == 0 and x < 0:
        rep = -rep
    return PowerClass(n, rep)


def bmun_height(c: PowerClass, j: int) -> ExactHeight:
    """Height of the class against the j-th power of the standard character.

    Equals height_from_sections(n, [rep^j]), with the valuations j * ord_p(rep)
    read from one factorization of rep, so rep^j is never built; for j = 1
    this is (1/n) log |rep|.
    """
    if not 1 <= j <= c.n - 1:
        raise ValueError("j must satisfy 1 <= j <= n-1")
    return _section_height(c.n, [{p: j * e for p, e in factor(c.rep).factors}], 0)


def bmu3_vector_height(c: PowerClass) -> ExactHeight:
    """Height against the rank-3 sum of both nontrivial cube characters.

    For |rep| = N * M^2 with N, M coprime squarefree this is exactly
    log N + log M, which is half the log discriminant of the pure cubic
    field of rep away from the prime 3.  rep is factored once for both j.
    """
    if c.n != 3:
        raise ValueError("requires a cube class (n = 3)")
    fs = factor(c.rep).factors
    h1, h2 = (_section_height(3, [{p: j * e for p, e in fs}], 0) for j in (1, 2))
    return h1 + h2


def quadratic_height(d: int) -> ExactHeight:
    """(1/2) log |disc| of the quadratic field Q(sqrt(d)), d squarefree."""
    disc = fundamental_discriminant(d)  # d or 4d: factor d once, not 4d again
    return (ExactHeight.log_abs(d) + ExactHeight.log_abs(disc // d)) * Fraction(1, 2)


Perm = tuple[int, ...]


def _validate_perm(pi: Sequence[int]) -> Perm:
    pi = tuple(pi)
    if sorted(pi) != list(range(len(pi))):
        raise ValueError(f"not a permutation of 0..{len(pi) - 1}: {pi}")
    return pi


def index(pi: Sequence[int]) -> int:
    """Degree minus number of orbits (fixed points count as orbits)."""
    pi = _validate_perm(pi)
    n = len(pi)
    seen = [False] * n
    orbits = 0
    for i in range(n):
        if not seen[i]:
            orbits += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = pi[j]
    return n - orbits


def _compose(a: Perm, b: Perm) -> Perm:
    return tuple(a[b[i]] for i in range(len(a)))


def _closure(degree: int, gens: Sequence[Perm], within: set[Perm] | None = None) -> set[Perm]:
    """The group generated by gens, in |G| * len(gens) compositions: the
    closure of {identity} under right multiplication by the generators
    (every inverse is a positive power).  Raises ValueError on a product
    outside `within`, or, without `within`, past PermGroup.MAX_ORDER."""
    queue = [tuple(range(degree))]
    elems = set(queue)
    for x in queue:  # the queue grows while it is walked
        for g in gens:
            y = _compose(x, g)
            if y in elems:
                continue
            if within is None and len(elems) == PermGroup.MAX_ORDER:
                raise ValueError("group order exceeds cap")
            if within is not None and y not in within:
                raise ValueError("element set is not closed under composition")
            elems.add(y)
            queue.append(y)
    return elems


class PermGroup:
    """A permutation group on {0..degree-1}, closed and containing identity."""

    MAX_ORDER = 10_000

    def __init__(self, degree: int, elements: Iterable[Sequence[int]]):
        self.degree = int(degree)
        elems = {_validate_perm(pi) for pi in elements}
        if any(len(pi) != self.degree for pi in elems):
            raise ValueError("element degree mismatch")
        if tuple(range(self.degree)) not in elems:
            raise ValueError("group must contain the identity")
        self.elements = sorted(elems)
        # Closed iff generated by a subset that spans it; greedily, each new
        # generator at least doubles the span, so there are <= log2 |G|.
        gens: list[Perm] = []
        span = {self.elements[0]}  # the identity
        for pi in self.elements:
            if pi not in span:
                gens.append(pi)
                span = _closure(self.degree, gens, within=elems)

    @classmethod
    def from_generators(cls, degree: int, gens: Iterable[Sequence[int]]) -> "PermGroup":
        """Close a generator list under composition (order capped at 10^4)."""
        gens = [_validate_perm(g) for g in gens]
        if any(len(g) != degree for g in gens):
            raise ValueError("element degree mismatch")
        return cls(degree, _closure(degree, gens))

    @classmethod
    def symmetric(cls, degree: int) -> "PermGroup":
        return cls(degree, itertools.permutations(range(degree)))

    @classmethod
    def cyclic(cls, degree: int) -> "PermGroup":
        shift = tuple((i + 1) % degree for i in range(degree))
        return cls.from_generators(degree, [shift])

    def __len__(self):
        return len(self.elements)


def malle_exponent(G: PermGroup) -> Fraction:
    """Predicted count exponent: 1 / min index over non-identity elements."""
    ident = tuple(range(G.degree))
    indices = [index(pi) for pi in G.elements if pi != ident]
    if not indices:
        raise ValueError("group is trivial")
    return Fraction(1, min(indices))
