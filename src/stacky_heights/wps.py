"""Heights on weighted projective stacks P(a_0, ..., a_k) over Q.

A rational point is an integer tuple (M_0 : ... : M_k) up to the scaling
(M_i) -> (lambda^{a_i} M_i).  Heights against O(1) and its twists come from
the section engine, which that scaling does not move, so any representative
will do; minimal_form (no p^{a_i} dividing every M_i) gives the canonical
one, for callers that need it, where h_O(1) = log max_i |M_i|^{1/a_i}.

Moduli interpretations: Weierstrass coefficients (A, B) of an elliptic
curve live in P(4, 6); odd hyperelliptic models with a marked point at
infinity live in P(4, 6, ..., 4g+2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .adelic import ExactHeight, _section_height
from .arith import factor, ord_p

__all__ = [
    "WeightedPoint",
    "minimal_form",
    "height_O1",
    "height_Oj",
    "elliptic_naive_height",
    "hyperelliptic_height",
]


@dataclass(frozen=True)
class WeightedPoint:
    """Integer coordinates with weights; not necessarily minimal."""

    weights: tuple[int, ...]
    coords: tuple[int, ...]

    def __post_init__(self):
        _check_point(self.weights, self.coords)

    def is_minimal(self) -> bool:
        return _descent(self.weights, self.coords) == 1


def _check_point(weights: tuple[int, ...], coords: tuple[int, ...]) -> None:
    if len(weights) != len(coords):
        raise ValueError("weights and coords must have equal length")
    if not weights:
        raise ValueError("need at least one coordinate")
    if any(a < 1 for a in weights):
        raise ValueError("weights must be >= 1")
    if all(m == 0 for m in coords):
        raise ValueError("coordinates must not all be zero")


def _descent(weights: tuple[int, ...], coords: tuple[int, ...]) -> int:
    """The largest lambda >= 1 with lambda^{a_i} | M_i for every i."""
    g = math.gcd(*coords)
    if g == 1:
        return 1
    nz = [(m, a) for m, a in zip(coords, weights) if m != 0]
    return math.prod(p ** min(ord_p(m, p) // a for m, a in nz) for p, _ in factor(g).factors)


def minimal_form(weights, coords) -> WeightedPoint:
    """Canonical minimal representative under positive rational scaling.

    Only positive lambda are used, so signs are preserved coordinate-wise;
    when every weight is odd the overall sign is additionally normalized by
    making the first nonzero coordinate positive (lambda = -1 flips all
    coordinates in that case).  Points that differ by lambda = -1 with some
    even weight are distinct representatives and must be deduplicated
    explicitly when enumerating.
    """
    weights = tuple(int(a) for a in weights)
    coords = tuple(int(m) for m in coords)
    _check_point(weights, coords)
    lam = _descent(weights, coords)
    if lam > 1:
        coords = tuple(m // lam**a for m, a in zip(coords, weights))
    if all(a % 2 == 1 for a in weights) and next(m for m in coords if m != 0) < 0:
        coords = tuple(-m for m in coords)
    return WeightedPoint(weights, coords)


def height_O1(pt: WeightedPoint) -> ExactHeight:
    """Height against the tautological bundle O(1)."""
    return height_Oj(pt, 1)


def height_Oj(pt: WeightedPoint, j: int) -> ExactHeight:
    """Height against O(j), computed through the section engine.

    With A = lcm(weights), the monomials M_i^{jA/a_i} are pullbacks of
    generating sections of the A-th power of O(j); mixed monomials never
    change the min valuation or the max absolute value, so the pure powers
    suffice.  One factorization of each nonzero M_i gives their valuations
    (jA/a_i) ord_p(M_i).  lambda scales every section by (lambda^j)^A, which
    the engine ignores, so pt may be any representative.  Heights against
    O(j) are not j times the O(1) height.
    """
    if j < 1:
        raise ValueError("j must be a positive integer")
    A = math.lcm(*pt.weights)
    nz = [(m, a) for m, a in zip(pt.coords, pt.weights) if m != 0]
    ords = [{p: j * A // a * e for p, e in factor(m).factors} for m, a in nz]
    top = max(range(len(nz)), key=lambda i: abs(nz[i][0]) ** (A // nz[i][1]))
    return _section_height(A, ords, top)


def elliptic_naive_height(A: int, B: int) -> ExactHeight:
    """Naive height of y^2 = x^3 + Ax + B as the point (A : B) of P(4, 6)."""
    if 4 * A**3 + 27 * B**2 == 0:
        raise ValueError("singular curve: 4A^3 + 27B^2 = 0")
    return height_O1(WeightedPoint((4, 6), (A, B)))


def hyperelliptic_height(coeffs) -> ExactHeight:
    """Height of y^2 = x^(2g+1) + a_2 x^(2g-1) + ... + a_{2g+1}.

    coeffs lists (a_2, ..., a_{2g+1}); the model is the point with weights
    (4, 6, ..., 4g+2).  No smoothness check is performed.
    """
    coeffs = tuple(int(c) for c in coeffs)
    if len(coeffs) < 2:
        raise ValueError("need at least two coefficients (genus >= 1)")
    return height_O1(WeightedPoint(tuple(range(4, 2 * len(coeffs) + 3, 2)), coeffs))
