"""Naive enumeration oracles, deliberately independent of the sieved
counting kernels: plain loops, per-element factorizations, float root
finding.  Used by the unit tests and the acceptance suite."""

from fractions import Fraction as F
from math import gcd, isqrt, prod

from stacky_heights.arith import (
    factor,
    fundamental_discriminant,
    power_free_part,
    squarefree_part,
)


def naive_bmun(n, B):
    X = int(F(B) ** n)
    c = sum(1 for N in range(1, X + 1) if all(e < n for _, e in factor(N).factors))
    return 2 * c if n % 2 == 0 else c


def naive_quadratic_fields(X):
    cnt = 0
    for d in range(-X, X + 1):
        if d in (0, 1) or any(e > 1 for _, e in factor(d).factors if d):
            continue
        if abs(fundamental_discriminant(d)) <= X:
            cnt += 1
    return cnt


def naive_football222(B):
    T = F(B) ** 2
    cnt = 0
    M = int(T) + 2
    for a in range(1, M):
        for b in range(1, M):
            if gcd(a, b) != 1:
                continue
            v = (
                power_free_part(a, 2)
                * power_free_part(b, 2)
                * power_free_part(a + b, 2)
                * max(a, b)
            )
            if v < T:
                cnt += 1
    return cnt


def naive_f222_rows(T):
    """The f222 kernel's row table as (a, t, s t, ymax) tuples, by plain loops.

    s, t run over coprime squarefree pairs with s^2 t <= T and s t^2 <= T,
    then x over 1 <= x with s^2 t x^2 <= T, and a = s x^2.
    """
    rows = []
    for s in range(1, isqrt(T) + 1):
        if squarefree_part(s) != s:
            continue
        t = 1
        while s * s * t <= T and s * t * t <= T:
            if squarefree_part(t) == t and gcd(s, t) == 1:
                ymax = isqrt(T // (s * t * t))
                for x in range(1, isqrt(T // (s * s * t)) + 1):
                    rows.append((s * x * x, t, s * t, ymax))
            t += 1
    return rows


def naive_rooted3(B):
    T = F(B) ** 3
    cnt = 0
    R = 1
    while (R + 1) ** 4 < T:
        R += 1
    for a in range(1, R + 2):
        for b in range(1, R + 2):
            if gcd(a, b) == 1 and power_free_part(a, 3) * max(a, b) ** 4 < T:
                cnt += 1
    return cnt


def _abs_range(lo, hi):
    """The range of |r| for r in [lo, hi]."""
    if lo >= 0:
        return lo, hi
    if hi <= 0:
        return -hi, -lo
    return F(0), max(-lo, hi)


def _mahler_below(a, b, c, X):
    """Exact M(a x^2 + b x + c) < X for a >= 1 and a non-square discriminant.

    M = a * max(1, |r1|) * max(1, |r2|) straight from the roots.  Complex
    roots have |r|^2 = c/a exactly.  Real roots are bracketed through an
    integer square root of disc at resolution 1/K, and K grows until the
    bracket of M clears X; one that never does means M = X.
    """
    disc = b * b - 4 * a * c
    if disc < 0:
        return a * max(1, F(c, a)) < X
    K = 1 << 64
    while K <= 1 << 1024:
        s_lo = F(isqrt(disc * K * K), K)
        s_hi = s_lo + F(1, K)
        lo1, hi1 = _abs_range((-b + s_lo) / (2 * a), (-b + s_hi) / (2 * a))
        lo2, hi2 = _abs_range((-b - s_hi) / (2 * a), (-b - s_lo) / (2 * a))
        if a * max(1, hi1) * max(1, hi2) < X:
            return True
        if a * max(1, lo1) * max(1, lo2) >= X:
            return False
        K = K * K
    return False


def naive_quadratic_points(B):
    X = F(B) ** 2
    R = X.numerator // X.denominator + 1  # a, |c| < X and |b| < 2X
    cnt = 0
    for a in range(1, R + 1):
        for b in range(-2 * R, 2 * R + 1):
            for c in range(-R, R + 1):
                disc = b * b - 4 * a * c
                if disc >= 0 and isqrt(disc) ** 2 == disc:
                    continue
                if gcd(gcd(a, b), c) == 1 and _mahler_below(a, b, c, X):
                    cnt += 1
    return 2 * cnt


def naive_v444(cutoff, delta):
    expo = 1 - F(str(delta))
    p, q = expo.numerator, expo.denominator
    phi4 = [0] + [power_free_part(k, 4) for k in range(1, 2 * cutoff + 1)]
    out = []
    for b in range(1, cutoff + 1):
        thr = b ** float(expo)
        for a in range(1, b + 1):
            if gcd(a, b) != 1:
                continue
            v = phi4[a] * phi4[b] * phi4[a + b]
            if v > thr * 1.001:  # cheap float reject; exact test near the line
                continue
            if v**q < b**p:
                out.append((a, b))
    return sorted(out)


def naive_ap5(cutoff, delta):
    expo = 1 - F(str(delta))
    p, q = expo.numerator, expo.denominator
    fac = [()] + [factor(k).factors for k in range(1, cutoff + 1)]
    out = []
    for step in range(1, (cutoff - 1) // 4 + 1):
        for a1 in range(1, cutoff - 4 * step + 1):
            terms = tuple(a1 + k * step for k in range(5))
            odd = set()
            for t in terms:
                for prime, e in fac[t]:
                    if e % 2:
                        odd ^= {prime}
            if prod(odd) ** q < terms[-1] ** p:
                out.append(terms)
    return sorted(out)
