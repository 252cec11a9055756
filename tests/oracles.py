"""Naive enumeration oracles, deliberately independent of the sieved
counting kernels: plain loops, per-element factorizations, float root
finding.  Used by the unit tests and the acceptance suite."""

import cmath
from fractions import Fraction as F
from math import gcd, isqrt, prod

from stacky_heights.arith import factor, fundamental_discriminant, power_free_part


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


def naive_quadratic_points(B):
    T2 = B * B
    cnt = 0
    for a in range(1, T2):
        for b in range(-2 * T2, 2 * T2 + 1):
            for c in range(-T2 + 1, T2):
                disc = b * b - 4 * a * c
                if disc >= 0 and isqrt(disc) ** 2 == disc:
                    continue
                if gcd(gcd(a, b), c) != 1:
                    continue
                s = cmath.sqrt(complex(disc))
                m = a * max(1, abs((-b + s) / (2 * a))) * max(1, abs((-b - s) / (2 * a)))
                if abs(m - T2) < 1e-7:
                    continue  # integer boundary measure: strict bound excludes
                if m < T2:
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
