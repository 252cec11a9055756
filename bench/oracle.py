"""Independent oracle for the benchmark's correctness checks.

Plain loops plus sympy.factorint.  Nothing here imports stacky_heights or
the test oracles (which reuse the kernels' own sieve helpers), so a fault
in a kernel cannot be repeated by the check that is meant to catch it.
The orchestrator that runs these checks never imports the program either.

Height term maps are dicts prime -> Fraction, with zero coefficients
dropped, matching what an ExactHeight of the same value must hold.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from math import gcd

import mpmath
import sympy

_FACTOR_MEMO: dict[int, dict[int, int]] = {}


def factorization(n: int) -> dict[int, int]:
    """Prime -> exponent for |n| (empty for 1), memoised per process."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    f = _FACTOR_MEMO.get(n)
    if f is None:
        f = {int(p): int(e) for p, e in sympy.factorint(n).items()}
        _FACTOR_MEMO[n] = f
    return f


def power_free_part(n: int, m: int) -> int:
    """Smallest k >= 1 with |n| * k a perfect m-th power."""
    out = 1
    for p, e in factorization(n).items():
        out *= p ** ((-e) % m)
    return out


def squarefree_part(n: int) -> int:
    return power_free_part(n, 2)


def pow_lt(value: int, base: int, expo: Fraction) -> bool:
    """value < base ** expo, exactly, for positive integers."""
    return value**expo.denominator < base**expo.numerator


def _add(terms: dict[int, Fraction], n: int, scale: Fraction) -> None:
    for p, e in factorization(n).items():
        terms[p] = terms.get(p, Fraction(0)) + scale * e


def _clean(terms: dict[int, Fraction]) -> dict[int, Fraction]:
    return {p: c for p, c in terms.items() if c != 0}


# ----------------------------------------------------------------------
# heights


def tangential_terms(roots, point) -> dict[int, Fraction]:
    """Tangential height of a coprime point on a rooted line.

    roots are (u, v, m) triples.  Closed form:
    deg(T) log max(|a|, |b|) + sum_i (1/m_i) log PFP_{m_i}(u_i a + v_i b),
    deg(T) = 2 - r + sum 1/m_i, with PFP_m the m-power-free complement.
    """
    a, b = point
    deg = Fraction(2 - len(roots)) + sum((Fraction(1, m) for _, _, m in roots), Fraction(0))
    terms: dict[int, Fraction] = {}
    _add(terms, max(abs(a), abs(b)), deg)
    for u, v, m in roots:
        for p, e in factorization(u * a + v * b).items():
            terms[p] = terms.get(p, Fraction(0)) + Fraction((-e) % m, m)
    return _clean(terms)


def _ord(n: int, p: int) -> int:
    k = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        k += 1
    return k


def wps_terms(weights, coords) -> dict[int, Fraction]:
    """Height against O(1) on P(weights): log max |M_i|^(1/a_i) of the
    minimal representative, which is reduced here from scratch."""
    coords = list(coords)
    nz = [i for i, c in enumerate(coords) if c != 0]
    g = 0
    for i in nz:
        g = gcd(g, coords[i])
    for p in factorization(g) if g > 1 else ():
        k = min(_ord(coords[i], p) // weights[i] for i in nz)
        for i in nz:
            coords[i] //= p ** (weights[i] * k)
    best = nz[0]
    for i in nz[1:]:
        # |M_i|^(1/a_i) > |M_best|^(1/a_best), compared with integer powers
        if abs(coords[i]) ** weights[best] > abs(coords[best]) ** weights[i]:
            best = i
    terms: dict[int, Fraction] = {}
    _add(terms, coords[best], Fraction(1, weights[best]))
    return _clean(terms)


def power_class_terms(x: int, n: int) -> dict[int, Fraction]:
    """(1/n) log |rep| for the n-power-free representative of x."""
    return _clean({p: Fraction(e % n, n) for p, e in factorization(x).items()})


def cube_class_terms(x: int) -> dict[int, Fraction]:
    """log N + log M for the cube-free representative N M^2 of x.

    This is also (1/2) ord_p of the pure cubic field discriminant
    -3^k (N M)^2 at every p != 3; the benchmark compares away from 3.
    """
    return {p: Fraction(1) for p, e in factorization(x).items() if e % 3}


def fundamental_discriminant_of_form(a: int, b: int, c: int) -> int:
    disc = b * b - 4 * a * c
    d = squarefree_part(disc) * (1 if disc > 0 else -1)
    return d if d % 4 == 1 else 4 * d


def mahler_measure(a: int, b: int, c: int) -> float:
    """|a| prod max(1, |root|), roots from the cancellation-free formula."""
    disc = complex(b * b - 4 * a * c)
    s = cmath.sqrt(disc)
    q = -(b + (s if b >= 0 else -s)) / 2
    r1 = q / a
    r2 = c / q
    return abs(a) * max(1.0, abs(r1)) * max(1.0, abs(r2))


def sym2_value(a: int, b: int, c: int) -> float:
    """Stable height log M(f) plus (1/2) log |field discriminant|."""
    fd = fundamental_discriminant_of_form(a, b, c)
    return math.log(mahler_measure(a, b, c)) + 0.5 * math.log(abs(fd))


# ----------------------------------------------------------------------
# counting


def naive_football222(B: Fraction) -> int:
    """Coprime a, b >= 1 with sqf(a) sqf(b) sqf(a+b) max(a, b) < B^2."""
    T = Fraction(B) ** 2
    top = math.floor(T) + 1
    cnt = 0
    for a in range(1, top + 1):
        sa = squarefree_part(a)
        for b in range(1, top + 1):
            if gcd(a, b) == 1 and sa * squarefree_part(b) * squarefree_part(a + b) * max(a, b) < T:
                cnt += 1
    return cnt


def naive_rooted3(B: Fraction) -> int:
    """Coprime a, b >= 1 with PFP_3(a) max(a, b)^4 < B^3."""
    T = Fraction(B) ** 3
    top = 1
    while top**4 < T:
        top += 1
    cnt = 0
    for a in range(1, top + 1):
        fa = power_free_part(a, 3)
        for b in range(1, top + 1):
            if gcd(a, b) == 1 and fa * max(a, b) ** 4 < T:
                cnt += 1
    return cnt


def _measure_below(a: int, b: int, c: int, X: Fraction) -> bool:
    """Mahler measure of a x^2 + b x + c strictly below X.

    Decided in floats away from the boundary.  Within 1e-9 of it the same
    formula is evaluated with 60 significant digits: M is a quadratic
    irrationality of small height, so M != X leaves a gap far above 1e-40.
    """
    m = mahler_measure(a, b, c)
    if abs(m - float(X)) > 1e-9 * max(1.0, float(X)):
        return m < float(X)
    with mpmath.workdps(60):
        s = mpmath.sqrt(mpmath.mpf(b * b - 4 * a * c))
        q = -(b + (s if b >= 0 else -s)) / 2
        exact = abs(a) * max(1, abs(q / a)) * max(1, abs(c / q))
        return exact - mpmath.mpf(X.numerator) / X.denominator < -mpmath.mpf(10) ** -40


def naive_quadratic_points(B: Fraction) -> int:
    """Twice the primitive irreducible a x^2 + b x + c, a >= 1, with
    Mahler measure < B^2 (M >= max(|a|, |c|) and M >= |b| / 2 bound the box)."""
    X = Fraction(B) ** 2
    top = math.floor(X)
    cnt = 0
    for a in range(1, top + 1):
        for b in range(-2 * top - 1, 2 * top + 2):
            for c in range(-top, top + 1):
                if c == 0 or gcd(gcd(a, b), c) != 1:
                    continue
                disc = b * b - 4 * a * c
                if disc >= 0 and math.isqrt(disc) ** 2 == disc:
                    continue
                if _measure_below(a, b, c, X):
                    cnt += 1
    return 2 * cnt


def _field_disc_bounded(d: int, X: int) -> bool:
    return (abs(d) if d % 4 == 1 else 4 * abs(d)) <= X


def naive_quadratic_fields(X: int) -> int:
    """Squarefree d not in {0, 1} whose field discriminant has |.| <= X."""
    cnt = 0
    for d in range(-X, X + 1):
        if d in (0, 1):
            continue
        if all(e == 1 for e in factorization(d).values()) and _field_disc_bounded(d, X):
            cnt += 1
    return cnt


def squarefree_flags(limit: int) -> bytearray:
    """flags[k] = 1 iff k is squarefree, for 0 <= k <= limit (flags[0] = 0)."""
    flags = bytearray([1]) * (limit + 1)
    flags[0] = 0
    p = 2
    while p * p <= limit:
        sq = p * p
        flags[sq::sq] = bytes(len(range(sq, limit + 1, sq)))
        p += 1
    return flags


def quadratic_field_count(X: int) -> int:
    """Same count as naive_quadratic_fields, from one squarefree sieve."""
    if X < 3:
        return 0
    flags = squarefree_flags(X)
    q = X // 4 + 1

    def count(start: int, stop: int) -> int:
        return flags[start:stop:4].count(1)

    # d = e > 1: e = 1 mod 4 is bounded by e, e = 2, 3 mod 4 by 4e
    positive = count(5, X + 1) + count(2, q) + count(3, q)
    # d = -e: -e = 1 mod 4 (e = 3 mod 4) is bounded by e, the rest by 4e
    negative = count(3, X + 1) + count(1, q) + count(2, q)
    return positive + negative


def naive_bmun(n: int, B: Fraction) -> int:
    """n-power-free N with 1 <= |N| <= B^n; both signs when n is even."""
    X = math.floor(Fraction(B) ** n)
    c = sum(1 for N in range(1, X + 1) if all(e < n for e in factorization(N).values()))
    return 2 * c if n % 2 == 0 else c


# ----------------------------------------------------------------------
# Vojta searches


def spf_table(limit: int) -> list[int]:
    """Smallest prime factor of every k <= limit (spf[0] = spf[1] = 0)."""
    spf = [0] * (limit + 1)
    for i in range(2, limit + 1):
        if spf[i] == 0:
            for j in range(i, limit + 1, i):
                if spf[j] == 0:
                    spf[j] = i
    return spf


def _spf_exponents(n: int, spf: list[int], out: dict[int, int]) -> None:
    while n > 1:
        p = spf[n]
        while n % p == 0:
            n //= p
            out[p] = out.get(p, 0) + 1


def sqf_of_product(terms, spf: list[int]) -> int:
    exps: dict[int, int] = {}
    for t in terms:
        _spf_exponents(t, spf, exps)
    out = 1
    for p, e in exps.items():
        if e % 2:
            out *= p
    return out


def phi4(n: int, spf: list[int]) -> int:
    exps: dict[int, int] = {}
    _spf_exponents(n, spf, exps)
    out = 1
    for p, e in exps.items():
        out *= p ** ((-e) % 4)
    return out


def ap5_hit_ok(terms, cutoff: int, expo: Fraction, spf: list[int]) -> bool:
    """Five-term AP a, a+d, ..., a+4d with a, d >= 1 and last term <= cutoff,
    whose product has squarefree part below (a + 4d)^expo."""
    if len(terms) != 5 or terms[0] < 1:
        return False
    step = terms[1] - terms[0]
    if step < 1 or any(terms[k] != terms[0] + k * step for k in range(5)):
        return False
    return terms[4] <= cutoff and pow_lt(sqf_of_product(terms, spf), terms[4], expo)


def v444_hit_ok(a: int, b: int, cutoff: int, expo: Fraction, spf=None) -> bool:
    """Coprime 1 <= a <= b <= cutoff with Phi_4(a) Phi_4(b) Phi_4(a+b) < b^expo."""
    if not (1 <= a <= b <= cutoff) or gcd(a, b) != 1:
        return False
    if spf is None:
        value = power_free_part(a, 4) * power_free_part(b, 4) * power_free_part(a + b, 4)
    else:
        value = phi4(a, spf) * phi4(b, spf) * phi4(a + b, spf)
    return pow_lt(value, b, expo)


def naive_ap5(cutoff: int, expo: Fraction) -> list[tuple[int, ...]]:
    spf = spf_table(max(cutoff, 2))
    out = []
    for step in range(1, (cutoff - 1) // 4 + 1):
        for a in range(1, cutoff - 4 * step + 1):
            terms = tuple(a + k * step for k in range(5))
            if pow_lt(sqf_of_product(terms, spf), terms[4], expo):
                out.append(terms)
    return sorted(out)


def naive_444(cutoff: int, expo: Fraction) -> list[tuple[int, int]]:
    spf = spf_table(max(2 * cutoff, 2))
    out = []
    for b in range(1, cutoff + 1):
        for a in range(1, b + 1):
            if v444_hit_ok(a, b, cutoff, expo, spf):
                out.append((a, b))
    return out
