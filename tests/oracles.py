"""Naive enumeration oracles, deliberately independent of the sieved
counting kernels: plain loops, per-element factorizations, float root
finding.  Used by the unit tests and the acceptance suite."""

from fractions import Fraction as F
from math import gcd, isqrt, prod

from stacky_heights.arith import (
    _mahler_squared,
    factor,
    fundamental_discriminant,
    power_free_part,
    squarefree_part,
)


def trial_division(n):
    """The factorization of |n| as sorted (prime, exponent) pairs, by plain
    trial division up to the square root; shares no code with arith."""
    n = abs(n)
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return sorted(out.items())


def naive_rooted_height(roots, divisor, point):
    """The term maps {p: Fraction} of the height of a generic point and of
    edd on a rooted line, from trial_division and Fraction only.

    roots are (u, v, m) for the form u X + v Y of order m, divisor is
    (d, (n_1, ...)) for d [P] + sum n_i/m_i [root_i], and point is an
    integer pair off the roots.  The height is
    deg * log max(|a|, |b|) + sum_{i, p} fracplus(ord_p(L_i) n_i / m_i) log p
    at the coprime (a, b), fracplus(q) = ceil(q) - q; edd is the reduced
    discriminant (log p once for each p with some ord_p(L_i) not divisible
    by m_i) minus the height against -T = -2 [P] + sum (m_i - 1)/m_i [root_i].
    """
    g = gcd(*point)
    a, b = point[0] // g, point[1] // g
    values = [u * a + v * b for u, v, _ in roots]
    assert 0 not in values, "point on a root"
    top = trial_division(max(abs(a), abs(b)))

    def height(d, ns):
        deg = d + sum(F(n, m) for n, (_, _, m) in zip(ns, roots))
        terms = {p: deg * e for p, e in top}
        for x, n, (_, _, m) in zip(values, ns, roots):
            for p, k in trial_division(x):
                q = F(k * n, m)
                terms[p] = terms.get(p, 0) + (-(-q.numerator // q.denominator) - q)
        return terms

    h = height(divisor[0], divisor[1])
    e = {p: -c for p, c in height(-2, [m - 1 for _, _, m in roots]).items()}
    stacky = {p for x, (_, _, m) in zip(values, roots) for p, k in trial_division(x) if k % m}
    for p in stacky:
        e[p] = e.get(p, 0) + 1
    return ({p: c for p, c in h.items() if c}, {p: c for p, c in e.items() if c})


def td_is_prime(n):
    """Primality by trial division by 2 and the odd numbers to sqrt(n)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    return all(n % d for d in range(3, isqrt(n) + 1, 2))


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
    """The f222 kernel's row table as (b, u, t u b, z0, zmax) tuples, by plain
    loops.

    t, u run over coprime squarefree pairs, then y over y >= 1 with
    t u b <= T, where b = t y^2.  z0 and zmax are the least and the largest
    z with b < u z^2 < 2b, and a row with no such z is left out.  Such a z
    needs u < 2b, so u^2 t < 2 t u b <= 2T bounds u.
    """
    rows = []
    for t in range(1, isqrt(T) + 1):
        if squarefree_part(t) != t:
            continue
        u = 1
        while t * t * u <= T and u * u * t < 2 * T:
            if squarefree_part(u) == u and gcd(t, u) == 1:
                y = 1
                while t * u * t * y * y <= T:
                    b = t * y * y
                    z0 = 1
                    while u * z0 * z0 <= b:
                        z0 += 1
                    zmax = z0
                    while u * (zmax + 1) ** 2 < 2 * b:
                        zmax += 1
                    if u * z0 * z0 < 2 * b:
                        rows.append((b, u, t * u * b, z0, zmax))
                    y += 1
            u += 1
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


def mahler_measure_lt(a, b, c, bound):
    """Exact test M(ax^2+bx+c) < bound, for rational bound > 0."""
    q, r, s = _mahler_squared(a, b, c)
    bound = F(bound)
    t = 4 * bound * bound
    if r == 0:
        return q < t
    # q + r*sqrt(s) < 4 bound^2  <=>  r sqrt(s) < t - q, both sides checked
    rhs = t - q
    if rhs <= 0:
        return False
    return r * r * s * rhs.denominator**2 < rhs.numerator**2


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
