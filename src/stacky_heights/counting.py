"""Counting and search kernels for the height families, plus exponent fits.

All counts and searches are exact: bounds arrive as rationals (floats are
taken at their exact binary value), get converted to integer thresholds,
and every comparison on the hot paths is integer arithmetic.  Results are
deterministic and independent of the thread count; parallelism only splits
work into blocks whose partial results are exact integers or hit lists,
combined in a fixed order.  Workers are threads running closures, so a
call keeps no module-level state and concurrent calls do not interfere.

The heavy enumeration (pairs with three squarefree-part constraints) runs
on segmented numpy sieves that extract prime exponents per window; the
football222 segment size follows SEGMENT_SIZE.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional, Sequence, Union

import numpy as np

from .arith import factor

__all__ = [
    "CountReport",
    "sieve_power_free_parts",
    "count_bmun",
    "count_quadratic_fields",
    "count_football222",
    "count_rooted3_at_0",
    "count_quadratic_points",
    "vojta_search_444",
    "vojta_search_ap5",
    "fit_exponents",
]

Real = Union[int, float, Fraction]

SEGMENT_SIZE = 1 << 24  # football222 segment: values v = a + b per window
_SIEVE_WINDOW = 1 << 18  # sieve_power_free_parts window; temporaries ~2 MB


def _run_parallel(fn, tasks: Sequence, threads: int) -> list:
    """Map fn over tasks on up to `threads` threads, results in task order.

    fn should call only private helpers: a tracer wrapping the public
    functions (sieve_power_free_parts, factor) keeps one call stack per
    process, which calls from several threads would interleave.
    """
    if threads <= 1 or len(tasks) <= 1:
        return [fn(t) for t in tasks]
    with ThreadPoolExecutor(max_workers=min(threads, len(tasks))) as pool:
        return list(pool.map(fn, tasks))


def _strict_floor(x: Fraction) -> int:
    """Largest integer strictly below x (t < x <=> t <= this, t integer)."""
    return (x.numerator - 1) // x.denominator


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def _primes_upto(bound: int) -> np.ndarray:
    if bound < 2:
        return np.zeros(0, dtype=np.int64)
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def _isqrt_vec(z: np.ndarray) -> np.ndarray:
    """Exact elementwise floor sqrt for nonnegative int64 below 2^52."""
    r = np.sqrt(z.astype(np.float64)).astype(np.int64)
    r = np.where((r + 1) * (r + 1) <= z, r + 1, r)
    r = np.where(r * r > z, r - 1, r)
    return r


# ----------------------------------------------------------------------
# power-free-part sieves


def _power_free_window(lo: int, hi: int, m: int, primes) -> np.ndarray:
    """Phi_m(k) for k in [lo, hi); primes must cover isqrt(hi - 1).

    For m = 2 each k is divided by p^2 as often as it goes, touching only
    the multiples of p^2, and what remains is the squarefree part.  Larger
    m extracts every exponent and multiplies the complements back in.
    """
    rem = np.arange(lo, hi, dtype=np.int64)
    if m == 2:
        for p in primes:
            p2 = int(p) * int(p)
            if p2 >= hi:
                break
            mult = rem[-(-lo // p2) * p2 - lo :: p2]  # view: multiples of p^2
            mult //= p2
            cur = np.nonzero(mult % p2 == 0)[0]
            while len(cur):
                mult[cur] //= p2
                cur = cur[mult[cur] % p2 == 0]
        return rem
    res = np.ones(hi - lo, dtype=np.int64)
    for p in primes:
        p = int(p)
        if p * p >= hi:
            break
        start = ((lo + p - 1) // p) * p
        if start >= hi:
            continue
        idx = np.arange(start - lo, hi - lo, p, dtype=np.int64)
        sub = rem[idx] // p
        e = np.ones(len(idx), dtype=np.int64)
        cur = np.arange(len(idx))
        while True:
            cur = cur[sub[cur] % p == 0]
            if len(cur) == 0:
                break
            sub[cur] //= p
            e[cur] += 1
        rem[idx] = sub
        res[idx] *= np.power(p, (-e) % m)
    left = rem > 1
    res[left] *= rem[left] ** (m - 1)
    return res


def sieve_power_free_parts(
    limit: int, m: int, segment_size: int = _SIEVE_WINDOW
) -> np.ndarray:
    """Array A with A[k] = power_free_part(k, m) for 1 <= k <= limit.

    A[0] is 0.  Work proceeds in fixed-size segments so the temporaries
    stay bounded; the output array itself is limit * 8 bytes.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if limit > 1 and (m - 1) * math.log2(limit) >= 63:
        raise ValueError("power-free parts would overflow 64-bit integers")
    out = np.zeros(limit + 1, dtype=np.int64)
    primes = _primes_upto(math.isqrt(limit))
    for lo in range(1, limit + 1, segment_size):
        hi = min(lo + segment_size, limit + 1)
        out[lo:hi] = _power_free_window(lo, hi, m, primes)
    return out


# ----------------------------------------------------------------------
# power classes and quadratic fields


def _mobius_upto(limit: int) -> np.ndarray:
    mu = np.zeros(limit + 1, dtype=np.int64)
    if limit >= 1:
        mu[1] = 1
    primes: list[int] = []
    is_comp = np.zeros(limit + 1, dtype=bool)
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            is_comp[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def _count_power_free_upto(X: int, m: int) -> int:
    """Number of m-power-free integers in [1, X], by Moebius inversion."""
    if X < 1:
        return 0
    root = _iroot(X, m)
    mu = _mobius_upto(root)
    return int(sum(int(mu[d]) * (X // d**m) for d in range(1, root + 1)))


def count_bmun(n: int, B: Real) -> int:
    """Classes of Q*/(Q*)^n of height at most log B.

    These are the n-power-free representatives N with |N| <= B^n; both
    signs occur for even n, positive representatives only for odd n.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    B = Fraction(B)
    if B < 1:
        return 0
    X = _floor(B**n)
    c = _count_power_free_upto(X, n)
    return 2 * c if n % 2 == 0 else c


def _squarefree_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[0] = False
    for p in range(2, math.isqrt(limit) + 1):
        p2 = p * p
        flags[p2::p2] = False
    return flags


def count_quadratic_fields(X: Real) -> int:
    """Quadratic fields with |discriminant| <= X.

    Counts squarefree d not in {0, 1}, with |d| <= X when d = 1 mod 4 and
    4|d| <= X otherwise.
    """
    X = _floor(Fraction(X))
    if X < 3:
        return 0
    flags = _squarefree_flags(X)
    small = flags[: X // 4 + 1]
    # positive d: d = 1 mod 4 measured by |d|, the rest by 4|d|
    total = int(flags[1::4].sum()) - 1  # exclude d = 1
    total += int(small[2::4].sum()) + int(small[3::4].sum())
    # negative d = -e: the discriminant is -e when e = 3 mod 4, else -4e
    total += int(flags[3::4].sum())
    total += int(small[1::4].sum()) + int(small[2::4].sum())
    return total


# ----------------------------------------------------------------------
# single stacky root of order 3 at 0: Phi_3(a) * max(a, b)^4 bounded


def _distinct_primes(n: int) -> list[int]:
    return [p for p, _ in factor(n).factors] if n > 1 else []


def _coprime_upto(bound: int, prime_list: Sequence[int]) -> int:
    """#{1 <= k <= bound : k coprime to all listed primes}."""
    if bound <= 0:
        return 0
    total = 0
    for mask in range(1 << len(prime_list)):
        d = 1
        bits = 0
        for i, p in enumerate(prime_list):
            if mask >> i & 1:
                d *= p
                bits += 1
        total += (bound // d) if bits % 2 == 0 else -(bound // d)
    return total


def count_rooted3_at_0(B: Real) -> int:
    """Pairs of coprime a, b >= 1 with Phi_3(a) * max(a, b)^4 < B^3."""
    B = Fraction(B)
    if B <= 0:
        return 0
    T = _strict_floor(B**3)
    if T < 1:
        return 0
    R = _iroot(T, 4)
    if R < 1:
        return 0
    phi3 = sieve_power_free_parts(R, 3)
    total = 0
    for a in range(1, R + 1):
        f = int(phi3[a])
        if f * a**4 > T:
            continue  # then no b works: max(a, b) >= a
        # every b <= cap coprime to a, where cap = max(a, largest b with
        # f b^4 <= T); counts (1, 1) once via a = 1
        cap = _iroot(T // f, 4) if f * (a + 1) ** 4 <= T else a
        total += _coprime_upto(cap, _distinct_primes(a))
    return total


# ----------------------------------------------------------------------
# (2,2,2)-rooted line at 0, -1, infinity:
# sqf(a) sqf(b) sqf(a+b) max(a, b) < B^2 over coprime a, b >= 1.
#
# Writing a = s x^2, b = t y^2 with s = sqf(a), t = sqf(b), the constraint
# (with sqf(a+b) >= 1) forces s*t*max(s x^2, t y^2) <= T, which bounds the
# candidates.  Candidates are grouped by v = a + b into segments, a
# segmented sieve supplies u = sqf(v), and the final test runs in int64 as
# s*t*max(a, b) <= T // u.  For integers this is the same as the product
# being at most T, and no product is formed: s*t*max(a, b) <= T holds for
# every candidate row by construction, and v <= 2T.  Only candidates that
# pass the bound go on to the gcd test.  Everything stays exact while the
# int64 square roots of the y-windows do, that is for 2T < 2^52.

_F222_CHUNK = 1_000_000  # candidates per pass; each int64 temporary is 8 MB
_F222_EXACT_LIMIT = 1 << 52  # _isqrt_vec is exact below this


def _f222_rows(T: int):
    """Row table (a, t, st, ymax) over coprime squarefree (s, t) and x."""
    smax = math.isqrt(T)
    sqfree = np.nonzero(_squarefree_flags(smax))[0].tolist()
    a_parts, t_parts, st_parts, ymax_parts = [], [], [], []
    for s in sqfree:
        if s * s > T:
            break
        tcap = min(T // (s * s), math.isqrt(T // s))
        for t in sqfree:
            if t > tcap:
                break
            if s * t * t > T or math.gcd(s, t) != 1:
                continue
            xmax = math.isqrt(T // (s * s * t))
            ymax = math.isqrt(T // (s * t * t))
            if xmax < 1 or ymax < 1:
                continue
            x = np.arange(1, xmax + 1, dtype=np.int64)
            a_parts.append(s * x * x)
            t_parts.append(np.full(xmax, t, dtype=np.int64))
            st_parts.append(np.full(xmax, s * t, dtype=np.int64))
            ymax_parts.append(np.full(xmax, ymax, dtype=np.int64))
    if not a_parts:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy(), z.copy()
    return tuple(np.concatenate(p) for p in (a_parts, t_parts, st_parts, ymax_parts))


def _f222_segment_count(lo: int, hi: int, T: int, rows, primes) -> int:
    """Candidates with v = a + b in [lo, hi) that pass the full test."""
    rows_a, rows_t, rows_st, rows_ymax = rows
    seg_sqf = _power_free_window(lo, hi, 2, primes)

    # y-window of each row whose v = a + t y^2 lands in [lo, hi)
    zlo = np.maximum(lo - rows_a, 1)
    zlo = (zlo + rows_t - 1) // rows_t
    ylo = np.maximum(_isqrt_vec(zlo - 1) + 1, 1)  # ceil sqrt, at least 1
    zhi = (hi - 1 - rows_a) // rows_t
    yhi = np.where(zhi >= 1, _isqrt_vec(np.maximum(zhi, 0)), 0)
    yhi = np.minimum(yhi, rows_ymax)
    counts = np.maximum(yhi - ylo + 1, 0)
    live = np.nonzero(counts)[0]
    if len(live) == 0:
        return 0

    c_live = counts[live]
    cum = np.cumsum(c_live)
    total = 0
    start = 0
    while start < len(live):
        base = int(cum[start - 1]) if start > 0 else 0
        end = int(np.searchsorted(cum, base + _F222_CHUNK, side="right"))
        end = min(max(end, start + 1), len(live))
        rows = live[start:end]
        reps = counts[rows]
        ridx = np.repeat(rows, reps)
        # y runs from ylo upward within each row; b = t y^2 is built in place
        b = np.arange(len(ridx), dtype=np.int64)
        b += np.repeat(ylo[rows] - (np.cumsum(reps) - reps), reps)
        b *= b
        b *= rows_t[ridx]
        a = rows_a[ridx]
        u = seg_sqf[a + b - lo]
        keep = rows_st[ridx] * np.maximum(a, b) <= T // u
        total += int(np.count_nonzero(np.gcd(a[keep], b[keep]) == 1))
        start = end
    return total


def count_football222(B: Real, threads: int = 1) -> int:
    """Coprime pairs a, b >= 1 with sqf(a) sqf(b) sqf(a+b) max(a,b) < B^2.

    Exact while 2T < 2^52, where T is the largest integer below B^2: that
    is B^2 <= 2^51, or B up to about 4.7e7.  Larger bounds raise
    ValueError rather than risk an inexact count.
    """
    B = Fraction(B)
    if B <= 0:
        return 0
    T = _strict_floor(B * B)
    if T < 2:
        return 0
    if 2 * T >= _F222_EXACT_LIMIT:
        raise ValueError(
            "count_football222 is exact only for B^2 <= 2^51 (B up to about "
            f"4.7e7); got B = {B}"
        )
    seg_size = min(SEGMENT_SIZE, 2 * T)
    rows = _f222_rows(T)
    primes = _primes_upto(math.isqrt(2 * T))

    def segment(lo: int) -> int:
        return _f222_segment_count(lo, min(lo + seg_size, 2 * T + 1), T, rows, primes)

    return sum(_run_parallel(segment, range(2, 2 * T + 1, seg_size), threads))


# ----------------------------------------------------------------------
# quadratic points (degree-2 points of the line by Mahler measure)
#
# For real roots M(ax^2 + bx + c) = max(a, |c|, (|b| + sqrt(disc)) / 2),
# and (|b| + sqrt(disc)) / 2 < Y is the same as |b| < 2Y with
# Y |b| < Y^2 + ac.  For complex roots M = max(a, |c|), and b^2 < 4ac gives
# Y |b| < 2 Y sqrt(ac) <= Y^2 + ac.  So once a and |c| are below Y, the
# forms with M < Y = p/q are exactly those with p q |b| < p^2 + a c q^2
# (which also forces |b| < 2Y): each (a, c) contributes 2 bmax + 1 forms.
# Since a |c| q^2 < p^2 the numerator lies in (0, 2 p^2), so int64 is exact
# for p < 2^31.

_QP_CELLS = 1 << 18  # (a, c) cells per block; each int64 temporary is 2 MB
_QP_NUMERATOR_LIMIT = 1 << 31


def _quadratic_bmax(p: int, q: int, a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Largest |b| with M(a x^2 + b x + c) < p/q, elementwise.

    Needs 1 <= a < p/q, |c| < p/q and p < 2^31 (int64 stays exact).
    """
    return (p * p - 1 + a * c * (q * q)) // (p * q)


def _count_all_forms(p: int, q: int) -> int:
    """Forms a x^2 + b x + c (a >= 1, any b and c, reducible and imprimitive
    included) with Mahler measure below p/q, walked in blocks of rows a."""
    top = (p - 1) // q  # a and |c| are at most this
    if top < 1:
        return 0
    c = np.arange(-top, top + 1, dtype=np.int64)
    rows = max(1, _QP_CELLS // len(c))
    total = 0
    for lo in range(1, top + 1, rows):
        a = np.arange(lo, min(lo + rows, top + 1), dtype=np.int64)[:, None]
        total += int(_quadratic_bmax(p, q, a, c).sum())
    return 2 * total + top * len(c)


def _totient_upto(limit: int) -> np.ndarray:
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in _primes_upto(limit).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def _count_reducible(T2: int) -> int:
    """Primitive reducible forms with a >= 1 and Mahler measure <= T2 >= 1.

    By Gauss's lemma these are the unordered pairs of primitive linear
    forms p x + q with p >= 1, and M(f g) = max(p, |q|) max(r, |s|).  There
    are L(1) = 3 linear forms of height 1 and L(h) = 4 phi(h) of height
    h >= 2, so the count is (sum_{h1 h2 <= T2} L(h1) L(h2) + sum_{h^2 <= T2}
    L(h)) / 2, summed in Python integers.
    """
    L = (4 * _totient_upto(T2)).tolist()
    L[0], L[1] = 0, 3
    S = list(accumulate(L))  # S[n] = L(1) + ... + L(n)
    ordered = sum(L[h] * S[T2 // h] for h in range(1, T2 + 1))
    return (ordered + S[math.isqrt(T2)]) // 2


def count_quadratic_points(B: Real) -> int:
    """Degree-2 points of the line with multiplicative height below B.

    Equals twice the number of primitive irreducible integer quadratics
    with positive leading coefficient and Mahler measure strictly below
    X = B^2 (each form carries a conjugate pair of points).  All forms with
    M < X/d are counted in O((X/d)^2) closed-form cells, primitive ones
    come from Moebius inversion over d (M(d f) = d M(f)), and the
    reducible ones are counted as pairs of linear factors: O(B^4) in all.

    X = num/den must have den <= 1000, and the count is exact in int64 for
    num < 2^31 (B up to about 46 340); larger bounds raise ValueError.
    """
    B = Fraction(B)
    if B <= 0:
        return 0
    X = B * B  # Mahler measure bound
    if X.denominator > 1000:
        raise ValueError("the bound B^2 must have denominator at most 1000")
    num, den = X.numerator, X.denominator
    if num >= _QP_NUMERATOR_LIMIT:
        raise ValueError(
            "count_quadratic_points is exact only while the numerator of B^2 "
            f"is below 2^31; got B^2 = {X}"
        )
    T2 = _strict_floor(X)  # M < X/d needs d <= T2
    if T2 < 1:
        return 0
    mu = _mobius_upto(T2)
    primitive = sum(
        int(mu[d]) * _count_all_forms(num, den * d)
        for d in range(1, T2 + 1)
        if mu[d]
    )
    return 2 * (primitive - _count_reducible(T2))


# ----------------------------------------------------------------------
# stacky Vojta searches


def _delta_fraction(delta) -> Fraction:
    """Exact exponent parameter; floats are read as their decimal literal."""
    d = Fraction(str(delta)) if isinstance(delta, float) else Fraction(delta)
    if not 0 < d < 1:
        raise ValueError("delta must lie strictly between 0 and 1")
    return d


def _pow_lt(value: int, base: int, expo: Fraction) -> bool:
    """Exact test value < base**expo for positive integers."""
    return value ** expo.denominator < base**expo.numerator


# Phi_4(k) <= k^3 for k <= 2 * cutoff must stay below 2^63.
_V444_MAX_CUTOFF = (1 << 20) - 1
_V444_BLOCK = 128  # b-candidates per block, each against all a-candidates


def vojta_search_444(cutoff: int, delta, threads: int = 1) -> list[tuple[int, int]]:
    """Coprime pairs 1 <= a <= b <= cutoff with
    Phi_4(a) Phi_4(b) Phi_4(a+b) < max(a, b)^(1 - delta), sorted.

    Exact for cutoff <= 2^20 - 1; larger cutoffs raise ValueError.
    """
    if cutoff < 1:
        return []
    if cutoff > _V444_MAX_CUTOFF:
        raise ValueError(
            f"vojta_search_444 supports cutoff <= {_V444_MAX_CUTOFF}, where "
            f"Phi_4 values up to (2 * cutoff)^3 fit in 64 bits; got {cutoff}"
        )
    expo = 1 - _delta_fraction(delta)
    fexpo = float(expo)
    phi4 = sieve_power_free_parts(2 * cutoff, 4)
    n = np.arange(1, cutoff + 1, dtype=np.int64)
    # each factor must individually beat the bound it contributes to
    b_cand = n[phi4[1 : cutoff + 1] < n.astype(np.float64) ** fexpo * (1 + 1e-9)]
    a_cand = n[phi4[1 : cutoff + 1] < float(cutoff) ** fexpo * (1 + 1e-9)]
    # floats carry a 1e-9 margin; whatever passes them is tested exactly
    b_thr = b_cand.astype(np.float64) ** fexpo * (1 + 1e-9)

    def block(lo: int) -> list[tuple[int, int]]:
        b = b_cand[lo : lo + _V444_BLOCK, None]
        a = a_cand[None, : np.searchsorted(a_cand, b[-1, 0], side="right")]
        thr = b_thr[lo : lo + _V444_BLOCK, None]
        fb = phi4[b].astype(np.float64)
        i, j = np.nonzero((a <= b) & (phi4[a] * fb < thr))
        a, b, thr = a[0, j], b[i, 0], thr[i, 0]
        keep = phi4[a] * fb[i, 0] * phi4[a + b] < thr
        a, b = a[keep], b[keep]
        keep = np.gcd(a, b) == 1
        return [
            (x, y)
            for x, y in zip(a[keep].tolist(), b[keep].tolist())
            if _pow_lt(int(phi4[x]) * int(phi4[y]) * int(phi4[x + y]), y, expo)
        ]

    parts = _run_parallel(block, range(0, len(b_cand), _V444_BLOCK), threads)
    return sorted(p for part in parts for p in part)


# Five-term APs a_i = a + i d.  A prime p >= 5 dividing two terms divides
# their difference, a multiple of d by at most 4, so p | g = gcd(a, d) and
# then p divides all five.  So with u_i = sqf(a_i) stripped of 2 and 3,
# rg = the product of the primes p >= 5 of g, and tau_i = u_i / gcd(u_i, rg),
# the tau_i are pairwise coprime and
#   sqf(a_0 ... a_4) = tau_0 ... tau_4 * prod_{p in {2, 3} or p | rg}
#                      p^(sum_i v_p(a_i) mod 2).
# Since tau_i >= u_i / rg, a hit needs u_0 u_1 u_2 / rg^3 < cutoff^(1-delta):
# that prefilter reads three contiguous slices of u per step d.  Its
# product reaches cutoff^3, which bounds the exact range.

_AP5_MAX_CUTOFF = (1 << 21) - 1  # u_0 u_1 u_2 <= cutoff^3 < 2^63
_AP5_BATCH = 1 << 16  # prefilter survivors per _ap5_batch_hits call
_AP5_STEP_COST = 1024  # per-step overhead in a-values, for the block split


def _spf_upto(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int64)
    for i in range(2, math.isqrt(limit) + 1):
        if spf[i] == 0:
            sl = spf[i * i :: i]
            sl[sl == 0] = i
            spf[i * i :: i] = sl
    rest = np.nonzero(spf[2:] == 0)[0] + 2
    spf[rest] = rest
    return spf


def _primes_from_5(d: int, spf: np.ndarray) -> list[int]:
    """The distinct primes p >= 5 dividing d."""
    out = []
    while d > 1:
        p = int(spf[d])
        while d % p == 0:
            d //= p
        if p >= 5:
            out.append(p)
    return out


def _ap5_exact(a, d, rg, sqf: np.ndarray, expo: Fraction) -> np.ndarray:
    """Mask of the rows whose squarefree part of the product is below
    (a + 4d)^expo, by the factorization above; only rows within 1e-9 of
    the threshold in floats are decided in Python integers."""
    primes_s = 6 * rg  # its prime set is {2, 3} and the primes of rg
    taus = np.empty((5, len(a)), dtype=np.int64)
    rest = np.ones(len(a), dtype=np.int64)  # squarefree, primes in primes_s
    for i in range(5):
        s = sqf[a + i * d]
        w = np.gcd(s, primes_s)
        taus[i] = s // w
        g = np.gcd(rest, w)
        rest = (rest // g) * (w // g)  # primes of odd total exponent so far
    value = rest.astype(np.float64)
    for t in taus:
        value *= t
    thr = (a + 4 * d).astype(np.float64) ** float(expo)
    hit = value < thr * (1 - 1e-9)
    for i in np.nonzero(~hit & (value < thr * (1 + 1e-9)))[0].tolist():
        exact = math.prod(taus[:, i].tolist()) * int(rest[i])
        hit[i] = _pow_lt(exact, int(a[i] + 4 * d[i]), expo)
    return hit


def _ap5_batch_hits(
    batch: list, u: np.ndarray, sqf: np.ndarray, expo: Fraction
) -> tuple[np.ndarray, np.ndarray]:
    """(a, d) of the hits among a batch of prefilter survivors.

    batch holds (a values, d, product of the primes p >= 5 of d) per step.
    A float pass keeps the rows whose tau product is below (a + 4d)^expo
    with a 1e-9 margin; only those go to the exact retest.
    """
    a = np.concatenate([x for x, _, _ in batch])
    lens = [len(x) for x, _, _ in batch]
    d = np.repeat([d for _, d, _ in batch], lens)
    rg = np.gcd(a, np.repeat([r for _, _, r in batch], lens))
    prod = np.ones(len(a))
    for i in range(5):
        ui = u[a + i * d]
        prod *= ui // np.gcd(ui, rg)
    keep = prod < (a + 4 * d).astype(np.float64) ** float(expo) * (1 + 1e-9)
    a, d, rg = a[keep], d[keep], rg[keep]
    hit = _ap5_exact(a, d, rg, sqf, expo)
    return a[hit], d[hit]


def vojta_search_ap5(
    cutoff: int, delta, threads: int = 1
) -> list[tuple[int, int, int, int, int]]:
    """Five-term APs a, a+d, ..., a+4d (a, d >= 1, last term <= cutoff) with
    sqf(product of the five terms) < (a + 4d)^(1 - delta), sorted.

    Exact for cutoff <= 2^21 - 1, where the int64 prefilter cannot wrap;
    larger cutoffs raise ValueError.
    """
    if cutoff < 5:
        return []
    if cutoff > _AP5_MAX_CUTOFF:
        raise ValueError(
            f"vojta_search_ap5 supports cutoff <= {_AP5_MAX_CUTOFF}, where "
            f"products of three squarefree parts fit in 64 bits; got {cutoff}"
        )
    expo = 1 - _delta_fraction(delta)
    fexpo = float(expo)
    dmax = (cutoff - 1) // 4
    sqf = sieve_power_free_parts(cutoff, 2)
    u = sqf // np.gcd(sqf, np.int64(6))
    spf = _spf_upto(dmax)
    # an integer >= cutoff^(1 - delta): x below that power has floor(x) < thr
    thr = int(float(cutoff) ** fexpo * (1 + 1e-9)) + 1

    def block(steps: tuple[int, int]) -> list[tuple]:
        out, batch, size = [], [], 0
        for d in range(*steps):
            n = cutoff - 4 * d
            prod = u[1 : n + 1] * u[1 + d : n + 1 + d]
            prod *= u[1 + 2 * d : n + 1 + 2 * d]
            # floor(prod / rg^3): divide the multiples of each p by p^3
            primes = _primes_from_5(d, spf)
            for p in primes:
                prod[p - 1 :: p] //= p**3
            idx = np.flatnonzero(prod < thr)
            if len(idx):
                batch.append((idx + 1, d, math.prod(primes)))
                size += len(idx)
            if size >= _AP5_BATCH:
                out.append(_ap5_batch_hits(batch, u, sqf, expo))
                batch, size = [], 0
        if batch:
            out.append(_ap5_batch_hits(batch, u, sqf, expo))
        return out

    # blocks of equal cost: step d walks cutoff - 4d values of a
    cost = np.cumsum(cutoff - 4 * np.arange(1, dmax + 1) + _AP5_STEP_COST)
    nblocks = max(1, threads)
    cuts = np.searchsorted(cost, cost[-1] * np.arange(1, nblocks) / nblocks) + 1
    edges = [1, *cuts.tolist(), dmax + 1]
    parts = _run_parallel(block, list(zip(edges[:-1], edges[1:])), threads)
    found = [p for part in parts for p in part]
    if not found:
        return []
    a, d = (np.concatenate(col) for col in zip(*found))
    order = np.lexsort((d, a))
    terms = a[order, None] + d[order, None] * np.arange(5)
    return [tuple(t) for t in terms.tolist()]


# ----------------------------------------------------------------------
# reports and exponent fits


@dataclass
class CountReport:
    """Samples (B, N(B)) of a counting function with an optional fitted
    growth model log N = a log B + b log log B + c."""

    family: str
    params: dict = field(default_factory=dict)
    samples: list[tuple[float, int]] = field(default_factory=list)
    fit: Optional[tuple[float, float, float]] = None

    def __post_init__(self):
        bs = [float(b) for b, _ in self.samples]
        if any(x >= y for x, y in zip(bs, bs[1:])):
            raise ValueError("sample bounds must be strictly increasing")
        ns = [n for _, n in self.samples]
        if any(n < 0 for n in ns):
            raise ValueError("counts must be nonnegative")
        if any(x > y for x, y in zip(ns, ns[1:])):
            raise ValueError("counts must be nondecreasing")

    def to_json(self) -> dict:
        return {
            "schema": "stacky-heights/1",
            "family": self.family,
            "params": self.params,
            "samples": [[float(b), int(n)] for b, n in self.samples],
            "fit": list(self.fit) if self.fit else None,
        }

    @staticmethod
    def from_json(obj: dict) -> "CountReport":
        fit = obj.get("fit")
        return CountReport(
            family=obj["family"],
            params=obj.get("params", {}),
            samples=[(float(b), int(n)) for b, n in obj["samples"]],
            fit=tuple(fit) if fit else None,
        )

    def to_csv(self) -> str:
        lines = ["B,count"]
        lines += [f"{float(b):.6f},{n}" for b, n in self.samples]
        return "\n".join(lines) + "\n"

    def to_plot(self) -> str:
        return "".join(f"{float(b):.6f} {n}\n" for b, n in self.samples)


def fit_exponents(
    report: Union[CountReport, Sequence[tuple[Real, int]]],
) -> tuple[float, float, float]:
    """Least squares for log N = a log B + b log log B + c.

    Uses the samples with B >= e^2 and N >= 1; at least four are required.
    """
    samples = report.samples if isinstance(report, CountReport) else list(report)
    pts = [
        (float(b), int(n)) for b, n in samples if float(b) >= math.e**2 and int(n) >= 1
    ]
    if len(pts) < 4:
        raise ValueError("need at least 4 samples with B >= e^2 and N >= 1")
    bs = np.array([b for b, _ in pts])
    ns = np.array([n for _, n in pts], dtype=np.float64)
    logb = np.log(bs)
    design = np.column_stack([logb, np.log(logb), np.ones_like(logb)])
    coef, *_ = np.linalg.lstsq(design, np.log(ns), rcond=None)
    return float(coef[0]), float(coef[1]), float(coef[2])
