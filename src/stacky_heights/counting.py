"""Counting and search kernels for the height families, plus exponent fits.

All counts and searches are exact: bounds arrive as rationals (floats are
taken at their exact binary value), get converted to integer thresholds,
and every comparison on the hot paths is integer arithmetic.  Results are
deterministic and independent of the thread count; parallelism only splits
work into blocks whose partial results are exact integers or hit lists,
combined in a fixed order.  Workers are threads running closures, so a
call keeps no module-level state and concurrent calls do not interfere.

Every arithmetic table (Moebius for the power-class and quadratic-field
sums, squarefree flags, totients, prime divisors, power-free parts) is
built in the "sieve tables" section from one prime list, _primes_upto, by
strided numpy walks over the multiples of each prime.  The heavy
enumeration (football222: pairs with three squarefree-part constraints)
needs sqf(a + b) only at near-squares.  A counted pair has b > (a + b)/2,
so with a + b = u z^2 and u = sqf(a + b), u^2 z^2 = u (a + b) < 2 u b <=
2 sqf(a) sqf(b) u b <= 2T, and u z <= isqrt(2T).  Its segments of
SEGMENT_SIZE values of a + b hold u at those values only, built from the
squarefree u <= isqrt(2T) with no prime walk.

Every count kernel takes one bound or a sequence of bounds.  A sequence is
counted in one pass at its largest bound, with each table built once, and
the counts come back in input order; one bound is the one-element case.
"""

from __future__ import annotations

import math
import numbers
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .arith import _iroot, factor

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
Bounds = Union[Real, Sequence[Real]]  # one bound, or a schedule of them
Counts = Union[int, list[int]]  # an int for one bound, a list for a schedule

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


def _schedule(B: Bounds, level: Callable, count_levels: Callable) -> Counts:
    """One pass of a count kernel over every bound of a call.

    level maps each bound (a Fraction) to the key its count depends on, or
    to None where the count is 0, and raises ValueError outside the
    kernel's domain; it sees every bound before any work starts.
    count_levels gets the distinct keys in increasing order and returns
    one count per key, from one pass at the largest.  The counts come back
    in input order: an int for one bound, a list for a sequence.
    """
    single = isinstance(B, (str, numbers.Number))
    keys = [level(Fraction(b)) for b in ([B] if single else B)]
    levels = sorted({k for k in keys if k is not None})
    found = dict(zip(levels, count_levels(levels))) if levels else {}
    counts = [found.get(k, 0) for k in keys]
    return counts[0] if single else counts


def _strict_floor(x: Fraction) -> int:
    """Largest integer strictly below x (t < x <=> t <= this, t integer)."""
    return (x.numerator - 1) // x.denominator


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _isqrt_vec(z: np.ndarray) -> np.ndarray:
    """Exact elementwise floor sqrt for nonnegative int64 below 2^52."""
    r = np.sqrt(z).astype(np.int64)  # off by at most one below 2^52
    r += (r + 1) * (r + 1) <= z
    r -= r * r > z
    return r


def _ragged_arange(lens: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each n in lens, concatenated."""
    return np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )


# ----------------------------------------------------------------------
# sieve tables: _primes_upto is the one prime source; every other table is
# a strided numpy walk over the multiples of its primes


def _primes_upto(bound: int) -> np.ndarray:
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def _mobius_upto(limit: int) -> np.ndarray:
    """mu[d] for 0 <= d <= limit (mu[0] = 0).

    Each prime p <= sqrt(limit) flips the sign of its multiples, zeroes
    those of p^2 and is divided out once; a squarefree d keeps at most one
    prime above sqrt(limit), which is what remains of it.
    """
    mu = np.ones(limit + 1, dtype=np.int64)
    mu[0] = 0
    rem = np.arange(limit + 1, dtype=np.int64)
    for p in _primes_upto(math.isqrt(limit)).tolist():
        mu[::p] *= -1
        mu[:: p * p] = 0
        rem[::p] //= p
    mu[rem > 1] *= -1
    return mu


def _squarefree_flags(limit: int) -> np.ndarray:
    flags = np.ones(limit + 1, dtype=bool)
    flags[0] = False
    for p in _primes_upto(math.isqrt(limit)).tolist():
        flags[p * p :: p * p] = False
    return flags


def _totient_upto(limit: int) -> np.ndarray:
    phi = np.arange(limit + 1, dtype=np.int64)
    for p in _primes_upto(limit).tolist():
        phi[p::p] -= phi[p::p] // p
    return phi


def _prime_divisors_from_5(limit: int) -> list[list[int]]:
    """out[d] lists the primes p >= 5 dividing d, ascending, for d <= limit."""
    out: list[list[int]] = [[] for _ in range(limit + 1)]
    for p in _primes_upto(limit)[2:].tolist():
        for d in range(p, limit + 1, p):
            out[d].append(p)
    return out


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


_BMUN_MAX_ROOT = 1 << 25  # Moebius table entries; about 24 bytes each
_BMUN_BLOCK = 1 << 18  # d per dot product; each int64 temporary is 2 MB
_FIELDS_MAX_X = 1 << 30  # floor(X) cap, kept so the accepted domain is unchanged


def count_bmun(n: int, B: Bounds) -> Counts:
    """Classes of Q*/(Q*)^n of height at most log B.

    These are the n-power-free representatives N with |N| <= B^n; both
    signs occur for even n, positive representatives only for odd n.  They
    are counted by Moebius inversion over d up to the n-th root of B^n,
    which is floor(B), as one dot product per block of d.  floor(B) may be
    at most 2^25 (a table under 1 GB); a larger bound raises ValueError
    before any table is built.
    """
    if n < 2:
        raise ValueError("n must be >= 2")

    def level(b: Fraction) -> Optional[int]:
        if b < 1:
            return None
        # floor(b)^n <= floor(b^n) < (floor(b) + 1)^n: the root is floor(b)
        if _floor(b) > _BMUN_MAX_ROOT:
            raise ValueError(
                f"count_bmun builds a Moebius table up to floor(B), capped at "
                f"2^25 = {_BMUN_MAX_ROOT}; got B = {b}"
            )
        return _floor(b**n)

    def count_levels(levels: list[int]) -> list[int]:
        roots = [_iroot(X, n) for X in levels]
        mu = _mobius_upto(roots[-1])
        counts = []
        for X, root in zip(levels, roots):
            # int64 is exact below 2^62: every d^n <= X and the terms sum in
            # absolute value to at most zeta(2) X < 2^63; above, Python ints
            dtype = np.int64 if X < 1 << 62 else object
            c = 0
            for lo in range(1, root + 1, _BMUN_BLOCK):
                d = np.arange(lo, min(lo + _BMUN_BLOCK, root + 1), dtype=dtype)
                c += int(mu[lo : lo + len(d)] @ (X // d**n))
            counts.append(2 * c if n % 2 == 0 else c)
        return counts

    return _schedule(B, level, count_levels)


def count_quadratic_fields(X: Bounds) -> Counts:
    """Quadratic fields with |discriminant| <= X.

    Counts squarefree d not in {0, 1}, with |d| <= X when d = 1 mod 4 and
    4|d| <= X otherwise, by Moebius inversion over odd k <= sqrt(X).
    floor(X) may be at most 2^30; a larger bound raises ValueError before
    any table is built.
    """

    def level(x: Fraction) -> Optional[int]:
        if _floor(x) > _FIELDS_MAX_X:
            raise ValueError(
                f"count_quadratic_fields accepts floor(X) up to 2^30 = "
                f"{_FIELDS_MAX_X}; got X = {x}"
            )
        return _floor(x) if x >= 3 else None

    def count_levels(levels: list[int]) -> list[int]:
        root = math.isqrt(levels[-1])
        mu = _mobius_upto(root)[1::2]
        k2 = np.arange(1, root + 1, 2, dtype=np.int64) ** 2

        def S(r: int, M: int) -> int:
            # squarefree e <= M, e = r mod 4 (r = 1, 2, 3): k^2 | e forces k odd,
            # k^2 = 1 mod 8 keeps r, and a term with k^2 > M is (4 - r) // 4 = 0
            return int(mu @ ((M // k2 + 4 - r) // 4))

        counts = []
        for top in levels:
            Y = top // 4
            # d > 1: d = 1 mod 4 measured by |d|, the rest by 4|d|; d = -e < 0:
            # the discriminant is -e when e = 3 mod 4, else -4e
            counts.append(S(1, top) - 1 + S(2, Y) + S(3, Y) + S(3, top) + S(1, Y) + S(2, Y))
        return counts

    return _schedule(X, level, count_levels)


# ----------------------------------------------------------------------
# single stacky root of order 3 at 0: Phi_3(a) * max(a, b)^4 bounded


def _distinct_primes(n: int) -> list[int]:
    return [p for p, _ in factor(n).factors] if n > 1 else []


def _coprime_upto(bounds: Sequence[int], prime_list: Sequence[int]) -> list[int]:
    """#{1 <= k <= bound : k coprime to all listed primes}, for each bound."""
    terms = [
        ((-1) ** k, math.prod(c))
        for k in range(len(prime_list) + 1)
        for c in combinations(prime_list, k)
    ]
    return [sum(sign * (bound // d) for sign, d in terms) for bound in bounds]


_ROOTED3_MAX_ROOT = 1 << 25  # Phi_3 table entries; about 25 bytes each


def count_rooted3_at_0(B: Bounds) -> Counts:
    """Pairs of coprime a, b >= 1 with Phi_3(a) * max(a, b)^4 < B^3.

    The tables run over a up to R = floor(T^(1/4)), T the largest integer
    below B^3.  R may be at most 2^25 (B up to about 1e10, tables under
    1 GB); a larger bound raises ValueError before any table is built.
    """

    def level(b: Fraction) -> Optional[int]:
        T = _strict_floor(b**3) if b > 0 else 0
        if _iroot(T, 4) > _ROOTED3_MAX_ROOT:
            raise ValueError(
                f"count_rooted3_at_0 builds Phi_3 tables up to floor(T^(1/4)), "
                f"capped at 2^25 = {_ROOTED3_MAX_ROOT}; got B = {b}"
            )
        return T if T >= 1 else None

    def count_levels(levels: list[int]) -> list[int]:
        R = _iroot(levels[-1], 4)
        phi3 = sieve_power_free_parts(R, 3)
        # a level T admits a only if Phi_3(a) a^4 <= T (no b works otherwise:
        # max(a, b) >= a); that product passes 2^63, so floats with a margin
        # pick the candidates for the top level and Python integers decide
        a4 = np.arange(1, R + 1, dtype=np.float64) ** 4
        cand = np.flatnonzero(phi3[1:] * a4 <= levels[-1] * (1 + 1e-9)) + 1
        totals = [0] * len(levels)
        for a in cand.tolist():
            f = int(phi3[a])
            first = bisect_left(levels, f * a**4)
            if first == len(levels):
                continue
            # at each level T every b <= cap coprime to a, where cap =
            # max(a, largest b with f b^4 <= T); counts (1, 1) once via a = 1
            f_next = f * (a + 1) ** 4
            caps = [
                math.isqrt(math.isqrt(T // f)) if f_next <= T else a
                for T in levels[first:]
            ]
            for i, c in enumerate(_coprime_upto(caps, _distinct_primes(a)), first):
                totals[i] += c
        return totals

    return _schedule(B, level, count_levels)


# ----------------------------------------------------------------------
# (2,2,2)-rooted line at 0, -1, infinity:
# sqf(a) sqf(b) sqf(a+b) max(a, b) < B^2 over coprime a, b >= 1.
#
# The key is symmetric in a and b, and the only coprime pair with a = b is
# (1, 1), whose key is 2.  So the kernel walks only b > a and the count at
# each level T >= 2 is twice that, plus 1.
#
# Writing a = s x^2, b = t y^2 with s = sqf(a), t = sqf(b), the constraint
# (with sqf(a+b) >= 1) forces s*t*max(s x^2, t y^2) <= T, which bounds the
# candidates.  Candidates are grouped by v = a + b into segments.  Writing
# v = u z^2 with u = sqf(v), a counted pair has u*v < 2*u*b <= 2*s*t*u*b <= 2T
# (b > v/2 and s, t >= 1), so u z < sqrt(2T): only these near-squares can
# count, and a table over the segment holds u at them and 0 elsewhere.  The
# final test runs in int64 as s*t*b <= T // u on the nonzero entries.  For
# integers this is the same as the product being at most T, and no product
# is formed: s*t*b <= T holds for every candidate row by construction, and
# v <= 2T.  Only candidates that pass the bound go on to the gcd test.
# Everything stays exact while the int64 square roots of the y-windows do,
# that is for 2T < 2^52.

_F222_CHUNK = 1 << 16  # candidates per pass; each int64 temporary is 512 kB
_F222_EXACT_LIMIT = 1 << 52  # _isqrt_vec is exact below this


def _f222_rows(T: int):
    """Row table (a, t, st, ymax) over coprime squarefree (s, t) and x.

    Rows run through s, then t, then x in increasing order.  Every pair
    kept has s^2 t <= T and s t^2 <= T, so xmax, ymax >= 1.
    """
    sqfree = np.flatnonzero(_squarefree_flags(math.isqrt(T)))
    tcap = np.minimum(T // (sqfree * sqfree), _isqrt_vec(T // sqfree))
    ntc = np.searchsorted(sqfree, tcap, side="right")
    s = np.repeat(sqfree, ntc)
    t = sqfree[_ragged_arange(ntc)]
    coprime = np.gcd(s, t) == 1
    s, t = s[coprime], t[coprime]
    xmax = _isqrt_vec(T // (s * s * t))
    pair = np.repeat(np.arange(len(s)), xmax)
    x = _ragged_arange(xmax) + 1
    ymax = _isqrt_vec(T // (s * t * t))
    return s[pair] * x * x, t[pair], (s * t)[pair], ymax[pair]


def _near_square_window(lo: int, hi: int, T: int) -> np.ndarray:
    """int32 table over v in [lo, hi): u at each v = u z^2 with u squarefree
    and u z <= isqrt(2T), 0 everywhere else.

    The entry at v is sqf(v) wherever it is nonzero; the zeros are the
    values no pair counted at level T can have as a + b.
    """
    R = math.isqrt(2 * T)
    u = np.flatnonzero(_squarefree_flags(R))
    zlo = _isqrt_vec((lo - 1) // u) + 1
    zhi = np.minimum(R // u, _isqrt_vec((hi - 1) // u))
    lens = np.maximum(zhi - zlo + 1, 0)
    z = _ragged_arange(lens) + np.repeat(zlo, lens)
    u = np.repeat(u, lens)
    table = np.zeros(hi - lo, dtype=np.int32)
    table[u * z * z - lo] = u
    return table


def _f222_windows(lo: int, hi: int, rows):
    """(live, ylo, counts): rows live have v = a + t y^2 in [lo, hi) for
    counts values of y from ylo; each row's span y0..ymax is cut at lo, hi."""
    a, t, _, y0, ymax, vlo, vhi = rows
    sel = np.flatnonzero((vlo < hi) & (vhi >= lo))
    ylo, yhi = y0[sel], ymax[sel]
    cut = np.flatnonzero(vlo[sel] < lo)  # least y with a + t y^2 >= lo
    ylo[cut] = _isqrt_vec((lo - 1 - a[sel[cut]]) // t[sel[cut]]) + 1
    cut = np.flatnonzero(vhi[sel] >= hi)  # largest y with a + t y^2 < hi
    yhi[cut] = _isqrt_vec((hi - 1 - a[sel[cut]]) // t[sel[cut]])
    live = np.flatnonzero(yhi >= ylo)
    return sel[live], ylo[live], (yhi - ylo + 1)[live]


def _f222_segment_count(lo: int, hi: int, levels: np.ndarray, rows) -> np.ndarray:
    """Counted points with b > a and v = a + b in [lo, hi), by level.

    levels is increasing and the rows are built for T = levels[-1]; entry
    i counts the points whose key sqf(a) sqf(b) sqf(a+b) b lies in
    (levels[i - 1], levels[i]].  Each row walks only y with t y^2 > a, so
    max(a, b) is b.
    """
    rows_a, rows_t, rows_st = rows[:3]
    T = int(levels[-1])
    hist = np.zeros(len(levels), dtype=np.int64)
    # the windows come first, so their temporaries are freed before the table
    live, ylo, counts = _f222_windows(lo, hi, rows)
    near = _near_square_window(lo, hi, T)
    is_near = near != 0  # one byte a value: the candidate gather reads less memory

    cum = np.cumsum(counts)
    start = 0
    while start < len(live):
        base = int(cum[start - 1]) if start > 0 else 0
        end = int(np.searchsorted(cum, base + _F222_CHUNK, side="right"))
        end = min(max(end, start + 1), len(live))
        rows = live[start:end]
        reps = counts[start:end]
        ends = np.cumsum(reps)
        # y runs from ylo upward within each row; v - lo = a - lo + t y^2
        v = np.arange(int(ends[-1]), dtype=np.int64)
        v += np.repeat(ylo[start:end] - (ends - reps), reps)
        v *= v
        v *= np.repeat(rows_t[rows], reps)
        v += np.repeat(rows_a[rows] - lo, reps)
        hit = np.flatnonzero(is_near[v])  # only near-squares v can count
        row = rows[np.searchsorted(ends, hit, side="right")]
        v = v[hit]
        a, st, u = rows_a[row], rows_st[row], near[v].astype(np.int64)
        b = v + (lo - a)
        keep = np.flatnonzero(st * b <= T // u)
        a, b, st, u = a[keep], b[keep], st[keep], u[keep]
        coprime = np.gcd(a, b) == 1
        # the key st b u of a kept row is at most T: no overflow
        key = st * b * u
        hist += np.bincount(np.searchsorted(levels, key[coprime]), minlength=len(levels))
        start = end
    return hist


def count_football222(B: Bounds, threads: int = 1) -> Counts:
    """Coprime pairs a, b >= 1 with sqf(a) sqf(b) sqf(a+b) max(a,b) < B^2.

    Exact while 2T < 2^52, where T is the largest integer below B^2: that
    is B^2 <= 2^51, or B up to about 4.7e7.  Larger bounds raise
    ValueError rather than risk an inexact count.  A schedule costs one
    pass at its largest bound: each segment sorts its points into the
    levels by their keys, so memory stays that of one segment.
    """

    def level(b: Fraction) -> Optional[int]:
        T = _strict_floor(b * b) if b > 0 else 0
        if 2 * T >= _F222_EXACT_LIMIT:
            raise ValueError(
                "count_football222 is exact only for B^2 <= 2^51 (B up to "
                f"about 4.7e7); got B = {b}"
            )
        return T if T >= 2 else None

    def count_levels(levels: list[int]) -> list[int]:
        T = levels[-1]
        seg_size = min(SEGMENT_SIZE, 2 * T)
        a, t, st, ymax = _f222_rows(T)
        y0 = _isqrt_vec(a // t) + 1  # the least y with t y^2 > a
        keep = y0 <= ymax
        a, t, st, y0, ymax = a[keep], t[keep], st[keep], y0[keep], ymax[keep]
        rows = (a, t, st, y0, ymax, a + t * y0 * y0, a + t * ymax * ymax)
        levels_arr = np.array(levels, dtype=np.int64)

        def segment(lo: int) -> np.ndarray:
            hi = min(lo + seg_size, 2 * T + 1)
            return _f222_segment_count(lo, hi, levels_arr, rows)

        parts = _run_parallel(segment, range(2, 2 * T + 1, seg_size), threads)
        return (np.cumsum(2 * sum(parts)) + 1).tolist()

    return _schedule(B, level, count_levels)


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


def _count_reducible(T2s: Sequence[int]) -> list[int]:
    """Primitive reducible forms with a >= 1 and Mahler measure <= T2, for
    each T2 >= 1 of an increasing list.

    By Gauss's lemma these are the unordered pairs of primitive linear
    forms p x + q with p >= 1, and M(f g) = max(p, |q|) max(r, |s|).  There
    are L(1) = 3 linear forms of height 1 and L(h) = 4 phi(h) of height
    h >= 2, so the count is (sum_{h1 h2 <= T2} L(h1) L(h2) + sum_{h^2 <= T2}
    L(h)) / 2, summed in Python integers.
    """
    L = (4 * _totient_upto(T2s[-1])).tolist()
    L[0], L[1] = 0, 3
    S = list(accumulate(L))  # S[n] = L(1) + ... + L(n)
    return [
        (sum(L[h] * S[T2 // h] for h in range(1, T2 + 1)) + S[math.isqrt(T2)]) // 2
        for T2 in T2s
    ]


def count_quadratic_points(B: Bounds) -> Counts:
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

    def level(b: Fraction) -> Optional[Fraction]:
        if b <= 0:
            return None
        X = b * b  # Mahler measure bound
        if X.denominator > 1000:
            raise ValueError("the bound B^2 must have denominator at most 1000")
        if X.numerator >= _QP_NUMERATOR_LIMIT:
            raise ValueError(
                "count_quadratic_points is exact only while the numerator of "
                f"B^2 is below 2^31; got B^2 = {X}"
            )
        return X if X > 1 else None  # else no d fits below

    def count_levels(levels: list[Fraction]) -> list[int]:
        T2s = [_strict_floor(X) for X in levels]  # M < X/d needs d <= T2
        mu = _mobius_upto(T2s[-1])
        counts = []
        for X, T2, reducible in zip(levels, T2s, _count_reducible(T2s)):
            primitive = sum(
                int(mu[d]) * _count_all_forms(X.numerator, X.denominator * d)
                for d in range(1, T2 + 1)
                if mu[d]
            )
            counts.append(2 * (primitive - reducible))
        return counts

    return _schedule(B, level, count_levels)


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
    divisors = _prime_divisors_from_5(dmax)
    # an integer >= cutoff^(1 - delta): x below that power has floor(x) < thr
    thr = int(float(cutoff) ** fexpo * (1 + 1e-9)) + 1

    def block(steps: tuple[int, int]) -> list[tuple]:
        out, batch, size = [], [], 0
        for d in range(*steps):
            n = cutoff - 4 * d
            prod = u[1 : n + 1] * u[1 + d : n + 1 + d]
            prod *= u[1 + 2 * d : n + 1 + 2 * d]
            # floor(prod / rg^3): divide the multiples of each p by p^3
            primes = divisors[d]
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
