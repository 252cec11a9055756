"""Counting and search kernels for the height families, plus exponent fits.

All counts and searches are exact: bounds arrive as rationals (floats are
taken at their exact binary value), get converted to integer thresholds,
and every comparison on the hot paths is integer arithmetic.  Results are
deterministic and independent of the thread count; parallelism only splits
work into blocks whose partial results are exact integers or hit lists,
combined in a fixed order.  Workers are threads running closures, so a
call keeps no module-level state and concurrent calls do not interfere.

Every arithmetic table (totients, prime divisors, power-free parts) is
built in the "sieve tables" section from one prime list, _primes_upto, by
walks over the multiples of each prime: strided numpy slices, an index
gather for the m >= 3 power-free parts, Python lists for the prime
divisors.  Moebius values and squarefree lists stream from one generator,
_mobius_windows, a window at a time, so no count kernel holds mu over its
whole range.  The heavy enumeration (football222: pairs with three
squarefree-part constraints) walks b = t y^2 with t = sqf(b) and
c = a + b = u z^2 with u = sqf(c), and needs sqf(a) only at near-squares.
A counted pair has a < b, so with a = s x^2 and s = sqf(a),
s^2 x^2 = s a < s b <= T / (t u), and s x <= isqrt(T).  Its segments of
SEGMENT_SIZE values of a hold s at those values only, built from the
squarefree s <= isqrt(T) with no prime walk over the segment.

Every count kernel takes one bound or a sequence of bounds.  A sequence is
counted in one pass at its largest bound, with each table built once, and
the counts come back in input order; one bound is the one-element case.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
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

SEGMENT_SIZE = 1 << 24  # football222 segment: values of a per window
_WINDOW = 1 << 18  # sieve_power_free_parts and _mobius_windows window; temporaries ~2 MB


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


def _iroot4_vec(z: np.ndarray) -> np.ndarray:
    """Exact elementwise floor fourth root for nonnegative int64 below 2^62."""
    r = np.sqrt(np.sqrt(z)).astype(np.int64)  # off by at most one
    r += (r + 1) ** 4 <= z  # below 46343^4 < 2^63
    r -= r**4 > z
    return r


def _ragged_arange(lens: np.ndarray) -> np.ndarray:
    """0, 1, ..., n - 1 for each n in lens, concatenated."""
    return np.arange(int(lens.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )


# ----------------------------------------------------------------------
# sieve tables: every other table and each Moebius window walks _primes_upto


def _primes_upto(bound: int) -> np.ndarray:
    sieve = np.ones(bound + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.nonzero(sieve)[0].astype(np.int64)


def _mobius_windows(limit: int):
    """Yield (d, mu(d)) for the squarefree d <= limit, one window of
    _WINDOW integers at a time: d ascending in int64, mu = +-1 in int8.

    In a window each prime p <= sqrt(limit) multiplies its multiples by -p
    and zeroes those of p^2.  A squarefree d is left with the product of its
    primes up to sqrt(limit), signed by their parity; it has at most one
    prime above that, present exactly where the product falls short of d.
    Memory is the primes and one window, whatever the limit.
    """
    primes = _primes_upto(math.isqrt(limit)).tolist()
    dtype = np.int32 if limit < 1 << 31 else np.int64  # |product| <= d
    for lo in range(1, limit + 1, _WINDOW):
        signed = np.ones(min(_WINDOW, limit + 1 - lo), dtype=dtype)
        for p in primes:
            signed[-lo % p :: p] *= -p
            signed[-lo % (p * p) :: p * p] = 0
        d = np.flatnonzero(signed != 0)  # a bool scan: twice as fast on int32
        signed, d = signed[d], d + lo
        # mu = +1 where the product is positive xor a prime is missing from it
        mu = ((signed > 0) ^ (np.abs(signed) < d)).view(np.int8) * np.int8(2)
        mu -= 1
        yield d, mu


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

    For m = 2 each k is divided by p^2 once per p^(2j) dividing it, one
    strided slice per power, and what remains is the squarefree part.
    Larger m extracts every exponent and multiplies the complements back in.
    """
    rem = np.arange(lo, hi, dtype=np.int64)
    if m == 2:
        for p in primes.tolist():
            pk = p * p
            while pk < hi:
                rem[-lo % pk :: pk] //= p * p
                pk *= p * p
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


def sieve_power_free_parts(limit: int, m: int) -> np.ndarray:
    """Array A with A[k] = power_free_part(k, m) for 1 <= k <= limit.

    A[0] is 0.  Work proceeds in windows of _WINDOW integers so the
    temporaries stay bounded; the output array itself is limit * 8 bytes.
    """
    if limit < 1:
        raise ValueError("limit must be >= 1")
    if m < 2:
        raise ValueError("m must be >= 2")
    if limit > 1 and (m - 1) * math.log2(limit) >= 63:
        raise ValueError("power-free parts would overflow 64-bit integers")
    out = np.zeros(limit + 1, dtype=np.int64)
    primes = _primes_upto(math.isqrt(limit))
    for lo in range(1, limit + 1, _WINDOW):
        hi = min(lo + _WINDOW, limit + 1)
        out[lo:hi] = _power_free_window(lo, hi, m, primes)
    return out


# ----------------------------------------------------------------------
# power classes and quadratic fields


_BMUN_MAX_ROOT = 1 << 25  # floor(B) cap, kept so the accepted domain is unchanged
_FIELDS_MAX_X = 1 << 30  # floor(X) cap, kept so the accepted domain is unchanged


def count_bmun(n: int, B: Bounds) -> Counts:
    """Classes of Q*/(Q*)^n of height at most log B.

    These are the n-power-free representatives N with |N| <= B^n; both
    signs occur for even n, positive representatives only for odd n.  They
    are counted by Moebius inversion over d up to the n-th root of B^n,
    which is floor(B), as one dot product per Moebius window and level.
    floor(B) may be at most 2^25; a larger bound raises ValueError before
    any work starts.
    """
    if n < 2:
        raise ValueError("n must be >= 2")

    def level(b: Fraction) -> Optional[int]:
        if b < 1:
            return None
        # floor(b)^n <= floor(b^n) < (floor(b) + 1)^n: the root is floor(b)
        if _floor(b) > _BMUN_MAX_ROOT:
            raise ValueError(
                f"count_bmun accepts floor(B) up to 2^25 = {_BMUN_MAX_ROOT}; got B = {b}"
            )
        return _floor(b**n)

    def count_levels(levels: list[int]) -> list[int]:
        roots = [_iroot(X, n) for X in levels]
        # int64 is exact below 2^62: every d^n <= X and the terms sum in
        # absolute value to at most zeta(2) X < 2^63; above, Python ints
        dtype = np.int64 if levels[-1] < 1 << 62 else object
        counts = [0] * len(levels)
        for d, mu in _mobius_windows(roots[-1]):
            dn = d.astype(dtype) ** n
            for i, cut in enumerate(np.searchsorted(d, roots, side="right").tolist()):
                counts[i] += int(mu[:cut] @ (levels[i] // dn[:cut]))
        return [2 * c if n % 2 == 0 else c for c in counts]

    return _schedule(B, level, count_levels)


def count_quadratic_fields(X: Bounds) -> Counts:
    """Quadratic fields with |discriminant| <= X.

    Counts squarefree d not in {0, 1}, with |d| <= X when d = 1 mod 4 and
    4|d| <= X otherwise, by Moebius inversion over odd k <= sqrt(X).
    floor(X) may be at most 2^30; a larger bound raises ValueError before
    any work starts.
    """

    def level(x: Fraction) -> Optional[int]:
        if _floor(x) > _FIELDS_MAX_X:
            raise ValueError(
                f"count_quadratic_fields accepts floor(X) up to 2^30 = "
                f"{_FIELDS_MAX_X}; got X = {x}"
            )
        return _floor(x) if x >= 3 else None

    def count_levels(levels: list[int]) -> list[int]:
        counts = [-1] * len(levels)  # d = 1 is not a field
        for k, mu in _mobius_windows(math.isqrt(levels[-1])):
            odd = k % 2 == 1
            mu, k2 = mu[odd], k[odd] ** 2
            for i, cut in enumerate(np.searchsorted(k2, levels, side="right").tolist()):
                # squarefree e = r mod 4 up to M: sum of mu(k) #{f <= M // k^2, f = r mod 4}
                # (k^2 | e forces k odd, and k^2 = 1 mod 8 keeps r).  Discriminant +-e: each
                # odd e <= X, as d = e = 1 or d = -e = 3 mod 4.  Discriminant +-4e: e <= X/4
                # with e = 2 mod 4 for both signs of d, e = 1 or 3 mod 4 for one
                x, y = levels[i] // k2[:cut], (levels[i] // 4) // k2[:cut]
                counts[i] += int(mu[:cut] @ ((x + 1) // 2 + y - y // 4 + (y + 2) // 4))
        return counts

    return _schedule(X, level, count_levels)


# ----------------------------------------------------------------------
# single stacky root of order 3 at 0: Phi_3(a) * max(a, b)^4 bounded


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
        top = levels[-1]
        R = _iroot(top, 4)
        phi3 = sieve_power_free_parts(R, 3)
        # a level T admits a only if its key Phi_3(a) a^4 <= T (no b works
        # otherwise: max(a, b) >= a); floats with a margin pick the candidates
        # for the top level, so every key is at most top (1 + 1e-9): int64
        # while top < 2^62, Python integers above
        a4 = np.arange(1, R + 1, dtype=np.float64) ** 4
        cand = np.flatnonzero(phi3[1:] * a4 <= top * (1 + 1e-9)) + 1
        wide = top >= 1 << 62
        f = phi3[cand].astype(object if wide else np.int64)
        key = f * cand.astype(f.dtype) ** 4
        order = np.argsort(key, kind="stable")
        cand, f, key = cand[order], f[order], key[order]
        # mu(d) d for the squarefree d dividing each candidate, candidate by
        # candidate, so the divisors of the candidates a level admits are a prefix
        signed, ends = [], [0]
        for a in cand.tolist():
            divs = [1]
            for p, _ in factor(a).factors:
                divs += [-d * p for d in divs]
            signed += divs
            ends.append(len(signed))
        signed = np.array(signed, dtype=np.int64)
        dv, mu = np.abs(signed), np.sign(signed)
        owner = np.repeat(np.arange(len(cand)), np.diff(ends))
        # at level T every b <= cap = floor((T // Phi_3(a))^(1/4)) coprime to
        # an admitted a counts (cap >= a); (1, 1) is counted once, via a = 1
        totals = []
        for T, k in zip(levels, np.searchsorted(key, levels, side="right").tolist()):
            if wide:
                cap = np.array([math.isqrt(math.isqrt(T // x)) for x in f[:k]], dtype=np.int64)
            else:
                cap = _iroot4_vec(T // f[:k])
            n = ends[k]
            totals.append(int(mu[:n] @ (cap[owner[:n]] // dv[:n])))
        return totals

    return _schedule(B, level, count_levels)


# ----------------------------------------------------------------------
# (2,2,2)-rooted line at 0, -1, infinity:
# sqf(a) sqf(b) sqf(a+b) max(a, b) < B^2 over coprime a, b >= 1.
#
# The key is symmetric in a and b, and the only coprime pair with a = b is
# (1, 1), whose key is 2.  So the kernel counts only a < b and the count at
# each level T >= 2 is twice that, plus 1.
#
# Write b = t y^2 and c = a + b = u z^2 with t = sqf(b), u = sqf(c), and
# s = sqf(a).  The key is s t u b, and s >= 1, so a counted pair has
# t u b <= T.  A row (t, u, y) fixes b and walks z over b < u z^2 < 2b,
# which is exactly 1 <= a = u z^2 - b < b.  Coprime a, b make t and u
# coprime.  Candidates are grouped by a into segments.  Writing a = s x^2,
# a counted pair has s a < s b <= T / (t u), so s x <= isqrt(T): only these
# near-squares can count, and a table over the segment holds s at them and
# 0 elsewhere.  A candidate passes where 1 <= s <= T // (t u b), its row's
# bound, tested on the values the candidates gather; for integers this is
# the same as the key being at most T.  Only those go on to the gcd test.
# Everything stays exact while the int64 square roots do: u z^2 < 2b <= 2T,
# so for 2T < 2^52.

_F222_CHUNK = 1 << 16  # candidates per pass; each int64 temporary is 512 kB
_F222_EXACT_LIMIT = 1 << 52  # _isqrt_vec is exact below this


def _f222_rows(T: int):
    """Row table (b, u, t u b, z0, zmax) over coprime squarefree (t, u) and y.

    Rows run through t, then u, then y in increasing order, with b = t y^2
    and t u b <= T.  Row z runs from z0 to zmax, the z with b < u z^2 < 2b;
    only rows where that span is nonempty are kept.
    """
    sqfree = np.concatenate([d for d, _ in _mobius_windows(math.isqrt(2 * T))])
    t = sqfree[: np.searchsorted(sqfree, math.isqrt(T), side="right")]
    # y >= 1 needs t^2 u <= T; some z needs u < 2b, so u^2 t < 2 t u b <= 2T
    ucap = np.minimum(T // (t * t), _isqrt_vec((2 * T - 1) // t))
    nuc = np.searchsorted(sqfree, ucap, side="right")
    t = np.repeat(t, nuc)
    u = sqfree[_ragged_arange(nuc)]
    coprime = np.gcd(t, u) == 1
    t, u = t[coprime], u[coprime]
    ylo = _isqrt_vec(u // (2 * t)) + 1  # the least y with 2 t y^2 > u
    lens = np.maximum(_isqrt_vec(T // (t * t * u)) - ylo + 1, 0)
    y = _ragged_arange(lens) + np.repeat(ylo, lens)
    t, u = np.repeat(t, lens), np.repeat(u, lens)
    b = t * y * y
    z0 = _isqrt_vec(b // u) + 1  # the least z with u z^2 > b
    zmax = _isqrt_vec((2 * b - 1) // u)
    keep = np.flatnonzero(z0 <= zmax)
    return b[keep], u[keep], (t * u * b)[keep], z0[keep], zmax[keep]


def _near_square_window(lo: int, hi: int, R: int) -> np.ndarray:
    """int32 table over v in [lo, hi): u at each v = u z^2 with u squarefree
    and u z <= R, 0 everywhere else.

    The entry at v is sqf(v) wherever it is nonzero.
    """
    u = np.concatenate([u for u, _ in _mobius_windows(R)])
    zlo = _isqrt_vec((lo - 1) // u) + 1
    zhi = np.minimum(R // u, _isqrt_vec((hi - 1) // u))
    lens = np.maximum(zhi - zlo + 1, 0)
    z = _ragged_arange(lens) + np.repeat(zlo, lens)
    u = np.repeat(u, lens)
    table = np.zeros(hi - lo, dtype=np.int32)
    table[u * z * z - lo] = u
    return table


def _f222_segment_count(lo: int, hi: int, levels: np.ndarray, rows) -> np.ndarray:
    """Counted points with a < b and a in [lo, hi), by level.

    levels is increasing and rows = (b, u, t u b, z0, zmax, alo, ahi) is
    _f222_rows(levels[-1]) with each row's least and largest a; entry i
    counts the points whose key sqf(a) t u b lies in (levels[i - 1],
    levels[i]].
    """
    rows_b, rows_u, rows_tub, z0, zmax, alo, ahi = rows
    T = int(levels[-1])
    sel = np.flatnonzero((alo < hi) & (ahi >= lo))
    zlo, zhi = z0[sel], zmax[sel]
    cut = np.flatnonzero(alo[sel] < lo)  # least z with u z^2 - b >= lo
    zlo[cut] = _isqrt_vec((lo - 1 + rows_b[sel[cut]]) // rows_u[sel[cut]]) + 1
    cut = np.flatnonzero(ahi[sel] >= hi)  # largest z with u z^2 - b < hi
    zhi[cut] = _isqrt_vec((hi - 1 + rows_b[sel[cut]]) // rows_u[sel[cut]])
    counts = np.maximum(zhi - zlo + 1, 0)  # a span may step over the segment
    near = _near_square_window(lo, hi, math.isqrt(T))

    hist = np.zeros(len(levels), dtype=np.int64)
    cum = np.cumsum(counts)
    start = 0
    while start < len(sel):
        base = int(cum[start - 1]) if start > 0 else 0
        end = int(np.searchsorted(cum, base + _F222_CHUNK, side="right"))
        end = min(max(end, start + 1), len(sel))
        reps = counts[start:end]
        ends = np.cumsum(reps)
        row = sel[start:end]
        # z runs from zlo upward within each row; a - lo = u z^2 - b - lo
        v = np.arange(int(ends[-1]), dtype=np.int64)
        v += np.repeat(zlo[start:end] - (ends - reps), reps)
        v *= v
        v *= np.repeat(rows_u[row], reps)
        v -= np.repeat(rows_b[row] + lo, reps)
        s = near[v]
        hit = np.flatnonzero((s != 0) & (s <= np.repeat(T // rows_tub[row], reps)))
        row = row[np.searchsorted(ends, hit, side="right")]
        a, b = v[hit] + lo, rows_b[row]
        coprime = np.gcd(a, b) == 1
        # s t u b <= T: no overflow
        key = s[hit][coprime] * rows_tub[row[coprime]]
        hist += np.bincount(np.searchsorted(levels, key), minlength=len(levels))
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
        seg_size = min(SEGMENT_SIZE, T)
        b, u, tub, z0, zmax = _f222_rows(T)
        rows = (b, u, tub, z0, zmax, u * z0 * z0 - b, u * zmax * zmax - b)
        levels_arr = np.array(levels, dtype=np.int64)

        def segment(lo: int) -> np.ndarray:
            return _f222_segment_count(lo, min(lo + seg_size, T + 1), levels_arr, rows)

        parts = _run_parallel(segment, range(1, T + 1, seg_size), threads)
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
# (which also forces |b| < 2Y): each (a, c) contributes 2 bmax + 1 forms,
# bmax = floor((p^2 - 1 + a c q^2) / (p q)).  With top = (p - 1) // q and
# c = i - top, a row a is one floor sum over i <= 2 top, and its offset
# p^2 - 1 - a q^2 top is at least 2 p - 2 >= 0 since a top q^2 <= (p - 1)^2.

_QP_NUMERATOR_LIMIT = 1 << 31  # kept so the accepted domain is unchanged
_QP_MAX_FLOOR = 1 << 23  # the totient tables take about 38 bytes per unit of floor(B^2)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """sum_{i < n} floor((a i + b) / m) for n, a, b >= 0 and m >= 1, by the
    reciprocity of floor sums (Concrete Mathematics 3.5): O(log m) steps."""
    total = 0
    while True:
        total += (a // m) * n * (n - 1) // 2 + (b // m) * n
        a, b = a % m, b % m
        y = a * n + b
        if y < m:  # every term left is 0
            return total
        n, b, m, a = y // m, y % m, a, m  # by reciprocity, the same sum


def _count_all_forms(p: int, q: int) -> int:
    """Forms a x^2 + b x + c (a >= 1, any b and c, reducible and imprimitive
    included) with Mahler measure below p/q, one floor sum per row a."""
    top = (p - 1) // q  # a and |c| are at most this
    rows = sum(
        _floor_sum(2 * top + 1, p * q, a * q * q, p * p - 1 - a * q * q * top)
        for a in range(1, top + 1)
    )
    return 2 * rows + top * (2 * top + 1)


def _count_reducible(T2s: Sequence[int]) -> list[int]:
    """Primitive reducible forms with a >= 1 and Mahler measure <= T2, for
    each T2 >= 1 of an increasing list.

    By Gauss's lemma these are the unordered pairs of primitive linear
    forms p x + q with p >= 1, and M(f g) = max(p, |q|) max(r, |s|).  There
    are L(1) = 3 linear forms of height 1 and L(h) = 4 phi(h) of height
    h >= 2, so the count is (sum_{h1 h2 <= T2} L(h1) L(h2) + sum_{h^2 <= T2}
    L(h)) / 2, one dot product per T2.
    """
    L = 4 * _totient_upto(T2s[-1])
    L[0], L[1] = 0, 3
    # int64 is exact: L(h) <= 4h and S[n] <= 4 n^2, so the dot product is at
    # most 16 T2^2 (1 + ln T2) < 2e16 at T2 = 2^23 (it reads 3.5e15 there)
    S = np.cumsum(L)  # S[n] = L(1) + ... + L(n)
    return [
        (int(L[1 : T2 + 1] @ S[T2 // np.arange(1, T2 + 1)]) + int(S[math.isqrt(T2)])) // 2
        for T2 in T2s
    ]


def count_quadratic_points(B: Bounds) -> Counts:
    """Degree-2 points of the line with multiplicative height below B.

    Equals twice the number of primitive irreducible integer quadratics
    with positive leading coefficient and Mahler measure strictly below
    X = B^2 (each form carries a conjugate pair of points).  All forms with
    M < X/d are counted with one floor sum per leading coefficient,
    primitive ones come from Moebius inversion over d (M(d f) = d M(f)),
    and the reducible ones are counted as pairs of linear factors.

    X = num/den must have den <= 1000, num < 2^31 and floor(X) <= 2^23 (B up
    to about 2 896); other bounds raise ValueError before any table is built.
    """

    def level(b: Fraction) -> Optional[Fraction]:
        if b <= 0:
            return None
        X = b * b  # Mahler measure bound
        if X.denominator > 1000:
            raise ValueError("the bound B^2 must have denominator at most 1000")
        if X.numerator >= _QP_NUMERATOR_LIMIT:
            raise ValueError(
                "count_quadratic_points keeps its accepted domain, the numerator "
                f"of B^2 below 2^31; got B^2 = {X}"
            )
        if _floor(X) > _QP_MAX_FLOOR:
            raise ValueError(f"count_quadratic_points caps floor(B^2) at 2^23; got B^2 = {X}")
        return X if X > 1 else None  # else no d fits below

    def count_levels(levels: list[Fraction]) -> list[int]:
        T2s = [_strict_floor(X) for X in levels]  # M < X/d needs d <= T2
        primitive = [0] * len(levels)
        for d, mu in _mobius_windows(T2s[-1]):
            cuts = np.searchsorted(d, T2s, side="right").tolist()
            for i, X in enumerate(levels):
                primitive[i] += sum(
                    m * _count_all_forms(X.numerator, X.denominator * k)
                    for k, m in zip(d[: cuts[i]].tolist(), mu[: cuts[i]].tolist())
                )
        return [2 * (p - r) for p, r in zip(primitive, _count_reducible(T2s))]

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


def _ap5_batch_hits(
    batch: list, u: np.ndarray, sqf: np.ndarray, expo: Fraction
) -> tuple[np.ndarray, np.ndarray]:
    """(a, d) of the hits among a batch of prefilter survivors.

    batch holds (a values, d, product of the primes p >= 5 of d) per step.
    A float pass keeps the rows whose tau product is below (a + 4d)^expo
    with a 1e-9 margin; those multiply in the primes of 6 rg of odd total
    exponent, and only rows within 1e-9 of the threshold are decided in
    Python integers.
    """
    a = np.concatenate([x for x, _, _ in batch])
    lens = [len(x) for x, _, _ in batch]
    d = np.repeat([d for _, d, _ in batch], lens)
    rg = np.gcd(a, np.repeat([r for _, _, r in batch], lens))
    taus = np.empty((5, len(a)), dtype=np.int64)
    prod = np.ones(len(a))
    for i in range(5):
        ui = u[a + i * d]
        taus[i] = ui // np.gcd(ui, rg)
        prod *= taus[i]
    thr = (a + 4 * d).astype(np.float64) ** float(expo)
    keep = prod < thr * (1 + 1e-9)
    a, d, rg, taus, prod, thr = a[keep], d[keep], rg[keep], taus[:, keep], prod[keep], thr[keep]
    primes_s = 6 * rg  # its prime set is {2, 3} and the primes of rg
    rest = np.ones(len(a), dtype=np.int64)  # squarefree, primes in primes_s
    for i in range(5):
        w = np.gcd(sqf[a + i * d], primes_s)
        g = np.gcd(rest, w)
        rest = (rest // g) * (w // g)  # primes of odd total exponent so far
    value = prod * rest
    hit = value < thr * (1 - 1e-9)
    for i in np.nonzero(~hit & (value < thr * (1 + 1e-9)))[0].tolist():
        exact = math.prod(taus[:, i].tolist()) * int(rest[i])
        hit[i] = _pow_lt(exact, int(a[i] + 4 * d[i]), expo)
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
