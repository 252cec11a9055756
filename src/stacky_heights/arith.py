"""Exact integer arithmetic: factorization, valuations, power-free parts.

Everything here is deterministic and exact except mahler_measure_quadratic,
which returns a float with relative error well below 1e-12.

Factorization strategy: the primes below 1000 dividing n come from trial
division of g = gcd(n, their product) while p^2 <= g, and are stripped from
n; then Brent-cycle Pollard rho with deterministic primality testing, run
once per cofactor.  Before rho, a composite cofactor is tested
for being a perfect power r^k with integer k-th roots: every prime factor
now exceeds 1000, so only prime k with 1000^k <= n can occur, and a hit
factors r with the exponent multiplied by k.  So p^k costs a few roots
where rho would take about sqrt(p) steps.

Below psi_13 ~ 3.3e24, Miller-Rabin uses the smallest witness set proven
for the size of n: the first k primes decide every n below psi_k, the
least strong pseudoprime to all of them (Jaeschke, Math. Comp. 61 (1993);
Sorenson and Webster, Math. Comp. 86 (2017); OEIS A014233).  Above it the
test is Baillie-PSW, a strong base-2 test and a strong Lucas test with
Selfridge's parameters (Baillie and Wagstaff, Math. Comp. 35 (1980);
Baillie, Fiori and Wagstaff, Math. Comp. 90 (2021)).  No composite is known
to pass it, unlike any fixed set of bases, but that is not a proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FactoredInt",
    "factor",
    "is_prime",
    "ord_p",
    "power_free_exponents",
    "power_free_part",
    "power_free_reduce",
    "squarefree_part",
    "quadratic_field_discriminant",
    "fundamental_discriminant",
    "mahler_measure_quadratic",
]

# A cofactor below this left by the small-prime strip is prime (10^6 = 1000^2).
_TRIAL_LIMIT = 10**6

def _small_primes(bound: int) -> list[int]:
    sieve = bytearray([1]) * (bound + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = b"\x00" * len(sieve[p * p :: p])
    return [i for i in range(2, bound + 1) if sieve[i]]

_PRIMES_1K = _small_primes(1000)
_PRIMORIAL_1K = math.prod(_PRIMES_1K)
# Below 150^2 a cofactor with no prime below 150 is prime, so a small n takes
# its gcd with this 190-bit product instead of the 1 400-bit one.
_SMALL_N = 150**2
_PRIMORIAL_150 = math.prod(p for p in _PRIMES_1K if p < 150)

# (psi_k, the first k primes): those witnesses decide every n < psi_k.
# psi_7 = psi_8 and psi_9 = psi_10 = psi_11, so those tiers merge.
_MR_TIERS = (
    (2_047, (2,)),
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (3_215_031_751, (2, 3, 5, 7)),
    (2_152_302_898_747, (2, 3, 5, 7, 11)),
    (3_474_749_660_383, (2, 3, 5, 7, 11, 13)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
    (3_317_044_064_679_887_385_961_981, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)),
)


def _miller_rabin(n: int, witnesses) -> bool:
    """Strong probable-prime test of odd n > 2 to each of the witnesses."""
    d = n - 1
    r = (d & -d).bit_length() - 1
    d >>= r
    for a in witnesses:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    t = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                t = -t
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            t = -t
        a %= n
    return t if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of odd n > 1 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, it passes when U_d = 0 or
    V_{d 2^r} = 0 mod n for some 0 <= r < s."""
    if math.isqrt(n) ** 2 == n:
        return False  # (D/n) is never -1
    D = 5
    while (j := _jacobi(D, n)) == 1:
        D = 2 - D if D < 0 else -D - 2
    if j == 0:  # D shares a factor with n
        return n == abs(D)
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 1, 1, Q % n  # U_k, V_k, Q^k at k = 1, then k -> 2k (+ 1) by the bits of d
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":  # k -> k + 1: U = (U + V)/2, V = (D U + V)/2 mod odd n
            U, V = U + V, D * U + V
            U, V = (U + n * (U & 1)) // 2 % n, (V + n * (V & 1)) // 2 % n
            Qk = Qk * Q % n
    if U == 0:
        return True
    for _ in range(s):
        if V == 0:
            return True
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
    return False


def _prime_test(n: int) -> bool:
    """Primality of odd n > 2: Miller-Rabin to the witnesses of its tier, a
    proof below psi_13, and above it Baillie-PSW (see the module docstring)."""
    for bound, witnesses in _MR_TIERS:
        if n < bound:
            return _miller_rabin(n, witnesses)
    return _miller_rabin(n, (2,)) and _strong_lucas(n)


def is_prime(n: int) -> bool:
    """Trial division by the primes to 37, then Miller-Rabin with the
    witness tier of n: a proof below psi_13 ~ 3.3e24, and above it
    Baillie-PSW, not a proof (see the module docstring)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    return _prime_test(n)


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0, by integer Newton from above."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    r = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        s = ((k - 1) * r + n // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    # Deterministic parameter schedule; n is composite so this terminates.
    c = 1
    while True:
        x = y = 2
        d = 1
        q = 1
        m = 128
        r = 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and d == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                d = math.gcd(q, n)
                k += m
            r <<= 1
        if d == n:
            # Backtrack one step at a time.
            d = 1
            while d == 1:
                ys = (ys * ys + c) % n
                d = math.gcd(x - ys, n)
        if d != n:
            return d
        c += 1


def _factor_into(n: int, out: dict[int, int], mult: int = 1) -> None:
    """Add mult times the factorization of n > 1 to out; n has no prime
    factor below 1000 (or is below 150^2 with none below 150, so prime),
    so n = r^k needs prime k with 1000^k <= n."""
    if n < _TRIAL_LIMIT or _prime_test(n):
        out[n] = out.get(n, 0) + mult
        return
    for k in _PRIMES_1K:
        if 1000**k > n:
            break
        r = _iroot(n, k)
        if r**k == n:
            _factor_into(r, out, mult * k)
            return
    d = _brent_rho(n)
    _factor_into(d, out, mult)
    _factor_into(n // d, out, mult)


def _factor_abs(n: int) -> tuple[tuple[int, int], ...]:
    """Factorization of n >= 1 as a sorted tuple of (prime, exponent)."""
    # the primes below 1000 (below 150 for n < 150^2) dividing n, each once
    g = math.gcd(n, _PRIMORIAL_150 if n < _SMALL_N else _PRIMORIAL_1K)
    small = []
    for p in _PRIMES_1K:
        if p * p > g:
            break
        if g % p == 0:
            small.append(p)
            g //= p
    if g > 1:  # g has no prime factor up to its square root, so it is prime
        small.append(g)
    fs = []
    for p in small:  # ascending, and below every prime of the cofactor
        n //= p
        e = 1
        while n % p == 0:
            n //= p
            e += 1
        fs.append((p, e))
    if n > 1:
        out: dict[int, int] = {}
        _factor_into(n, out)
        fs += sorted(out.items())
    return tuple(fs)


@dataclass(frozen=True)
class FactoredInt:
    """A nonzero integer as sign * product(p^e), primes strictly increasing."""

    sign: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        prev = 1
        for p, e in self.factors:
            if p <= prev:
                raise ValueError("primes must be strictly increasing")
            if e < 1:
                raise ValueError("exponents must be >= 1")
            prev = p

    @classmethod
    def _from_sorted(cls, sign: int, factors: tuple[tuple[int, int], ...]) -> "FactoredInt":
        """Wrap factors already known to be valid, unchecked."""
        f = cls.__new__(cls)
        object.__setattr__(f, "sign", sign)
        object.__setattr__(f, "factors", factors)
        return f

    def value(self) -> int:
        v = self.sign
        for p, e in self.factors:
            v *= p**e
        return v

    def __int__(self) -> int:
        return self.value()


def factor(n: int) -> FactoredInt:
    """Factor a nonzero integer; deterministic."""
    if n == 0:
        raise ValueError("cannot factor 0")
    return FactoredInt._from_sorted(1 if n > 0 else -1, _factor_abs(abs(n)))


def ord_p(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer n at a prime p."""
    if n == 0:
        raise ValueError("ord_p(0, p) is undefined")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def power_free_exponents(n: int | FactoredInt, m: int) -> list[tuple[int, int]]:
    """The pairs (p, r) with r = (-ord_p n) mod m > 0, from one factorization
    of n (or from n itself, given as a FactoredInt): |n| * prod(p^r) is the
    least m-th power that |n| divides; m >= 2."""
    if n == 0:
        raise ValueError("power_free_part of 0 is undefined")
    if m < 2:
        raise ValueError("m must be >= 2")
    fs = n.factors if isinstance(n, FactoredInt) else factor(n).factors
    return [(p, -e % m) for p, e in fs if e % m]


def power_free_part(n: int, m: int) -> int:
    """Smallest positive k such that |n| * k is a perfect m-th power.

    The result is m-power-free; m >= 2.  Signs are ignored: the value depends
    on |n| only, so this can be applied to (possibly negative) values of
    linear forms.
    """
    return math.prod(p**r for p, r in power_free_exponents(n, m))


def power_free_reduce(n: int, m: int) -> tuple[int, int]:
    """Write n = M * k^m with |M| m-power-free and sign(M) = sign(n)."""
    if n == 0:
        raise ValueError("power_free_reduce of 0 is undefined")
    if m < 2:
        raise ValueError("m must be >= 2")
    k = math.prod(p ** (e // m) for p, e in factor(n).factors)
    return n // k**m, k


def squarefree_part(n: int) -> int:
    """Squarefree part of |n| (power_free_part with m = 2)."""
    return power_free_part(n, 2)


def quadratic_field_discriminant(n: int) -> int:
    """Discriminant of Q(sqrt(n)), n not a square, from one factorization of
    n: d when d = 1 mod 4, else 4d, with d the squarefree part of n signed
    like n."""
    d = squarefree_part(n) * (1 if n > 0 else -1)
    if d == 1:
        raise ValueError(f"{n} is a square")
    return d if d % 4 == 1 else 4 * d


def fundamental_discriminant(d: int) -> int:
    """Discriminant of the quadratic field attached to a squarefree d != 0, 1.

    Checks d, for values from outside the program; returns d when d = 1 mod
    4, else 4d.
    """
    if d in (0, 1):
        raise ValueError("d must not be 0 or 1")
    if any(e > 1 for _, e in factor(d).factors):
        raise ValueError(f"{d} is not squarefree")
    return d if d % 4 == 1 else 4 * d


def _mahler_squared(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Exact data (q, r, s) with 4 * M(ax^2+bx+c)^2 = q + r*sqrt(s), s >= 0.

    Case analysis on the roots: if both lie in the closed unit disk the
    measure is |a|; if both lie outside the open disk it is |c|; otherwise
    it is (|b| + sqrt(disc)) / 2 for real roots.  Complex pairs have
    |root|^2 = c/a, giving max(|a|, |c|).
    """
    if a == 0:
        raise ValueError("leading coefficient must be nonzero")
    disc = b * b - 4 * a * c
    A, B, C = abs(a), abs(b), abs(c)
    if disc < 0:
        m = max(A, C)
        return 4 * m * m, 0, 0
    # both roots in closed unit disk <=> |b| + sqrt(disc) <= 2|a|
    if B <= 2 * A and disc <= (2 * A - B) ** 2:
        return 4 * A * A, 0, 0
    # both roots outside open unit disk <=> |b| + sqrt(disc) <= 2|c|
    if B <= 2 * C and disc <= (2 * C - B) ** 2:
        return 4 * C * C, 0, 0
    # M = (|b| + sqrt(disc)) / 2, so 4 M^2 = b^2 + disc + 2|b| sqrt(disc)
    return B * B + disc, 2 * B, disc


def mahler_measure_quadratic(a: int, b: int, c: int) -> float:
    """Mahler measure |a| * max(1,|root1|) * max(1,|root2|) of ax^2+bx+c."""
    q, r, s = _mahler_squared(a, b, c)
    return math.sqrt(q + r * math.sqrt(s)) / 2.0
