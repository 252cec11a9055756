import math
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stacky_heights.arith import (
    FactoredInt,
    _miller_rabin,
    _strong_lucas,
    factor,
    fundamental_discriminant,
    is_prime,
    mahler_measure_quadratic,
    ord_p,
    power_free_exponents,
    power_free_part,
    power_free_reduce,
    quadratic_field_discriminant,
    squarefree_part,
)

from oracles import mahler_measure_lt, td_is_prime, trial_division


def test_factor_examples():
    assert factor(1) == FactoredInt(1, ())
    assert factor(-1) == FactoredInt(-1, ())
    assert factor(12) == FactoredInt(1, ((2, 2), (3, 1)))
    assert factor(600851475143).factors == ((71, 1), (839, 1), (1471, 1), (6857, 1))
    assert factor(-600851475143).sign == -1
    assert factor(-600851475143).value() == int(factor(-600851475143)) == -600851475143


# Primes on both sides of 1000, where the small-prime strip hands over to
# the primality test and rho; n is built from exponents over this pool.
BOUNDARY_POOL = (2, 3, 991, 997, 1009, 1013, 999983, 10**9 + 7)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=len(BOUNDARY_POOL), max_size=len(BOUNDARY_POOL)))
@example([0, 0, 0, 0, 0, 0, 0, 0])  # 1
@example([0, 0, 0, 2, 0, 0, 0, 0])  # 997^2
@example([1, 0, 0, 1, 1, 0, 0, 0])  # 2 * 997 * 1009
@example([0, 0, 0, 1, 2, 0, 0, 0])  # 997 * 1009^2
def test_factor_across_the_1000_boundary(exponents):
    n = math.prod(p**e for p, e in zip(BOUNDARY_POOL, exponents))
    assert factor(n).factors == tuple((p, e) for p, e in zip(BOUNDARY_POOL, exponents) if e)


def test_factor_product_of_all_primes_below_1000():
    primes = [p for p in range(2, 1000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert factor(math.prod(primes)).factors == tuple((p, 1) for p in primes)
    assert factor(math.prod(primes) * 1009).factors == tuple((p, 1) for p in primes + [1009])


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor(0)


def test_factor_matches_trial_division():
    for n in [2**31 - 1, 2**32 + 1, 10**12 + 39, 999999999989, 2 * 3 * 5 * 7 * 11 * 13 * 17]:
        assert list(factor(n).factors) == trial_division(n)


def test_factor_reconstruct_exhaustive_to_1e6():
    # bijectivity on the full range: reconstruct(factor(n)) == n
    for n in range(1, 10**6 + 1):
        fi = factor(n)
        v = 1
        for p, e in fi.factors:
            v *= p**e
        if v != n:  # pragma: no cover - diagnostic
            raise AssertionError(f"factor broken at {n}: {fi}")


def test_factored_int_invariants():
    with pytest.raises(ValueError):
        FactoredInt(1, ((3, 1), (2, 1)))  # not increasing
    with pytest.raises(ValueError):
        FactoredInt(1, ((2, 0),))
    with pytest.raises(ValueError):
        FactoredInt(2, ())


def test_is_prime_deterministic_small():
    sieve = [True] * 2000
    sieve[0] = sieve[1] = False
    for p in range(2, 2000):
        if sieve[p]:
            for k in range(2 * p, 2000, p):
                sieve[k] = False
    assert [n for n in range(2000) if is_prime(n)] == [n for n in range(2000) if sieve[n]]
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


# The bound psi_k of each Miller-Rabin witness tier, the least strong
# pseudoprime to the first k primes (OEIS A014233), with its prime factors.
PSI_BOUNDS = [
    (2047, (23, 89)),
    (1373653, (829, 1657)),
    (25326001, (2251, 11251)),
    (3215031751, (151, 751, 28351)),
    (2152302898747, (6763, 10627, 29947)),
    (3474749660383, (1303, 16927, 157543)),
    (341550071728321, (10670053, 32010157)),
    (3825123056546413051, (149491, 747451, 34233211)),
    (318665857834031151167461, (399165290221, 798330580441)),  # psi_12
    (3317044064679887385961981, (1287836182261, 2575672364521)),  # psi_13
]


@pytest.mark.parametrize("bound, primes", PSI_BOUNDS, ids=[str(b) for b, _ in PSI_BOUNDS])
def test_tier_bounds_are_composite(bound, primes):
    assert math.prod(primes) == bound and all(td_is_prime(p) for p in primes)
    assert not is_prime(bound)
    assert factor(bound).factors == tuple((p, 1) for p in primes)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([b for b, _ in PSI_BOUNDS if b < 2**32]), st.integers(-5000, 5000))
def test_is_prime_around_tier_bounds(bound, offset):
    assert is_prime(bound + offset) == td_is_prime(bound + offset)


# A composite built to pass fixed Miller-Rabin bases: each p_i = 3 mod 4
# with (a/p_i) = -1 for a = 2 and every odd prime a < 100, so N is a strong
# pseudoprime to every base below 100.  The product proves N composite;
# factor(N) would need rho to find a 147-bit prime, about 2^73 steps.
P1 = 90496850231252875860102296863636773599118283
CONSTRUCTED = P1 * (101 * (P1 - 1) + 1) * (113 * (P1 - 1) + 1)


def test_constructed_strong_pseudoprime_is_composite():
    assert CONSTRUCTED > PSI_BOUNDS[-1][0] and CONSTRUCTED.bit_length() == 452
    assert all(_miller_rabin(CONSTRUCTED, (a,)) for a in range(2, 100))
    assert not is_prime(CONSTRUCTED)
    with pytest.raises(ValueError, match="is not prime"):
        ord_p(7 * CONSTRUCTED, CONSTRUCTED)
    assert is_prime(P1)


def _lucas_by_recurrence(n):
    """The strong Lucas test of odd non-square n from its definition: D from
    Euler's criterion on the primes of n, U_k and V_k step by step."""

    def jacobi(a):
        out = 1
        for p, e in trial_division(n):
            r = pow(a % p, (p - 1) // 2, p)
            out *= (0 if r == 0 else 1 if r == 1 else -1) ** e
        return out

    D = next(d for k in range(2, n + 2) if jacobi(d := (-1) ** k * (2 * k + 1)) != 1)
    if jacobi(D) == 0:
        return n == abs(D)
    Q = (1 - D) // 4
    U, V = [0, 1], [2, 1]  # P = 1
    for k in range(2, n + 2):
        U.append((U[k - 1] - Q * U[k - 2]) % n)
        V.append((V[k - 1] - Q * V[k - 2]) % n)
    s = 0
    while (n + 1) % 2 ** (s + 1) == 0:
        s += 1
    d = (n + 1) >> s
    return U[d] % n == 0 or any(V[d << r] % n == 0 for r in range(s))


def test_strong_lucas_matches_its_definition():
    for n in range(3, 3000, 2):
        if math.isqrt(n) ** 2 != n:
            assert _strong_lucas(n) == _lucas_by_recurrence(n), n


# strong Lucas pseudoprimes (OEIS A217255) and strong base-2 pseudoprimes
# (OEIS A001262): each passes one half of Baillie-PSW and fails the other
LUCAS_PSEUDOPRIMES = (5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309, 58519)
BASE2_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321)


def test_baillie_psw_rejects_pseudoprimes_of_either_half(monkeypatch):
    import stacky_heights.arith as arith

    assert all(_strong_lucas(n) for n in LUCAS_PSEUDOPRIMES)
    assert all(_miller_rabin(n, (2,)) for n in BASE2_PSEUDOPRIMES)
    # with no proven tier every n takes the Baillie-PSW branch
    monkeypatch.setattr(arith, "_MR_TIERS", ())
    for n in LUCAS_PSEUDOPRIMES + BASE2_PSEUDOPRIMES:
        assert not td_is_prime(n) and not arith._prime_test(n), n
    # squares of the Wieferich primes are strong base-2 pseudoprimes, and no
    # Selfridge D exists for a square: the Lucas half rejects them first
    for n in (1093**2, 3511**2):
        assert _miller_rabin(n, (2,)) and not _strong_lucas(n) and not arith._prime_test(n)
    assert [n for n in range(3, 5000, 2) if arith._prime_test(n)] == [
        n for n in range(3, 5000, 2) if td_is_prime(n)
    ]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_factor_products_of_primes_above_1000(data):
    # n < 10^12 built from primes above 1000 (found by trial division), so
    # its factorization is known by construction; a repeat gives a power
    primes, n = [], 1
    while 1009 * n < 10**12 and (not primes or data.draw(st.booleans())):
        if primes and data.draw(st.booleans()):
            p = primes[-1]
        else:
            p = data.draw(st.integers(1001, min(10**12 // n, 10**9)))
            while not td_is_prime(p):
                p += 1
        if p * n >= 10**12:
            break
        primes.append(p)
        n *= p
    assert factor(n).factors == tuple(sorted(Counter(primes).items()))


def test_ord_examples():
    assert ord_p(12, 2) == 2
    assert ord_p(12, 5) == 0
    assert ord_p(972, 3) == 5
    with pytest.raises(ValueError):
        ord_p(12, 4)
    with pytest.raises(ValueError):
        ord_p(0, 2)


def smallest_complement(n, m):
    """Brute-force oracle: least k >= 1 with |n| * k a perfect m-th power."""
    n = abs(n)
    k = 1
    while True:
        v = n * k
        r = round(v ** (1.0 / m))
        if any(t**m == v for t in (r - 1, r, r + 1)):
            return k
        k += 1


def test_power_free_part_examples():
    assert power_free_part(12, 2) == 3
    assert power_free_part(12, 3) == 18
    assert power_free_part(8, 4) == 2
    assert power_free_part(-12, 2) == 3  # sign ignored
    # c^3 d1 d2^2 -> d1^2 d2 for coprime squarefree d1, d2
    for c, d1, d2 in [(2, 3, 5), (1, 6, 35), (7, 2, 15), (3, 10, 7)]:
        assert power_free_part(c**3 * d1 * d2**2, 3) == d1**2 * d2


def test_power_free_part_against_bruteforce():
    # the brute-force search is O(complement), so cap the ranges per power
    cases = [(n, 2) for n in range(1, 300)]
    cases += [(n, 3) for n in range(1, 100)]
    cases += [(n, 4) for n in range(1, 40)]
    cases += [(720, 2), (720, 3), (1024, 3), (1024, 4), (59049, 4)]
    for n, m in cases:
        assert power_free_part(n, m) == smallest_complement(n, m), (n, m)


@settings(max_examples=200)
@given(st.integers(min_value=-(10**9), max_value=10**9).filter(bool), st.integers(2, 6))
def test_power_free_part_properties(n, m):
    phi = power_free_part(n, m)
    v = abs(n) * phi
    r = round(v ** (1.0 / m))
    # |n| * phi is a perfect m-th power (integer root search around float root)
    assert any(t**m == v for t in range(max(0, r - 2), r + 3)), (n, m)
    # phi is m-power-free
    assert all(e < m for _, e in factor(phi).factors) if phi > 1 else True


@settings(max_examples=200)
@given(st.integers(min_value=-(10**9), max_value=10**9).filter(bool), st.integers(2, 6))
def test_power_free_reduce_properties(n, m):
    M, k = power_free_reduce(n, m)
    assert M * k**m == n
    assert (M > 0) == (n > 0)
    assert all(e < m for _, e in factor(M).factors) if abs(M) > 1 else True


def test_power_free_reduce_examples():
    assert power_free_reduce(144, 3) == (18, 2)
    assert power_free_reduce(7, 5) == (7, 1)
    assert power_free_reduce(-32, 2) == (-2, 4)


@pytest.mark.parametrize("fn", [power_free_exponents, power_free_reduce])
@pytest.mark.parametrize("n, m, message", [(0, 2, "of 0"), (12, 1, "m must be >= 2")])
def test_power_free_rejects_zero_and_small_m(fn, n, m, message):
    with pytest.raises(ValueError, match=message):
        fn(n, m)


def test_squarefree_part_examples():
    assert squarefree_part(12) == 3
    assert squarefree_part(5) == 5
    assert squarefree_part(36) == 1


def test_fundamental_discriminant():
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(-3) == -3
    with pytest.raises(ValueError):
        fundamental_discriminant(12)  # not squarefree
    with pytest.raises(ValueError):
        fundamental_discriminant(1)
    with pytest.raises(ValueError):
        fundamental_discriminant(0)
    assert quadratic_field_discriminant(-12) == -3
    with pytest.raises(ValueError, match="36 is a square"):
        quadratic_field_discriminant(36)


def test_fundamental_discriminant_against_table():
    # a fundamental discriminant is 1 mod 4 and squarefree, or 4d with
    # d = 2, 3 mod 4 squarefree; enumerate both lists independently
    expected = set()
    for D in range(-400, 401):
        if D in (0, 1):
            continue
        if D % 4 == 1 and all(e == 1 for _, e in factor(D).factors):
            expected.add(D)
        if D % 4 == 0:
            d = D // 4
            if d % 4 in (2, 3) and all(e == 1 for _, e in factor(d).factors):
                expected.add(D)
    got = set()
    for d in range(-400, 401):
        if d in (0, 1) or any(e > 1 for _, e in factor(d).factors if d != 0):
            continue
        D = fundamental_discriminant(d)
        if abs(D) <= 400:
            got.add(D)
    assert got == expected


def test_mahler_examples():
    assert math.isclose(mahler_measure_quadratic(1, 0, -2), 2, rel_tol=1e-12)
    assert math.isclose(mahler_measure_quadratic(1, 0, 1), 1, rel_tol=1e-12)
    assert math.isclose(mahler_measure_quadratic(2, 0, -1), 2, rel_tol=1e-12)
    phi = (1 + 5**0.5) / 2
    assert math.isclose(mahler_measure_quadratic(1, -1, -1), phi, rel_tol=1e-12)
    with pytest.raises(ValueError):
        mahler_measure_quadratic(0, 1, 1)


def roots_measure(a, b, c):
    import cmath

    disc = complex(b * b - 4 * a * c)
    r1 = (-b + cmath.sqrt(disc)) / (2 * a)
    r2 = (-b - cmath.sqrt(disc)) / (2 * a)
    return abs(a) * max(1, abs(r1)) * max(1, abs(r2))


@settings(max_examples=300)
@given(
    st.integers(-50, 50).filter(bool),
    st.integers(-100, 100),
    st.integers(-100, 100),
)
def test_mahler_against_roots(a, b, c):
    m = mahler_measure_quadratic(a, b, c)
    assert math.isclose(m, roots_measure(a, b, c), rel_tol=1e-9)
    g = math.gcd(math.gcd(a, b), c)
    if g == 1:
        assert m >= 1 - 1e-12


def test_mahler_equals_lead_when_roots_inside():
    # both roots in the closed unit disk
    for a, b, c in [(4, 0, 1), (5, 2, 1), (3, 3, 1), (7, 0, -7)]:
        assert math.isclose(mahler_measure_quadratic(a, b, c), abs(a), rel_tol=1e-12)


@settings(max_examples=300)
@given(
    st.integers(-30, 30).filter(bool),
    st.integers(-60, 60),
    st.integers(-60, 60),
    st.integers(1, 50),
    st.integers(1, 9),
)
def test_mahler_lt_agrees_with_float(a, b, c, num, den):
    from fractions import Fraction

    bound = Fraction(num, den)
    m = mahler_measure_quadratic(a, b, c)
    if abs(m - float(bound)) > 1e-6:
        assert mahler_measure_lt(a, b, c, bound) == (m < float(bound))


# Known primes above 1000: 10^6 + 3, a cube-class prime, 10^9 + 7 and the
# Mersenne primes 2^31 - 1 and 2^61 - 1.
BIG_PRIMES = [1_000_003, 899_080_667, 10**9 + 7, 2**31 - 1, 2**61 - 1]
# Cofactors below 1000 with their factorizations written out by hand.
SMALL_COFACTORS = [(1, {}), (27, {3: 3}), (52, {2: 2, 13: 1})]


@pytest.fixture
def rho_calls(monkeypatch):
    """The n of every arith._brent_rho(n) call made from here on."""
    import stacky_heights.arith as arith

    real = arith._brent_rho
    calls: list[int] = []

    def spy(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(arith, "_brent_rho", spy)
    return calls


@pytest.mark.parametrize("p", BIG_PRIMES)
def test_factor_prime_powers_exactly_without_rho(p, rho_calls):
    for k in range(2, 8):
        for s, s_factors in SMALL_COFACTORS:
            expected = sorted({**s_factors, p: k}.items())
            assert list(factor(s * p**k).factors) == expected, (p, k, s)
            assert list(factor(-s * p**k).factors) == expected, (p, k, s)
    assert rho_calls == []


@pytest.mark.parametrize(
    "p, q", [(1_000_003, 899_080_667), (10**9 + 7, 2**31 - 1), (1009, 2**61 - 1)]
)
def test_factor_products_of_large_primes_still_split_by_rho(p, q, rho_calls):
    assert list(factor((p * q) ** 6).factors) == [(p, 6), (q, 6)]
    assert rho_calls == [p * q]  # the sixth root, never the power
    rho_calls.clear()
    assert list(factor(p * p * q).factors) == [(p, 2), (q, 1)]
    assert list(factor(27 * p * q * q).factors) == [(3, 3), (p, 1), (q, 2)]
    assert rho_calls
