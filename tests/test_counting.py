import functools
import json
import math
import random
import sys
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stacky_heights.arith import factor, power_free_part
from stacky_heights.counting import (
    CountReport,
    _count_reducible,
    _f222_rows,
    _floor_sum,
    _iroot,
    _iroot4_vec,
    _mobius_windows,
    _near_square_window,
    _prime_divisors_from_5,
    count_bmun,
    count_football222,
    count_quadratic_fields,
    count_quadratic_points,
    count_rooted3_at_0,
    fit_exponents,
    sieve_power_free_parts,
    vojta_search_444,
    vojta_search_ap5,
)

from oracles import (
    mahler_measure_lt,
    naive_ap5,
    naive_bmun,
    naive_f222_rows,
    naive_football222,
    naive_quadratic_fields,
    naive_quadratic_points,
    naive_rooted3,
    naive_v444,
)

# ----------------------------------------------------------------------


def test_sieve_examples():
    assert list(sieve_power_free_parts(12, 2)[1:]) == [1, 2, 3, 1, 5, 6, 7, 2, 1, 10, 11, 3]
    assert list(sieve_power_free_parts(4, 3)[1:]) == [1, 4, 9, 2]
    assert list(sieve_power_free_parts(1, 7)[1:]) == [1]
    with pytest.raises(ValueError):
        sieve_power_free_parts(0, 2)
    with pytest.raises(ValueError):
        sieve_power_free_parts(10, 1)
    with pytest.raises(ValueError):
        sieve_power_free_parts(10**6, 6)  # would overflow 64-bit entries


def test_sieve_matches_per_element():
    rng = random.Random(0)
    for m in (2, 3, 4, 5):
        table = sieve_power_free_parts(20000, m)
        for _ in range(300):
            k = rng.randint(1, 20000)
            assert int(table[k]) == power_free_part(k, m), (m, k)


def _sieve_in_windows(n, m, size):
    """sieve_power_free_parts(n, m) with windows of size integers."""
    from stacky_heights import counting

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(counting, "_WINDOW", size)
        return sieve_power_free_parts(n, m)


def test_sieve_segmentation_equivalence():
    # window sizes not aligned to p^2 start windows mid-period
    for m in (2, 3, 4):
        full = sieve_power_free_parts(5000, m)
        for size in (257, 4096):
            assert np.array_equal(full, _sieve_in_windows(5000, m, size)), (m, size)
        assert [int(v) for v in full[1:]] == [power_free_part(k, m) for k in range(1, 5001)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000), size=st.integers(1, 600))
def test_sieve_squarefree_matches_per_element_property(n, size):
    table = _sieve_in_windows(n, 2, size)
    assert [int(v) for v in table[1:]] == [power_free_part(k, 2) for k in range(1, n + 1)]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 3000), m=st.integers(3, 5), size=st.integers(1, 600))
def test_sieve_power_free_matches_per_element_property(n, m, size):
    table = _sieve_in_windows(n, m, size)
    assert [int(v) for v in table[1:]] == [power_free_part(k, m) for k in range(1, n + 1)]


def _mobius(d):
    fs = factor(d).factors
    return 0 if any(e > 1 for _, e in fs) else (-1) ** len(fs)


def _window_pairs(limit):
    """(d, mu(d)) from every window, checking each window's shape."""
    from stacky_heights import counting

    pairs, windows = [], 0
    for d, mu in _mobius_windows(limit):
        assert d.dtype == np.int64 and mu.dtype == np.int8
        lo = windows * counting._WINDOW + 1
        assert all(lo <= k < lo + counting._WINDOW for k in d.tolist())
        pairs += zip(d.tolist(), mu.tolist())
        windows += 1
    assert windows == -(-limit // counting._WINDOW)
    return pairs


def test_mobius_windows_match_factor(monkeypatch):
    from stacky_heights import counting

    ref = [(d, _mobius(d)) for d in range(1, 3001) if _mobius(d)]
    for limit in range(3001):
        assert _window_pairs(limit) == [r for r in ref if r[0] <= limit], limit
    for size in (1, 7):
        monkeypatch.setattr(counting, "_WINDOW", size)
        for limit in (0, 1, 2, 63, 64, 65, 2999, 3000):
            assert _window_pairs(limit) == [r for r in ref if r[0] <= limit], (size, limit)


def test_mobius_windows_peak_memory():
    # one window at a time: the peak does not grow with the limit
    import tracemalloc

    def peak(limit):
        tracemalloc.start()
        try:
            for _ in _mobius_windows(limit):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(1 << 20), peak(1 << 22)
    assert large <= 1.1 * small, (small, large)


def test_count_kernels_agree_across_window_sizes(monkeypatch):
    from stacky_heights import counting

    calls = [
        (count_bmun, 2, [1, 10, 300, 1000]),
        (count_bmun, 3, [F(7, 2), 50, 999]),
        (count_bmun, 5, [7, 100, 5000]),  # int64: 5000^5 < 2^62
        (count_bmun, 5, [7, 100, 5500]),  # Python ints: 5500^5 >= 2^62
        (count_quadratic_fields, [3, 10, F(999, 2), 10**6]),
        (count_quadratic_points, [F(3, 2), 2, 5, 11]),
        (count_football222, [2, 10, 100, 300]),
    ]
    assert F(5500) ** 5 >= 2**62 > F(5000) ** 5
    expected = [fn(*args) for fn, *args in calls]
    for size in (1, 7):
        monkeypatch.setattr(counting, "_WINDOW", size)
        assert [fn(*args) for fn, *args in calls] == expected, size


def test_prime_divisors_from_5_matches_factor():
    table = _prime_divisors_from_5(5000)
    assert table[0] == []
    for d in range(1, 5001):
        assert table[d] == [p for p, _ in factor(d).factors if p >= 5], d


@pytest.mark.parametrize("T", [2, 8, 99, 22_499, 1_439_999])
def test_f222_rows_match_plain_loops(T):
    rows = list(zip(*(col.tolist() for col in _f222_rows(T))))
    assert rows == naive_f222_rows(T)


def test_f222_segment_count_exact_where_the_row_bound_passes_2_31():
    from stacky_heights import counting

    # at T = 2^40 the row bound T // (t u b) passes 2^31 wherever t u b <=
    # 512, first at b = 2, t = 2, u = 3; rows built by hand for b < 50
    T = 2**40
    rows = []
    for b in range(2, 50):
        t = power_free_part(b, 2)
        for u in range(1, 2 * b):
            zs = [z for z in range(1, b) if b < u * z * z < 2 * b]
            if zs and power_free_part(u, 2) == u and math.gcd(t, u) == 1:
                z0, zmax = zs[0], zs[-1]
                rows.append((b, u, t * u * b, z0, zmax, u * z0 * z0 - b, u * zmax * zmax - b))
    assert T // (2 * 3 * 2) >= 2**31 and (2, 3, 12) in [r[:3] for r in rows]
    rows = tuple(np.array(col, dtype=np.int64) for col in zip(*rows))
    keys = [
        power_free_part(a, 2) * power_free_part(b, 2) * power_free_part(a + b, 2) * b
        for b in range(2, 50)
        for a in range(1, b)
        if math.gcd(a, b) == 1
    ]
    hist = counting._f222_segment_count(1, 50, np.array([5000, T]), rows)
    assert hist.tolist() == [sum(k <= 5000 for k in keys), sum(k > 5000 for k in keys)]


@pytest.mark.parametrize(
    "segment_size, B, T, want", [(7, 12, 143, 31), (None, 300, 89_999, 3597)]
)
@pytest.mark.parametrize("threads", [1, 2])
def test_count_football222_tables_span_no_value_above_T(
    monkeypatch, segment_size, B, T, want, threads
):
    # a < b and t u b <= T put every counted a in [1, T], and s x <= isqrt(T)
    # at every counted a = s x^2: the segments tile [1, T] and nothing more
    from stacky_heights import counting

    calls = []
    real = counting._near_square_window

    def recording(lo, hi, R):
        calls.append((lo, hi, R))
        return real(lo, hi, R)

    monkeypatch.setattr(counting, "_near_square_window", recording)
    if segment_size is not None:
        monkeypatch.setattr(counting, "SEGMENT_SIZE", segment_size)
    assert count_football222(B, threads=threads) == want
    size = min(counting.SEGMENT_SIZE, T)
    assert sorted(calls) == [
        (lo, min(lo + size, T + 1), math.isqrt(T)) for lo in range(1, T + 1, size)
    ]


def test_iroot_exact_at_every_size():
    rng = random.Random(7)
    cases = [(n, k) for n in range(300) for k in range(1, 6)]
    cases += [(rng.getrandbits(rng.randint(1, 3000)), rng.randint(1, 12)) for _ in range(500)]
    cases += [(r**k + e, k) for r in (2**53 + 1, 3**90) for k in (2, 3, 7) for e in (-1, 0, 1)]
    for n, k in cases:
        r = _iroot(n, k)
        assert r**k <= n < (r + 1) ** k, (n, k)


@pytest.mark.parametrize(
    "n, B",
    # (4, 46340) to (5, 5405) put B^n just below and just above 2^62, the
    # last two just below and just above 2^63
    [
        (200, 50), (50, 30), (64, F(7, 2)),
        (4, 46340), (4, 46341), (5, 5404), (5, 5405), (4, 55108), (4, 55109),
    ],
)
def test_count_bmun_large_n_matches_moebius_sum(n, B):
    # the n-th root of B^n is about B, whatever the size of B^n
    X = int(F(B) ** n)
    root = int(F(B))
    c = sum(_mobius(d) * (X // d**n) for d in range(1, root + 1))
    assert count_bmun(n, B) == (2 * c if n % 2 == 0 else c)


def test_count_pinned_values():
    assert count_bmun(2, 10**4) == 121_585_388
    assert count_bmun(2, 10**5) == 12_158_541_884
    assert count_bmun(3, 10**4) == 831_907_372_522
    assert count_bmun(3, 10**5) == 831_907_372_580_692
    assert count_football222(1200) == 21_869
    assert count_quadratic_fields([10**7, 10**7 + 1, 10**7 + 2, 10**7 + 3, 10**8]) == [
        6_079_285, 6_079_286, 6_079_286, 6_079_287, 60_792_709
    ]


def test_count_bmun_examples():
    assert count_bmun(2, 1) == 2
    assert count_bmun(2, 2) == 6
    assert count_bmun(3, 2) == 7
    with pytest.raises(ValueError, match="n must be >= 2"):
        count_bmun(1, 10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_count_bmun_matches_naive(n):
    for B in (1, 2, 3, 5, 7, F(15, 2)):
        assert count_bmun(n, B) == naive_bmun(n, B), (n, B)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 4), B=st.fractions(min_value=0, max_value=6, max_denominator=8))
def test_count_bmun_matches_naive_property(n, B):
    assert count_bmun(n, B) == naive_bmun(n, B), (n, B)


def test_count_quadratic_fields_examples():
    assert count_quadratic_fields(2) == 0
    assert count_quadratic_fields(4) == 2
    # |disc| <= 8 admits -3, -4, 5, -7, 8 and -8: six fields
    assert count_quadratic_fields(8) == 6


def test_count_quadratic_fields_matches_naive():
    for X in (3, 4, 8, 21, 60, 163, 400):
        assert count_quadratic_fields(X) == naive_quadratic_fields(X), X


@settings(max_examples=40, deadline=None)
@given(X=st.fractions(min_value=0, max_value=300, max_denominator=6))
def test_count_quadratic_fields_matches_naive_property(X):
    assert count_quadratic_fields(X) == naive_quadratic_fields(int(X)), X


def test_count_football222_examples():
    assert count_football222(1) == 0
    # just below sqrt(2): the bound is under 2, and (1,1) yields exactly 2
    assert count_football222(F(14142, 10000)) == 0
    assert count_football222(2) == 1


@pytest.mark.parametrize("B", [2, 3, 5, 8, 12, 20])
def test_count_football222_matches_naive(B):
    assert count_football222(B) == naive_football222(B), B


@settings(max_examples=60, deadline=None)
@given(B=st.fractions(min_value=0, max_value=8, max_denominator=12))
def test_count_football222_matches_naive_property(B):
    assert count_football222(B) == naive_football222(B), B


def test_count_football222_domain_limit():
    # exact while B^2 <= 2^51, which 47453132 + 5/7 meets and 47453132 + 6/7
    # does not; the check comes before any sieving
    for B in (47453133, F(47453132 * 7 + 6, 7)):
        with pytest.raises(ValueError, match="count_football222"):
            count_football222(B)


def test_count_football222_threads_deterministic(monkeypatch):
    from stacky_heights import counting

    whole = count_football222(40)
    monkeypatch.setattr(counting, "SEGMENT_SIZE", 256)  # several segments at toy scale
    assert count_football222(40, threads=1) == count_football222(40, threads=2) == whole


PAIR_CUT_BS = [F(14142, 10000), F(3, 2), 2, F(5, 2), 3, 5, 8, F(23, 2), 12]


@functools.cache
def _pair_cut_naive():
    return [naive_football222(B) for B in PAIR_CUT_BS]


@pytest.mark.parametrize("segment_size", [7, 64])
@pytest.mark.parametrize("threads", [1, 2])
def test_count_football222_pair_cut_matches_naive(monkeypatch, segment_size, threads):
    # the kernel walks only b > a and doubles; the oracle loops over every
    # ordered pair, and small segments put many pairs on segment boundaries
    from stacky_heights import counting

    want = _pair_cut_naive()
    monkeypatch.setattr(counting, "SEGMENT_SIZE", segment_size)
    assert count_football222(PAIR_CUT_BS, threads=threads) == want
    # a <-> b is an involution on the counted pairs, fixing only (1, 1)
    assert all(n % 2 == 1 for B, n in zip(PAIR_CUT_BS, want) if F(B) ** 2 > 2)


@pytest.mark.parametrize("chunk", [1, 5])
@pytest.mark.parametrize("segment_size", [7, 64])
@pytest.mark.parametrize("threads", [1, 2])
def test_count_football222_chunk_boundaries_match_naive(
    monkeypatch, chunk, segment_size, threads
):
    # a chunk holds whole rows of at least this many candidates in all, so
    # these give chunks of one or a few rows, and each near-square hit must
    # find its row from the offsets of its own chunk
    from stacky_heights import counting

    monkeypatch.setattr(counting, "_F222_CHUNK", chunk)
    monkeypatch.setattr(counting, "SEGMENT_SIZE", segment_size)
    assert count_football222(PAIR_CUT_BS, threads=threads) == _pair_cut_naive()


def test_count_football222_builds_no_power_free_window(monkeypatch):
    from stacky_heights import counting

    def no_sieve(*args):
        raise AssertionError("count_football222 ran the power-free sieve")

    monkeypatch.setattr(counting, "_power_free_window", no_sieve)
    assert count_football222([8, 1200]) == [naive_football222(8), 21_869]


def _near_square_oracle(lo, hi, r):
    out = []
    for v in range(lo, hi):
        u = power_free_part(v, 2)
        out.append(u if u * math.isqrt(v // u) <= r else 0)
    return out


@pytest.mark.parametrize("T", [2, 3, 5, 50, 1234, 9999])
def test_near_square_window_matches_power_free_part(T):
    top = 2 * T + 1
    windows = [(1, top), (1, 2), (T // 2 + 1, T + 2), (max(1, top - 13), top), (top - 1, top)]
    for R in (math.isqrt(T), math.isqrt(2 * T)):
        for lo, hi in windows:
            table = _near_square_window(lo, hi, R)
            assert table.dtype == np.int32
            assert table.tolist() == _near_square_oracle(lo, hi, R), (T, R, lo, hi)


@pytest.mark.parametrize("threads", [1, 2])
def test_count_football222_pinned_schedule(threads):
    # criterion 09's schedule up to B = 3163; 2T is about 2e7, two segments
    Bs = [100, 178, 316, 562, 1000, 1778, 3163]
    assert count_football222(Bs, threads=threads) == [
        793, 1761, 3903, 8155, 17357, 35945, 74387,
    ]


def test_count_football222_coprime_box_lower_bound():
    for B in (30, 100, 316):
        n = count_football222(B)
        assert n >= 0.5 * (6 / math.pi**2) * B, B


def test_count_rooted3_examples():
    assert count_rooted3_at_0(1) == 0
    # B^3 = 2 admits only the pair (1, 1)
    assert count_rooted3_at_0(F(5, 4)) == 1  # (5/4)^3 = 125/64 < 2
    assert count_rooted3_at_0(2) == naive_rooted3(2)


# at B = 257/100 the largest integer below B^3 is 16 = 1 * (1 + 1)^4
@pytest.mark.parametrize("B", [2, 3, 5, 10, 17, F(49, 10), F(257, 100)])
def test_count_rooted3_matches_naive(B):
    assert count_rooted3_at_0(B) == naive_rooted3(B), B


@settings(max_examples=60, deadline=None)
@given(B=st.fractions(min_value=0, max_value=16, max_denominator=12))
def test_count_rooted3_matches_naive_property(B):
    assert count_rooted3_at_0(B) == naive_rooted3(B), B


def test_count_quadratic_points_examples():
    assert count_quadratic_points(1) == 0
    assert count_quadratic_points(2) == 202
    assert count_quadratic_points(3) == 3414
    # values of the O(B^6) box enumeration this counter replaced; B = 100
    # and 150 from the (a, c) cell walk that preceded the floor sums
    pinned = {
        F(9, 2): 50_494,
        6: 282_630,
        F(27, 4): 593_286,
        F(81, 8): 6_953_470,
        12: 19_351_718,
        14: 49_062_114,
        100: 6_651_388_984_550,
        150: 75_787_263_659_690,
    }
    for B, n in pinned.items():
        assert count_quadratic_points(B) == n, B


@pytest.mark.parametrize("B", [1, 2, 3, F(3, 2), F(5, 2), F(7, 3)])
def test_count_quadratic_points_matches_naive(B):
    assert count_quadratic_points(B) == naive_quadratic_points(B), B


@settings(max_examples=40, deadline=None)
@given(B=st.fractions(min_value=0, max_value=3, max_denominator=12))
def test_count_quadratic_points_matches_naive_property(B):
    assert count_quadratic_points(B) == naive_quadratic_points(B), B


def test_quadratic_b_range_is_symmetric_initial_segment():
    # the counter relies on this: for fixed (a, c) the passing b >= 0 are
    # 0..bmax, M is even in b, and the kernel's floor sum over a row a adds
    # up bmax over every |c| <= top
    for Y in (F(3, 2), F(7, 3), F(11, 2), F(9), F(40, 3), F(21), F(30)):
        p, q = Y.numerator, Y.denominator
        top = (p - 1) // q  # the |c| < Y
        bs = range(2 * math.ceil(Y) + 3)  # M >= |b| / 2 rules out the rest
        for a in range(1, 30):
            bmaxes = []
            for c in range(-40, 41):
                ok = [mahler_measure_lt(a, b, c, Y) for b in bs]
                assert ok == [mahler_measure_lt(a, -b, c, Y) for b in bs], (a, c, Y)
                n = sum(ok)
                assert ok == [True] * n + [False] * (len(ok) - n), (a, c, Y)
                if abs(c) <= top:
                    bmaxes.append(n - 1)
            if a < Y:
                row = _floor_sum(2 * top + 1, p * q, a * q * q, p * p - 1 - a * q * q * top)
                assert row == sum(bmaxes), (a, Y)


def test_count_reducible_matches_bruteforce():
    # primitive forms with a square discriminant, by the exact measure test
    for X in (F(3, 2), F(2), F(3), F(7, 2), F(4), F(5), F(6), F(25, 4)):
        R = math.ceil(X)
        brute = sum(
            1
            for a in range(1, R + 1)
            for b in range(-2 * R, 2 * R + 1)
            for c in range(-R, R + 1)
            if b * b - 4 * a * c >= 0
            and math.isqrt(b * b - 4 * a * c) ** 2 == b * b - 4 * a * c
            and math.gcd(math.gcd(a, b), c) == 1
            and mahler_measure_lt(a, b, c, X)
        )
        assert _count_reducible([math.ceil(X) - 1]) == [brute], X  # M <= T2 iff M < X


def test_count_quadratic_points_domain_limit():
    # exact while the numerator of B^2 is below 2^31: 46340^2 is, 46341^2 is
    # not; the check comes before any work
    for B in (46341, F(46341, 31)):
        with pytest.raises(ValueError, match="count_quadratic_points"):
            count_quadratic_points(B)
    # at the largest admissible numerator each cell is still the closed form
    p = (1 << 31) - 1
    for q in (1, 1000, 999 * 46337):
        top = (p - 1) // q
        Y = F(p, q)
        for a in (1, top):
            for c in (-top, -1, 0, 1, top):
                # one-cell floor sum: largest |b| with Y |b| < Y^2 + ac
                got = _floor_sum(1, p * q, 0, p * p - 1 + a * c * q * q)
                assert got == math.ceil((Y * Y + a * c) / Y) - 1, (q, a, c)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(0, 300),
    m=st.integers(1, 10**9),
    a=st.integers(0, 10**12),
    b=st.integers(0, 10**12),
)
@example(n=0, m=7, a=5, b=3)
@example(n=40, m=7, a=0, b=3)
@example(n=40, m=7, a=23, b=3)
@example(n=40, m=7, a=5, b=30)
@example(n=40, m=1, a=5, b=3)
def test_floor_sum_matches_loop(n, m, a, b):
    assert _floor_sum(n, m, a, b) == sum((a * i + b) // m for i in range(n))


def test_count_quadratic_points_monotone():
    counts = [count_quadratic_points(B) for B in (2, 3, 4, 5)]
    assert counts == sorted(counts)


# ----------------------------------------------------------------------
# schedules: a sequence of bounds is counted in one pass at its largest


@st.composite
def schedules(draw, max_value, max_denominator=12):
    """Unsorted bound lists with a repeated bound and one (1/2) below the
    first point of every family."""
    bound = st.fractions(min_value=0, max_value=max_value, max_denominator=max_denominator)
    bs = draw(st.lists(bound, min_size=1, max_size=6))
    return draw(st.permutations(bs + [bs[0], F(1, 2)]))


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 4), Bs=schedules(1000))
def test_count_bmun_schedule_property(n, Bs):
    assert count_bmun(n, Bs) == [count_bmun(n, B) for B in Bs]


@settings(max_examples=30, deadline=None)
@given(Bs=schedules(5000))
def test_count_quadratic_fields_schedule_property(Bs):
    assert count_quadratic_fields(Bs) == [count_quadratic_fields(X) for X in Bs]


@settings(max_examples=30, deadline=None)
@given(Bs=schedules(40))
def test_count_football222_schedule_property(Bs):
    assert count_football222(Bs) == [count_football222(B) for B in Bs]


@settings(max_examples=30, deadline=None)
@given(Bs=schedules(200))
def test_count_rooted3_schedule_property(Bs):
    assert count_rooted3_at_0(Bs) == [count_rooted3_at_0(B) for B in Bs]


@settings(max_examples=30, deadline=None)
@given(Bs=schedules(6))
def test_count_quadratic_points_schedule_property(Bs):
    assert count_quadratic_points(Bs) == [count_quadratic_points(B) for B in Bs]


def test_schedule_return_types():
    kernels = [
        lambda B: count_bmun(2, B),
        count_quadratic_fields,
        count_football222,
        count_rooted3_at_0,
        count_quadratic_points,
    ]
    for kernel in kernels:
        assert type(kernel(5)) is int
        assert kernel([]) == []
        assert kernel((5, 0)) == [kernel(5), 0]


def test_count_football222_schedule_threads_and_segments(monkeypatch):
    from stacky_heights import counting

    Bs = [40, 3, 25, 40, 12]
    want = [count_football222(B) for B in Bs]
    monkeypatch.setattr(counting, "SEGMENT_SIZE", 64)  # many segments
    assert count_football222(Bs, threads=2) == want


def test_count_rooted3_pinned_beyond_int64():
    # B^3 >= 2^63, so neither T nor Phi_3(a) a^4 fits in int64; the counts
    # were computed with the per-bound kernel, which works in Python integers
    pinned = {2_097_153: 11_697_650, 3_000_000: 17_252_440}
    assert all(F(B) ** 3 >= 2**63 for B in pinned)
    assert count_rooted3_at_0(list(pinned)) == list(pinned.values())
    assert count_rooted3_at_0([3_000_000, 40, 2_097_153]) == [
        17_252_440,
        count_rooted3_at_0(40),
        11_697_650,
    ]


def test_count_rooted3_schedule_of_the_benchmark_shape():
    # 50 levels from b0 = 10 by 5/4, as the count benchmark runs them
    Bs = [F(10) * F(5, 4) ** k for k in range(50)]
    assert count_rooted3_at_0(Bs) == [count_rooted3_at_0(B) for B in Bs]


def test_count_rooted3_schedule_across_the_int64_switch():
    # the kernel runs in int64 while the top T is below 2^62, on Python
    # integers above: B^3 just below and just above 2^62, against per-bound
    # calls that run in int64
    below = 1_664_510
    assert below**3 - 1 < 2**62 <= (below + 1) ** 3 - 1
    for top in (below, below + 1):
        Bs = [F(top), 7, F(top, 3), F(top * 4, 5), 1000]
        assert count_rooted3_at_0(Bs) == [count_rooted3_at_0(B) for B in Bs]


def test_iroot4_vec_is_exact_up_to_2_62():
    r = np.arange(1, math.isqrt(math.isqrt(2**62 - 1)) + 1, dtype=np.int64)
    z = np.concatenate([r**4 - 1, r**4, r**4 + 1, [2**62 - 1]])  # every fourth power
    z = z[z < 2**62]
    assert _iroot4_vec(z).tolist() == [math.isqrt(math.isqrt(x)) for x in z.tolist()]


def test_schedule_domain_errors_come_before_any_work(monkeypatch):
    from stacky_heights import counting

    def no_work(*args):
        raise AssertionError("a table was built before the domain check")

    monkeypatch.setattr(counting, "_f222_rows", no_work)
    monkeypatch.setattr(counting, "_mobius_windows", no_work)
    with pytest.raises(ValueError, match="count_football222"):
        count_football222([2, 47453133, 5])
    with pytest.raises(ValueError, match="count_quadratic_points"):
        count_quadratic_points([2, 46341, 3])
    with pytest.raises(ValueError, match=r"count_quadratic_points .*2\^23"):
        count_quadratic_points([2, 2897, 3])
    with pytest.raises(ValueError, match="denominator"):
        count_quadratic_points([2, F(1, 1001)])


def test_count_bmun_size_cap(monkeypatch):
    # floor(B) is the n-th root of B^n, and the Moebius windows run up to it;
    # a stand-in records its limit instead of sieving
    from stacky_heights import counting

    limits = []

    def record(limit):
        limits.append(limit)
        raise LookupError("stand-in windows")

    monkeypatch.setattr(counting, "_mobius_windows", record)
    for n, B in ((2, 10**9), (3, 2**25 + 1), (2, [10, 2**25 + 1])):
        with pytest.raises(ValueError, match=r"count_bmun .*2\^25"):
            count_bmun(n, B)
    assert limits == []
    for n, B in ((2, 2**25), (5, F(2**27 + 1, 4)), (2, [2**25 + F(1, 2), 7])):
        with pytest.raises(LookupError):
            count_bmun(n, B)
    assert limits == [2**25] * 3


def test_count_quadratic_fields_size_cap(monkeypatch):
    # the Moebius windows run up to isqrt(floor(X)); a stand-in records its
    # limit instead of sieving
    from stacky_heights import counting

    limits = []

    def record(limit):
        limits.append(limit)
        raise LookupError("stand-in windows")

    monkeypatch.setattr(counting, "_mobius_windows", record)
    for X in (10**10, 2**30 + 1, [10, 2**30 + 1]):
        with pytest.raises(ValueError, match=r"count_quadratic_fields .*2\^30"):
            count_quadratic_fields(X)
    assert limits == []
    for X in (2**30, F(2**31 + 1, 2), [2**30 + F(1, 2), 7]):
        with pytest.raises(LookupError):
            count_quadratic_fields(X)
    assert limits == [2**15] * 3


def test_count_quadratic_points_size_cap(monkeypatch):
    # the tables run up to the largest integer below B^2, and floor(B^2) may
    # be at most 2^23: 2896^2 and (2896.3)^2 are below it, 2897^2 and
    # (2896.4)^2 above; stand-ins for the Moebius windows and the totient
    # table record their limit, so the test stays cheap whichever comes first
    from stacky_heights import counting

    limits = []

    def record(limit):
        limits.append(limit)
        raise LookupError("stand-in table")

    monkeypatch.setattr(counting, "_mobius_windows", record)
    monkeypatch.setattr(counting, "_totient_upto", record)
    for B in (2897, F(28964, 10), [10, 2897]):
        with pytest.raises(ValueError, match=r"count_quadratic_points .*2\^23"):
            count_quadratic_points(B)
    assert limits == []
    for B in (2896, F(28963, 10)):
        with pytest.raises(LookupError):
            count_quadratic_points(B)
    assert limits == [2896**2 - 1, 28963**2 // 100]


def test_count_rooted3_size_cap(monkeypatch):
    # the Phi_3 table runs up to R = floor(T^(1/4)), T the largest integer
    # below B^3; R = 2^25 is allowed and 2^25 + 1 is not
    from stacky_heights import counting

    limits = []

    def record(limit, m):
        limits.append(limit)
        raise LookupError("stand-in table")

    monkeypatch.setattr(counting, "sieve_power_free_parts", record)
    edge = (2**25 + 1) ** 4  # R > 2^25 exactly when T >= edge
    below = _iroot(edge, 3)  # below^3 <= edge, so T < edge
    assert below**3 <= edge < (below + 1) ** 3
    for B in (10**11, below + 1, [10, below + 1]):
        with pytest.raises(ValueError, match=r"count_rooted3_at_0 .*2\^25"):
            count_rooted3_at_0(B)
    assert limits == []
    for B in (below, F(2 * below - 1, 2), [below, 7]):
        with pytest.raises(LookupError):
            count_rooted3_at_0(B)
    assert limits == [2**25] * 3


def test_vojta_444_examples():
    assert vojta_search_444(0, 0.5) == vojta_search_444(1, 0.5) == []
    assert vojta_search_444(100, 0.5) == naive_v444(100, 0.5)
    assert vojta_search_444(1000, 0.3) == naive_v444(1000, 0.3)
    # the smaller cutoffs have no hits; this one compares a nonempty list
    big = vojta_search_444(2000, 0.1)
    assert big and big == naive_v444(2000, 0.1)
    # monotone in delta: harsher exponent keeps a subset
    small = set(vojta_search_444(2000, 0.3))
    assert small <= set(big)


@pytest.mark.parametrize("search", [vojta_search_444, vojta_search_ap5])
@pytest.mark.parametrize("delta", [0, 1, -0.5, 1.5])
def test_vojta_delta_outside_unit_interval(search, delta):
    with pytest.raises(ValueError, match="delta must lie strictly between 0 and 1"):
        search(100, delta)


def test_vojta_444_cutoff_domain_error():
    # Phi_4 of a + b <= 2 * cutoff must fit in 64 bits: cutoff < 2^20
    with pytest.raises(ValueError, match=r"vojta_search_444 .*1048575"):
        vojta_search_444(2**20, 0.3)


def test_vojta_444_known_hit():
    # 81 + 1250 = 1331 = 11^3 gives the only pair up to 10^4 at delta 0.3
    hits = vojta_search_444(2000, 0.3)
    assert hits == [(81, 1250)]
    assert math.gcd(81, 1250) == 1


def test_vojta_ap5_examples():
    assert vojta_search_ap5(4, 0.3) == []
    assert vojta_search_ap5(5, 0.3) == []  # one step d, and no hit
    assert vojta_search_ap5(300, 0.3) == naive_ap5(300, 0.3)
    # worked non-examples
    spf_hits = set(vojta_search_ap5(1000, 0.1))
    assert (1, 2, 3, 4, 5) not in spf_hits
    assert (2, 4, 6, 8, 10) not in spf_hits


def test_vojta_threads_deterministic():
    assert vojta_search_444(3000, 0.3, threads=2) == vojta_search_444(3000, 0.3)
    assert vojta_search_ap5(2000, 0.3, threads=2) == vojta_search_ap5(2000, 0.3)


@pytest.mark.parametrize("cutoff", [5, 9, 12, 13, 40, 257, 1500])
def test_vojta_thread_count_invariance(cutoff):
    # cutoffs 5 to 12 have one or two steps d, fewer than three blocks
    ap5 = [vojta_search_ap5(cutoff, F(1, 4), threads=t) for t in (1, 2, 3)]
    v444 = [vojta_search_444(4 * cutoff, F(1, 10), threads=t) for t in (1, 2, 3)]
    assert ap5[0] == ap5[1] == ap5[2]
    assert v444[0] == v444[1] == v444[2]


_DELTAS = st.sampled_from([F(1, 10), F(1, 4), F(3, 10), F(2, 5)])


@settings(max_examples=40, deadline=None)
@given(cutoff=st.integers(1, 600), delta=_DELTAS)
@example(cutoff=32, delta=F(1, 4))  # hit (4, 11, 18, 25, 32) on the last step d
@example(cutoff=900, delta=F(1, 2))  # (300, ..., 900): sqf 30 = 900^(1/2), no hit
def test_vojta_ap5_matches_naive_property(cutoff, delta):
    assert vojta_search_ap5(cutoff, delta) == naive_ap5(cutoff, delta)


@settings(max_examples=40, deadline=None)
@given(cutoff=st.integers(1, 600), delta=_DELTAS)
def test_vojta_444_matches_naive_property(cutoff, delta):
    assert vojta_search_444(cutoff, delta) == naive_v444(cutoff, delta)


def test_vojta_benchmark_size_hit_counts():
    assert len(vojta_search_ap5(20000, 0.3)) == 10840
    assert len(vojta_search_ap5(15000, 0.25)) == 9941
    assert len(vojta_search_444(990000, 0.2)) == 5


def test_vojta_ap5_cutoff_domain_error():
    # the prefilter product u0 u1 u2 <= cutoff^3 fits in int64 below 2^21
    from stacky_heights.counting import _AP5_MAX_CUTOFF

    assert _AP5_MAX_CUTOFF == 2**21 - 1
    assert _AP5_MAX_CUTOFF**3 < 2**63 <= (_AP5_MAX_CUTOFF + 1) ** 3
    with pytest.raises(ValueError, match=r"vojta_search_ap5 .*2097151"):
        vojta_search_ap5(2**21, 0.3)


def test_concurrent_calls_match_serial(monkeypatch):
    # several calls at once, each with its own thread pool, must not see
    # each other's state; small segments give football222 many work items
    from concurrent.futures import ThreadPoolExecutor

    from stacky_heights import counting

    monkeypatch.setattr(counting, "SEGMENT_SIZE", 4096)
    jobs = [(count_football222, (B,)) for B in (150, 170, 190, 210)]
    jobs += [(vojta_search_ap5, (1500, 0.3)), (vojta_search_444, (3000, 0.1))]
    serial = [fn(*args) for fn, args in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often to expose shared state
    try:
        with ThreadPoolExecutor(len(jobs)) as pool:
            futures = [pool.submit(fn, *args, threads=2) for fn, args in jobs]
            assert [f.result(timeout=120) for f in futures] == serial
    finally:
        sys.setswitchinterval(interval)


def test_fit_synthetic():
    Bs = [10, 30, 100, 300, 1000, 3000]
    a, b, c = fit_exponents([(B, B**2) for B in Bs])
    assert abs(a - 2) < 1e-6 and abs(b) < 1e-3
    a, b, c = fit_exponents([(B, round(B * math.log(B) ** 3)) for B in Bs])
    assert abs(a - 1) < 1e-3 and abs(b - 3) < 0.05
    a, b, c = fit_exponents([(B, 17) for B in Bs])
    assert abs(a) < 1e-9
    with pytest.raises(ValueError):
        fit_exponents([(10, 5), (100, 50), (1000, 500)])  # too few samples


def test_report_validation_and_roundtrip():
    rep = CountReport("demo", {"n": 2}, [(10.0, 5), (20.0, 9)], fit=None)
    with pytest.raises(ValueError):
        CountReport("bad", {}, [(10.0, 5), (10.0, 6)])
    with pytest.raises(ValueError):
        CountReport("bad", {}, [(10.0, 5), (20.0, 4)])
    with pytest.raises(ValueError):
        CountReport("bad", {}, [(10.0, -1)])
    obj = rep.to_json()
    assert obj["schema"] == "stacky-heights/1"
    back = CountReport.from_json(json.loads(json.dumps(obj)))
    assert back.family == rep.family and back.samples == rep.samples
    assert rep.to_csv().splitlines()[0] == "B,count"
    assert all(len(line.split()) == 2 for line in rep.to_plot().splitlines())
