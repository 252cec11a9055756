import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import naive_rooted_height

from stacky_heights.adelic import ExactHeight
from stacky_heights.classifying import PowerClass, class_of
from stacky_heights.football import (
    RootedLine,
    StackDivisor,
    StackyPointError,
    colliding_primes,
    edd,
    football,
    generic_height,
    northcott,
    rdisc,
    tangent_divisor,
    tangential_height,
    type1_height,
)

LINE222 = RootedLine((((1, 0), 2), ((1, 1), 2), ((0, 1), 2)))
UNROOTED = RootedLine(())


def test_rooted_line_validation():
    with pytest.raises(ValueError):
        RootedLine((((2, 4), 2),))  # not primitive
    with pytest.raises(ValueError):
        RootedLine((((1, 0), 1),))  # order < 2
    with pytest.raises(ValueError):
        RootedLine((((1, 0), 2), ((-1, 0), 3)))  # proportional forms
    with pytest.raises(ValueError):
        RootedLine((((0, 0), 2),))


def test_divisor_degree():
    line = football(2, 3)
    assert StackDivisor(0, (1, 1)).degree(line) == F(5, 6)
    assert StackDivisor(-1, (1, 2)).degree(line) == F(1, 6)
    with pytest.raises(ValueError):
        StackDivisor(0, (1,)).degree(line)


def test_generic_height_worked_example():
    # degree-1/6 bundle on the (2,3)-football at the image of (1 : 2)
    hb = generic_height(football(2, 3), StackDivisor(0, (-1, 2)), (4, 1))
    assert hb.stable == ExactHeight({2: F(1, 3)})
    assert hb.discrepancies == {}
    assert hb.total == ExactHeight({2: F(1, 3)})


def test_generic_height_zero_divisor():
    hb = generic_height(LINE222, StackDivisor(0, (0, 0, 0)), (2, 3))
    assert hb.total == ExactHeight.zero()


def test_generic_height_tangent_example():
    hb = generic_height(LINE222, tangent_divisor(LINE222), (2, 3))
    assert hb.total == ExactHeight({2: F(1, 2), 3: 1, 5: F(1, 2)})  # (1/2) log 90
    assert hb.stable == ExactHeight({3: F(1, 2)})
    assert hb.discrepancies[2] == ExactHeight({2: F(1, 2)})
    assert hb.discrepancies[5] == ExactHeight({5: F(1, 2)})


def test_generic_height_point_normalization_and_errors():
    hb1 = generic_height(LINE222, tangent_divisor(LINE222), (4, 6))
    hb2 = generic_height(LINE222, tangent_divisor(LINE222), (2, 3))
    assert hb1.total == hb2.total
    with pytest.raises(StackyPointError):
        generic_height(LINE222, tangent_divisor(LINE222), (0, 1))
    with pytest.raises(StackyPointError):
        generic_height(LINE222, tangent_divisor(LINE222), (-1, 1))
    with pytest.raises(ValueError, match=r"\(0, 0\) is not a point"):
        generic_height(LINE222, tangent_divisor(LINE222), (0, 0))


def test_type1_height_examples():
    f23 = football(2, 3)
    d10 = StackDivisor(0, (1, 0))
    assert type1_height(f23, 0, PowerClass(2, 3), d10) == ExactHeight({3: F(1, 2)})
    assert type1_height(f23, 0, PowerClass(2, 1), d10) == ExactHeight.zero()
    # coefficient divisible by the order kills the height (Northcott failure)
    assert type1_height(f23, 0, PowerClass(2, 3), StackDivisor(0, (2, 0))) == ExactHeight.zero()
    with pytest.raises(ValueError):
        type1_height(f23, 0, PowerClass(3, 2), d10)  # modulus mismatch
    with pytest.raises(ValueError):
        type1_height(f23, 5, PowerClass(2, 3), d10)
    with pytest.raises(ValueError, match="misaligned"):
        type1_height(f23, 0, PowerClass(2, 3), StackDivisor(0, (1,)))


def test_type1_reduces_mod_order():
    f23 = football(2, 3)
    c = class_of(75, 3)
    assert type1_height(f23, 1, c, StackDivisor(0, (0, 4))) == type1_height(
        f23, 1, c, StackDivisor(7, (3, 1))
    )


def test_northcott_examples():
    assert northcott(2, 3, StackDivisor(0, (1, 1))) is True
    assert northcott(2, 3, StackDivisor(0, (2, 1))) is False
    assert northcott(2, 3, StackDivisor(-1, (1, 1))) is False
    with pytest.raises(ValueError):
        northcott(2, 4, StackDivisor(0, (1, 1)))
    with pytest.raises(ValueError, match="both roots"):
        northcott(2, 3, StackDivisor(0, (1,)))


def test_tangent_divisor_examples():
    assert tangent_divisor(LINE222).degree(LINE222) == F(1, 2)
    assert tangent_divisor(UNROOTED).degree(UNROOTED) == 2
    l444 = RootedLine((((1, 0), 4), ((0, 1), 4), ((1, 1), 4)))
    assert tangent_divisor(l444).degree(l444) == F(-1, 4)


def test_tangential_height_examples():
    assert tangential_height(LINE222, (2, 3)) == ExactHeight(
        {2: F(1, 2), 3: 1, 5: F(1, 2)}
    )
    assert tangential_height(LINE222, (1, 1)) == ExactHeight({2: F(1, 2)})
    assert tangential_height(UNROOTED, (3, 5)) == ExactHeight({5: 2})


def test_rdisc_examples():
    assert rdisc(LINE222, (2, 3)) == ExactHeight({2: 1, 3: 1, 5: 1})
    assert rdisc(LINE222, (4, 9)) == ExactHeight({13: 1})
    # all root values perfect squares: integral point, empty discriminant
    assert rdisc(LINE222, (9, 16)) == ExactHeight.zero()


def test_edd_examples():
    assert edd(LINE222, (2, 3)) == ExactHeight({2: F(1, 2), 3: 1, 5: F(1, 2)})
    assert edd(UNROOTED, (3, 5)) == ExactHeight({5: 2})


def test_integral_point_degeneration():
    # all root values are squares: discrepancies vanish, total = stable,
    # and edd degenerates to deg(T) log max
    pt = (9, 16)
    hb = generic_height(LINE222, tangent_divisor(LINE222), pt)
    assert hb.discrepancies == {}
    assert hb.total == hb.stable
    assert edd(LINE222, pt) == ExactHeight.log_abs(16, F(1, 2))


def test_lower_bound_and_discrepancy_range():
    rng = random.Random(5)
    for _ in range(200):
        line = LINE222 if rng.random() < 0.5 else football(2, 3)
        d = StackDivisor(
            rng.randint(0, 2), tuple(rng.randint(0, 3) for _ in line.roots)
        )
        a = rng.randint(1, 500)
        b = rng.randint(1, 500)
        if math.gcd(a, b) != 1 or any(v == 0 for v in line.values_at((a, b))):
            continue
        deg = d.degree(line)
        if deg < 0:
            continue
        hb = generic_height(line, d, (a, b))
        stable_val = hb.stable.value()
        assert hb.total.value() >= stable_val - 1e-9
        r = len(line.roots)
        for p, dh in hb.discrepancies.items():
            c = dh.coefficient(p)
            assert 0 <= c < r  # sum of per-root fractional parts in [0, 1)


def test_tangential_equals_generic_route_always():
    # the closed form and the breakdown route agree even on inputs with a
    # prime dividing two root values
    line = RootedLine((((1, 0), 2), ((1, 2), 3)))  # forms X and X + 2Y
    pt = (2, 1)  # both values even
    assert colliding_primes(line, pt) == {2}
    assert tangential_height(line, pt) == generic_height(
        line, tangent_divisor(line), pt
    ).total


def test_tangential_height_factors_only_root_values_and_max(factor_calls):
    # the power-free parts are read off the factorizations of the root
    # values; Phi_m(v) is never built and factored again
    line = RootedLine((((1, 0), 3), ((1, 1), 2), ((1, -4), 5)))
    for a, b in [(12, 5), (2**7 * 3**2, 7**4 * 5), (-1000, 999)]:
        factor_calls.clear()
        tangential_height(line, (a, b))
        expected = {abs(v) for v in line.values_at((a, b))} | {max(abs(a), abs(b))}
        assert set(factor_calls) == expected, (a, b)


def test_generic_height_factors_each_root_value_once(factor_calls):
    # on a football max(|a|, |b|) is a root value, so the stable term reads
    # its exponents from the root loop's factorization
    for s, t in [(5, 12), (-7, 3), (1_000_003, 2), (1, 1)]:
        factor_calls.clear()
        generic_height(football(2, 3), StackDivisor(0, (1, -1)), (t**2, s**3))
        assert sorted(factor_calls) == sorted([t**2, abs(s) ** 3]), (s, t)


def test_rooted_line_orders_and_lcm():
    line = RootedLine((((1, 0), 4), ((1, 1), 6), ((0, 1), 3)))
    assert line.orders == (4, 6, 3) and line.lcm == 12
    assert UNROOTED.orders == () and UNROOTED.lcm == 1
    assert line == RootedLine(line.roots) and hash(line) == hash(RootedLine(line.roots))
    # every coefficient is a numerator over the lcm of the orders
    assert StackDivisor(1, (1, -1, 2)).degree(line) == 1 + F(1, 4) - F(1, 6) + F(2, 3)


def test_edd_tangential_identity_random_clean_points():
    from stacky_heights.checks import random_clean_point, random_rooted_line

    rng = random.Random(11)
    for _ in range(300):
        line = random_rooted_line(rng)
        pt = random_clean_point(rng, line, 10**4)
        assert edd(line, pt) == tangential_height(line, pt), (line, pt)


def test_edd_differs_from_tangential_on_collision():
    # shared prime with odd valuation at both roots: the reduced
    # discriminant counts it once, the tangential height twice; the
    # identity is intentionally out of scope there
    line = RootedLine((((1, 0), 2), ((1, 2), 2)))
    pt = (2, 3)  # values 2 and 8
    assert colliding_primes(line, pt) == {2}
    t = tangential_height(line, pt)
    e = edd(line, pt)
    assert e != t
    assert t - e == ExactHeight({2: 1})  # exactly one extra log 2


def test_edd_factors_each_root_value_twice(factor_calls):
    # once by edd's own pass and once by rdisc; on a football max(|a|, |b|)
    # is a root value and is not factored on its own.  ROADMAP item 1 lets
    # rdisc reuse edd's factorizations, and the count drop to once.
    for s, t in [(5, 12), (-7, 3), (1_000_003, 2), (1, 1)]:
        factor_calls.clear()
        edd(football(2, 3), (t**2, s**3))
        assert sorted(factor_calls) == sorted([t**2, abs(s) ** 3] * 2), (s, t)


def _line_of(roots):
    """The roots (u, v, m) with a zero, non-primitive or proportional form
    dropped, and their RootedLine."""
    kept = []
    for u, v, m in roots:
        if (u, v) == (0, 0) or math.gcd(u, v) != 1:
            continue
        if any(u * v2 - u2 * v == 0 for u2, v2, _ in kept):
            continue
        kept.append((u, v, m))
    return kept, RootedLine(tuple(((u, v), m) for u, v, m in kept))


# (roots, d, (n_i), point) with a prime dividing two root values: there
# edd and the tangential height differ, and only the oracle checks edd.
COLLIDING = [
    ([(1, 0, 2), (1, 2, 2)], 1, [1, 1, 0, 0], (2, 3)),  # values 2 and 8
    ([(1, 0, 3), (1, 3, 2)], -1, [5, -3, 0, 0], (3, 1)),  # 3 and 6
    ([(1, -1, 4), (1, 1, 6), (0, 1, 5)], 0, [3, -5, 7, 0], (5, 1)),  # 4 and 6
    ([(1, 0, 2), (0, 1, 3), (1, 1, 5), (1, -1, 6)], 2, [-1, -2, -4, -5], (-15, 7)),
]


@pytest.mark.parametrize("roots, d, ns, point", COLLIDING)
def test_pinned_points_collide(roots, d, ns, point):
    kept, line = _line_of(roots)
    assert kept == roots and colliding_primes(line, point)


def _with_collisions(test):
    for args in COLLIDING:
        test = example(*args)(test)
    return test


roots_st = st.lists(
    st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(2, 6)), max_size=4
)
coord_st = st.integers(-(10**4), 10**4)


@settings(max_examples=300, deadline=None)
@given(
    roots_st,
    st.integers(-3, 3),
    st.lists(st.integers(-12, 12), min_size=4, max_size=4),
    st.tuples(coord_st, coord_st),
)
@example([(1, 0, 2), (0, 1, 3)], 0, [-1, 2, 0, 0], (4, 1))
@example([(1, 0, 2), (1, 1, 2), (0, 1, 2)], 2, [-1, -1, -1, 0], (-2, 3))
@_with_collisions
def test_heights_match_the_trial_division_oracle(roots, d, ns, point):
    roots, line = _line_of(roots)
    assume(point != (0, 0) and 0 not in line.values_at(point))
    divisor = (d, tuple(ns[: len(roots)]))
    height, want_edd = naive_rooted_height(roots, divisor, point)
    assert generic_height(line, StackDivisor(*divisor), point).total.terms == height
    assert edd(line, point).terms == want_edd
