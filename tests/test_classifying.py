import itertools
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacky_heights.adelic import ExactHeight, height_from_sections
from stacky_heights.classifying import (
    PermGroup,
    PowerClass,
    bmu3_vector_height,
    bmun_height,
    class_of,
    index,
    malle_exponent,
    quadratic_height,
)

from oracles import trial_division


def test_class_of_examples():
    assert class_of(12, 3) == PowerClass(3, 12)
    assert class_of(144, 3) == PowerClass(3, 18)
    assert class_of(F(-8, 27), 3) == PowerClass(3, 1)
    assert class_of(-5, 2) == PowerClass(2, -5)
    assert class_of(-4, 2) == PowerClass(2, -1)
    with pytest.raises(ValueError):
        class_of(0, 3)


def test_power_class_invariants():
    with pytest.raises(ValueError):
        PowerClass(3, -2)  # odd n: positive representative
    with pytest.raises(ValueError):
        PowerClass(2, 4)  # not power-free
    with pytest.raises(ValueError):
        PowerClass(2, 0)
    PowerClass(2, -1)  # sign survives for even n


def test_bmun_height_examples():
    c = class_of(12, 3)
    assert bmun_height(c, 1) == ExactHeight({2: F(2, 3), 3: F(1, 3)})
    assert bmun_height(c, 2) == ExactHeight({2: F(1, 3), 3: F(2, 3)})
    assert bmun_height(class_of(1, 4), 3) == ExactHeight.zero()
    with pytest.raises(ValueError):
        bmun_height(c, 0)
    with pytest.raises(ValueError):
        bmun_height(c, 3)


@settings(max_examples=200)
@given(
    st.integers(2, 6),
    st.integers(-(10**5), 10**5).filter(bool),
    st.integers(1, 60),
    st.integers(1, 60),
    st.data(),
)
def test_bmun_height_is_class_function(n, x, tn, td, data):
    t = F(tn, td)
    j = data.draw(st.integers(1, n - 1))
    c1 = class_of(x, n)
    c2 = class_of(F(x) * t**n, n)
    assert bmun_height(c1, j) == bmun_height(c2, j)


@settings(max_examples=200)
@given(st.integers(2, 7), st.integers(-(10**6), 10**6).filter(bool))
def test_bmun_height_matches_engine_on_rep_powers(n, x):
    # the reference builds rep^j and factors it
    c = class_of(x, n)
    for j in range(1, n):
        assert bmun_height(c, j) == height_from_sections(n, [c.rep**j])


# (x, n): large primes above the 10^6 strip limit, fractions, both signs
CLASS_CASES = [
    (7 * 1_000_003, 3),
    (-(5**3) * 999_983, 4),
    (2 * 3**4 * 1_000_033, 6),
    (2 * 7**2 * 1_000_003 * 5**6, 3),
    (12, 3),
    (F(5, 7 * 999_983**2), 3),
    (F(-9, 1_000_003 * 8), 2),
]


def test_class_heights_factor_nothing_after_class_of(factor_calls):
    for x, n in CLASS_CASES:
        c = class_of(x, n)
        factor_calls.clear()
        for j in range(1, n):
            bmun_height(c, j)
        if n == 3:
            bmu3_vector_height(c)
        assert factor_calls == [], (x, n)


def test_bmun_heights_factor_no_value_above_rep(factor_calls):
    # a class built straight from rep factors rep alone; its heights factor nothing
    for x, n in [(7 * 1_000_003, 3), (-(5**3) * 999_983, 4), (2 * 3**4 * 1_000_033, 6)]:
        rep = class_of(x, n).rep
        factor_calls.clear()
        c = PowerClass(n, rep)
        for j in range(1, n):
            bmun_height(c, j)
        if n == 3:
            bmu3_vector_height(c)
        assert factor_calls and max(factor_calls) <= abs(c.rep)


def test_bmu3_vector_height_factors_rep_once(factor_calls):
    for x in [2 * 7**2 * 1_000_003 * 5**6, 12, F(5, 7 * 999_983**2)]:
        rep = class_of(x, 3).rep
        factor_calls.clear()
        c = PowerClass(3, rep)
        bmu3_vector_height(c)
        assert factor_calls == [abs(c.rep)], x


def test_class_of_factors_numerator_and_denominator_once(factor_calls):
    for x, n in CLASS_CASES + [(1, 5), (-1, 2), (F(1, 4), 2)]:
        x = F(x)
        factor_calls.clear()
        class_of(x, n)
        expect = [abs(x.numerator)] + ([x.denominator] if x.denominator != 1 else [])
        assert factor_calls == expect, (x, n)


def test_power_class_built_directly_factors_rep(factor_calls):
    c = PowerClass(3, 2 * 1_000_003**2)
    assert factor_calls == [2 * 1_000_003**2]
    assert c.factors == ((2, 1), (1_000_003, 2))
    assert c == class_of(F(2, 1_000_003), 3) and hash(c) == hash(class_of(F(2, 1_000_003), 3))
    assert repr(c) == "PowerClass(n=3, rep=2000012000018)"
    with pytest.raises(ValueError):
        PowerClass(2, 4)
    with pytest.raises(TypeError):
        PowerClass(2, 3, ((3, 1),))  # the factorization is not a constructor argument


@settings(max_examples=300)
@given(
    st.integers(2, 5),
    st.integers(-(10**4), 10**4).filter(bool),
    st.integers(1, 12),
)
def test_carried_factorization_matches_oracle(n, num, den):
    c = class_of(F(num, den), n)
    assert math.prod(p**e for p, e in c.factors) == abs(c.rep)
    assert list(c.factors) == trial_division(c.rep)


def test_bmu3_vector_height_examples():
    assert bmu3_vector_height(class_of(12, 3)) == ExactHeight({2: 1, 3: 1})
    assert bmu3_vector_height(class_of(1, 3)) == ExactHeight.zero()
    assert bmu3_vector_height(class_of(7, 3)) == ExactHeight({7: 1})
    with pytest.raises(ValueError):
        bmu3_vector_height(PowerClass(2, 5))


def test_bmu3_vector_is_log_N_plus_log_M():
    # |rep| = N M^2 with N, M coprime squarefree -> exactly log(NM)
    for N, M in [(3, 2), (5, 1), (1, 7), (15, 2), (7, 10)]:
        h = bmu3_vector_height(class_of(N * M * M, 3))
        assert h == ExactHeight.log_abs(N * M)


def test_quadratic_height_examples():
    assert quadratic_height(5) == ExactHeight({5: F(1, 2)})
    assert quadratic_height(-1) == ExactHeight({2: 1})
    assert quadratic_height(2) == ExactHeight({2: F(3, 2)})
    with pytest.raises(ValueError):
        quadratic_height(4)


def test_quadratic_height_factors_d_not_4d(factor_calls):
    d = 2 * 1_000_003 * 1_000_033  # 2 mod 4: the discriminant is 4d
    assert quadratic_height(d) == ExactHeight(
        {2: F(3, 2), 1_000_003: F(1, 2), 1_000_033: F(1, 2)}
    )
    assert 4 * d not in factor_calls and set(factor_calls) <= {d, 4, 1}


def test_quadratic_height_factors_d_twice_and_nothing_else(factor_calls):
    # fundamental_discriminant checks d and log_abs expands it; the 4 of a
    # discriminant 4d enters as log 2, with no factor(1) or factor(4)
    assert quadratic_height(-15) == ExactHeight({3: F(1, 2), 5: F(1, 2)})
    assert quadratic_height(-5) == ExactHeight({2: 1, 5: F(1, 2)})
    assert factor_calls == [15, 15, 5, 5]


def test_quadratic_height_matches_square_class_away_from_2():
    # the quadratic permutation height and the square-class height agree at
    # every odd prime; they may differ at 2 by the discriminant convention
    for d in (-10, -5, -3, -1, 2, 3, 5, 6, 7, 11, 30):
        if d in (0, 1):
            continue
        qh = quadratic_height(d)
        bh = bmun_height(class_of(d, 2), 1)
        for p in set(qh.terms) | set(bh.terms):
            if p != 2:
                assert qh.coefficient(p) == bh.coefficient(p), (d, p)


def test_index_examples():
    assert index((0, 1, 2, 3)) == 0
    assert index((1, 0, 2)) == 1  # transposition in S3
    assert index((1, 2, 0)) == 2  # 3-cycle
    with pytest.raises(ValueError):
        index((0, 0, 1))


def test_perm_group_construction():
    with pytest.raises(ValueError):
        PermGroup(2, [(1, 0)])  # missing identity
    with pytest.raises(ValueError):
        PermGroup(3, [(0, 1, 2), (1, 2, 0)])  # not closed
    G = PermGroup.from_generators(3, [(1, 2, 0)])
    assert len(G) == 3
    assert len(PermGroup.symmetric(4)) == 24


def test_perm_group_costs_linear_compositions(monkeypatch):
    # S6 from two generators, and from its 720 elements: a few compositions
    # per element and generator, not |G|^2 = 518 400
    import stacky_heights.classifying as cl

    real = cl._compose
    calls = [0]

    def counted(a, b):
        calls[0] += 1
        assert calls[0] <= 10 * 720, "quadratic number of compositions"
        return real(a, b)

    monkeypatch.setattr(cl, "_compose", counted)
    for build in (
        lambda: PermGroup.from_generators(6, [(1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5)]),
        lambda: PermGroup.symmetric(6),
    ):
        calls[0] = 0
        assert len(build()) == 720
    monkeypatch.undo()
    with pytest.raises(ValueError):
        PermGroup(3, [(0, 1, 2), (1, 2, 0), (1, 0, 2)])  # not closed
    with pytest.raises(ValueError):
        PermGroup.from_generators(3, [(1, 0)])  # degree mismatch
    with pytest.raises(ValueError, match="cap"):  # |S8| = 40320
        PermGroup.from_generators(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])


def test_malle_exponent_examples():
    assert malle_exponent(PermGroup.symmetric(2)) == 1
    assert malle_exponent(PermGroup.symmetric(3)) == 1
    assert malle_exponent(PermGroup.symmetric(4)) == 1
    assert malle_exponent(PermGroup.cyclic(3)) == F(1, 2)
    # A3 equals the cyclic group of order 3 in degree 3
    a3 = PermGroup.from_generators(3, [(1, 2, 0)])
    assert malle_exponent(a3) == F(1, 2)
    with pytest.raises(ValueError):
        malle_exponent(PermGroup.from_generators(3, []))


def test_malle_exponent_conjugation_invariant():
    base = PermGroup.from_generators(4, [(1, 0, 3, 2), (2, 3, 0, 1)])
    e = malle_exponent(base)
    for sigma in itertools.permutations(range(4)):
        inv = [0] * 4
        for i, s in enumerate(sigma):
            inv[s] = i
        conj = [tuple(sigma[pi[inv[i]]] for i in range(4)) for pi in base.elements]
        assert malle_exponent(PermGroup(4, conj)) == e
