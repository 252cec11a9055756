import math
import random
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacky_heights.adelic import ExactHeight, height_from_sections
from stacky_heights.wps import (
    WeightedPoint,
    elliptic_naive_height,
    height_O1,
    height_Oj,
    hyperelliptic_height,
    minimal_form,
)


def test_minimal_form_examples():
    assert minimal_form((4, 6), (16, 64)).coords == (1, 1)
    assert minimal_form((2, 3), (1, 2)).coords == (1, 2)
    assert minimal_form((1, 1), (2, 4)).coords == (1, 2)


def test_minimal_form_zero_coords_reduce():
    # zero coordinates never block reduction
    assert minimal_form((4, 6, 8, 10), (0, 0, 0, 2**10)).coords == (0, 0, 0, 1)
    assert minimal_form((4, 6), (0, 2)).coords == (0, 2)


def test_minimal_form_signs():
    # all weights odd: lambda = -1 flips every coordinate, so normalize
    assert minimal_form((1, 3), (-2, 5)).coords == (2, -5)
    # an even weight: signs are preserved coordinate-wise
    assert minimal_form((2, 3), (-1, 2)).coords == (-1, 2)


def test_minimal_form_errors():
    with pytest.raises(ValueError):
        minimal_form((2, 3), (0, 0))
    with pytest.raises(ValueError):
        minimal_form((0, 3), (1, 1))
    with pytest.raises(ValueError, match="equal length"):
        WeightedPoint((2, 3), (1,))
    with pytest.raises(ValueError, match="at least one coordinate"):
        WeightedPoint((), ())


def test_is_minimal():
    assert WeightedPoint((2, 3), (1, 2)).is_minimal()
    assert not WeightedPoint((2, 3), (4, 8)).is_minimal()
    assert not WeightedPoint((4, 6, 8, 10), (0, 0, 0, 2**10)).is_minimal()


def test_height_O1_examples():
    assert height_O1(WeightedPoint((2, 3), (1, 2))) == ExactHeight({2: F(1, 3)})
    assert height_O1(WeightedPoint((4, 6), (1, 1))) == ExactHeight.zero()
    assert height_O1(WeightedPoint((1, 1), (3, 5))) == ExactHeight({5: 1})


def test_height_Oj_examples():
    assert height_Oj(WeightedPoint((1, 1), (3, 5)), 2) == ExactHeight({5: 2})
    # twisted bundles are evaluated through the section engine, not by
    # scaling: on P(2,3) the O(2) height of (1 : 2) is (2/3) log 2
    assert height_Oj(WeightedPoint((2, 3), (1, 2)), 2) == ExactHeight({2: F(2, 3)})
    assert height_Oj(WeightedPoint((2, 3), (1, 1)), 3) == ExactHeight.zero()
    with pytest.raises(ValueError):
        height_Oj(WeightedPoint((2, 3), (1, 2)), 0)


def test_height_not_additive_in_j():
    # stacky heights fail additivity once the finite places contribute:
    # on P(2,3) the minimal point (4 : 2) has h_{O(3)} = 2 log 2 while
    # 3 h_{O(1)} = 3 log 2
    pt = WeightedPoint((2, 3), (4, 2))
    assert pt.is_minimal()
    assert height_O1(pt) == ExactHeight({2: 1})
    assert height_Oj(pt, 3) == ExactHeight({2: 2})
    assert height_Oj(pt, 3) != 3 * height_O1(pt)


@settings(max_examples=200)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.data(),
    st.integers(2, 40),
    st.sampled_from([1, -1]),
    st.integers(1, 3),
)
def test_weighted_scaling_invariance(weights, data, lam, sign, j):
    coords = [
        data.draw(st.integers(-(10**4), 10**4)) for _ in weights
    ]
    if all(c == 0 for c in coords):
        coords[0] = 1
    pt = WeightedPoint(tuple(weights), tuple(coords))
    scaled = tuple(c * (sign * lam) ** a for c, a in zip(coords, weights))
    assert height_O1(minimal_form(weights, scaled)) == height_O1(pt)
    # the height takes the scaled point as it is, not only its minimal form
    assert height_Oj(WeightedPoint(tuple(weights), scaled), j) == height_Oj(pt, j)


@settings(max_examples=200)
@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=4),
    st.data(),
    st.integers(1, 12),
    st.integers(1, 3),
)
def test_height_Oj_matches_engine_on_pure_powers(weights, data, lam, j):
    # the reference builds the sections M_i^{jA/a_i} and factors them
    coords = [
        data.draw(st.just(0) | st.integers(-(10**3), 10**3)) * lam**a for a in weights
    ]
    if all(c == 0 for c in coords):
        coords[-1] = -lam ** weights[-1]
    A = math.lcm(*weights)
    want = height_from_sections(
        A, [m ** (j * A // a) for m, a in zip(coords, weights) if m != 0]
    )
    assert height_Oj(WeightedPoint(tuple(weights), tuple(coords)), j) == want


def test_height_Oj_factors_no_value_above_its_coordinates(factor_calls):
    # one factorization per nonzero coordinate, and nothing else: no power,
    # and no gcd of a minimal form
    for weights, coords in [
        ((4, 6), (-3 * 1_000_003, 2 * 1_000_033)),
        ((2, 3, 5), (7**2 * 1_000_003, 0, -(7**5) * 11)),
        ((1, 2), (999_983, 999_979)),
        ((2, 3), (-(6**2) * 5, 6**3 * 7)),  # not minimal: 6 scales it
    ]:
        pt = WeightedPoint(weights, coords)
        for j in (1, 2, 3):
            factor_calls.clear()
            height_Oj(pt, j)
            assert sorted(factor_calls) == sorted(abs(m) for m in coords if m)


@settings(max_examples=100)
@given(st.lists(st.integers(-500, 500), min_size=2, max_size=4))
def test_all_weight_one_is_classical_weil(coords):
    if all(c == 0 for c in coords):
        coords[0] = 7
    weights = (1,) * len(coords)
    pt = minimal_form(weights, coords)
    got = height_O1(pt)
    want = ExactHeight.log_abs(max(abs(c) for c in pt.coords))
    assert got == want


def enumerate_minimal_points(weights, B):
    """All minimal-form points of height <= log B, deduplicated under the
    full scaling action (positive lambda plus the sign ambiguity)."""
    a0, a1 = weights
    seen = set()
    out = []
    for m0 in range(-B**a0, B**a0 + 1):
        for m1 in range(-B**a1, B**a1 + 1):
            if m0 == 0 and m1 == 0:
                continue
            pt = minimal_form(weights, (m0, m1))
            if max(abs(pt.coords[0]) ** a1, abs(pt.coords[1]) ** a0) > B ** (a0 * a1):
                continue
            key = min(
                pt.coords,
                tuple(c * (-1) ** a for c, a in zip(pt.coords, weights)),
            )
            if key in seen:
                continue
            seen.add(key)
            out.append(pt)
    return out


@pytest.mark.parametrize("weights,B", [((2, 3), 5), ((2, 3), 8), ((3, 4), 4), ((1, 2), 9)])
def test_northcott_desk_scale(weights, B):
    # finitely many points of height <= log B; every listed height obeys
    # the bound and the sets grow monotonically in B
    pts = enumerate_minimal_points(weights, B)
    logB = math.log(B)
    for pt in pts:
        assert height_O1(pt).value() <= logB + 1e-9
    bigger = enumerate_minimal_points(weights, B + 1)
    assert len(bigger) >= len(pts)


@pytest.mark.parametrize("B", [3, 7, 15, 20])
def test_northcott_count_matches_projective_line(B):
    # for weights (1, 1) the stack is the honest projective line, where the
    # points of height <= log B can be listed independently via fractions
    from fractions import Fraction

    rationals = {Fraction(p, q) for q in range(1, B + 1) for p in range(-B, B + 1)}
    want = 1 + sum(
        1 for r in rationals if abs(r.numerator) <= B and r.denominator <= B
    )
    assert len(enumerate_minimal_points((1, 1), B)) == want


def test_elliptic_examples():
    assert elliptic_naive_height(1, 1) == ExactHeight.zero()
    assert elliptic_naive_height(16, 64) == ExactHeight.zero()
    assert elliptic_naive_height(0, 2) == ExactHeight({2: F(1, 6)})
    with pytest.raises(ValueError):
        elliptic_naive_height(0, 0)
    with pytest.raises(ValueError):
        elliptic_naive_height(-3, 2)  # 4(-27) + 27(4) = 0


def test_hyperelliptic_genus_8_within_a_time_budget():
    # A = lcm(4, 6, ..., 34) = 24 504 480: the top coordinate comes from the
    # cross powers |M_i|^a_j, not from |M_i|^(A / a_i)
    rng = random.Random(8)
    coeffs = [rng.randint(-(10**6), 10**6) for _ in range(16)]
    coeffs[9] = 7 * 10**50 + 1  # weight 22: |M|^(1/22) is about 204, the others below 32
    assert math.gcd(*coeffs) == 1  # minimal, so no finite part
    start = time.perf_counter()
    h = hyperelliptic_height(coeffs)
    assert time.perf_counter() - start < 1.0
    assert h == ExactHeight.log_abs(coeffs[9], F(1, 22))


def test_descent_reads_valuations_without_primality_tests(monkeypatch, factor_calls):
    import stacky_heights.arith as arith

    tested = []
    real = arith.is_prime
    monkeypatch.setattr(arith, "is_prime", lambda n: tested.append(n) or real(n))
    assert minimal_form((4, 6), (6**4 * 5, 6**6 * 7)).coords == (5, 7)
    assert minimal_form((1, 2, 3), (2 * 9, 0, 2**3 * 3**5)).coords == (3, 0, 3**2)
    # one factorization of each gcd, and the valuations of its primes by division
    assert factor_calls == [6**4, 2 * 9] and tested == []


def test_hyperelliptic_examples():
    assert hyperelliptic_height((1, 0, 0, 0)) == ExactHeight.zero()
    # a non-minimal model has the height of its minimal form
    assert hyperelliptic_height((0, 0, 0, 2**10)) == ExactHeight.zero()
    assert hyperelliptic_height((2**4, 0, 0, 0)) == ExactHeight.zero()
    assert hyperelliptic_height((0, 0, 0, 3 * 2**10)) == ExactHeight({3: F(1, 10)})
    assert hyperelliptic_height((0, 3, 0, 0)) == ExactHeight({3: F(1, 6)})
    with pytest.raises(ValueError):
        hyperelliptic_height((0, 0, 0, 0))
    with pytest.raises(ValueError):
        hyperelliptic_height((1,))
