import math
import random

import pytest

from stacky_heights.sympow import (
    QuadraticPoint,
    abs_height,
    discrepancy,
    stable_sym_height,
    sym_height,
)


def test_point_validation():
    with pytest.raises(ValueError):
        QuadraticPoint.irreducible(1, 0, -4)  # square discriminant
    with pytest.raises(ValueError):
        QuadraticPoint.irreducible(1, 2, 1)  # disc 0
    with pytest.raises(ValueError):
        QuadraticPoint.irreducible(-1, 0, 2)  # negative lead
    with pytest.raises(ValueError):
        QuadraticPoint.irreducible(2, 0, -4)  # imprimitive
    with pytest.raises(ValueError):
        QuadraticPoint(form=(1, 0, -2), points=((1, 1), (0, 1)))
    with pytest.raises(ValueError, match=r"\(0, 0\) is not a point"):
        QuadraticPoint.split((0, 0), (1, 2))


def test_stable_height_examples():
    assert math.isclose(
        stable_sym_height(QuadraticPoint.irreducible(1, 0, -2)), math.log(2), rel_tol=1e-12
    )
    assert stable_sym_height(QuadraticPoint.split((1, 1), (-1, 1))) == 0.0
    assert abs(stable_sym_height(QuadraticPoint.irreducible(1, 0, 1))) < 1e-12


def test_sym_height_examples():
    assert math.isclose(
        sym_height(QuadraticPoint.irreducible(1, 0, -2)), 2.5 * math.log(2), rel_tol=1e-12
    )
    golden = QuadraticPoint.irreducible(1, -1, -1)
    assert math.isclose(
        sym_height(golden),
        math.log((1 + 5**0.5) / 2) + 0.5 * math.log(5),
        rel_tol=1e-12,
    )
    assert sym_height(QuadraticPoint.split((0, 1), (1, 1))) == 0.0


def test_split_heights_are_weil_heights():
    q = QuadraticPoint.split((3, 4), (7, 2))
    assert math.isclose(stable_sym_height(q), math.log(4) + math.log(7), rel_tol=1e-12)
    assert discrepancy(q) == 0.0
    assert sym_height(q) == stable_sym_height(q)
    # point at infinity has height 0
    assert stable_sym_height(QuadraticPoint.split((1, 0), (5, 1))) == math.log(5)


def test_discrepancy_examples():
    assert math.isclose(
        discrepancy(QuadraticPoint.irreducible(1, 0, -2)), 1.5 * math.log(2), rel_tol=1e-12
    )
    assert math.isclose(
        discrepancy(QuadraticPoint.irreducible(1, -1, -1)), 0.5 * math.log(5), rel_tol=1e-12
    )


def test_field_discriminant():
    assert QuadraticPoint.irreducible(1, 0, -2).field_discriminant() == 8
    assert QuadraticPoint.irreducible(1, 0, 1).field_discriminant() == -4
    assert QuadraticPoint.irreducible(1, -1, -1).field_discriminant() == 5
    assert QuadraticPoint.irreducible(3, 1, -1).field_discriminant() == 13
    assert QuadraticPoint.split((1, 1), (2, 1)).field_discriminant() == 1


def test_field_discriminant_factors_the_discriminant_once(factor_calls):
    # 12 * 7^2 = 588 = -(b^2 - 4ac) for (1, 0, 147): squarefree part -3
    assert QuadraticPoint.irreducible(1, 0, 147).field_discriminant() == -3
    assert QuadraticPoint.irreducible(1, 2, -17).field_discriminant() == 8  # 72 = 2 * 6^2
    assert set(factor_calls) == {588, 72}


def test_sym2_heights_share_one_factorization(factor_calls):
    # the discriminant is factored once per point, when it is built; the
    # heights and field_discriminant() read what it found
    q = QuadraticPoint.irreducible(3, 1, -1)  # b^2 - 4ac = 13
    assert factor_calls == [13]
    sym_height(q)
    discrepancy(q)
    assert q.field_discriminant() == 13
    assert factor_calls == [13]
    assert QuadraticPoint.split((1, 1), (2, 1)).field_discriminant() == 1
    assert factor_calls == [13]


def test_abs_height_examples():
    assert math.isclose(
        abs_height(QuadraticPoint.irreducible(1, 0, -2)), math.sqrt(2), rel_tol=1e-12
    )
    assert math.isclose(abs_height(QuadraticPoint.irreducible(1, 0, 1)), 1.0, rel_tol=1e-12)
    assert math.isclose(
        abs_height(QuadraticPoint.irreducible(2, 0, -1)), math.sqrt(2), rel_tol=1e-12
    )
    with pytest.raises(ValueError):
        abs_height(QuadraticPoint.split((1, 1), (2, 1)))


def test_height_decomposition_and_positivity():
    rng = random.Random(3)
    n = 0
    while n < 200:
        a = rng.randint(1, 30)
        b = rng.randint(-60, 60)
        c = rng.randint(-60, 60)
        if math.gcd(math.gcd(a, b), c) != 1:
            continue
        disc = b * b - 4 * a * c
        if disc >= 0 and math.isqrt(disc) ** 2 == disc:
            continue
        q = QuadraticPoint.irreducible(a, b, c)
        n += 1
        assert sym_height(q) >= stable_sym_height(q) - 1e-12
        assert math.isclose(
            sym_height(q), stable_sym_height(q) + discrepancy(q), rel_tol=1e-12
        )
        # discriminant bound: (1/2) log |disc(field)| <= (1/2) log |disc f|
        # <= log M(f) + log 4 for quadratics
        half_log_field = discrepancy(q)
        half_log_form = 0.5 * math.log(abs(disc))
        assert half_log_field <= half_log_form + 1e-9
        assert half_log_form <= stable_sym_height(q) + math.log(4) + 1e-9


def test_galois_invariance():
    # the height sees the unordered conjugate pair: split order is
    # irrelevant, and the primitive form determines everything
    q1 = QuadraticPoint.split((3, 4), (7, 2))
    q2 = QuadraticPoint.split((7, 2), (3, 4))
    assert sym_height(q1) == sym_height(q2)
    # equivalent representations of the same rational points
    q3 = QuadraticPoint.split((6, 8), (-7, -2))
    assert sym_height(q3) == sym_height(q1)
