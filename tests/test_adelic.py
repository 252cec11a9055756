import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stacky_heights.adelic import (
    ExactHeight,
    HeightBreakdown,
    combine,
    height_from_sections,
)


def test_exact_height_algebra():
    h1 = ExactHeight({2: F(1, 2), 3: 1})
    h2 = ExactHeight({2: F(-1, 2), 5: 2})
    assert (h1 + h2) == ExactHeight({3: 1, 5: 2})  # 2-term cancels exactly
    assert h1 - h1 == ExactHeight.zero()
    assert -h1 == ExactHeight({2: F(-1, 2), 3: -1})
    assert h1 * F(2, 3) == ExactHeight({2: F(1, 3), 3: F(2, 3)})
    assert 2 * h1 == ExactHeight({2: 1, 3: 2})
    assert ExactHeight({2: 0, 3: 1}) == ExactHeight({3: 1})  # zeros dropped
    assert hash(h1) == hash(ExactHeight({3: 1, 2: F(1, 2)}))


def test_value_and_log_abs():
    h = ExactHeight.log_abs(12)
    assert h == ExactHeight({2: 2, 3: 1})
    assert math.isclose(h.value(), math.log(12), rel_tol=1e-12)
    assert ExactHeight.log_abs(F(3, 4)) == ExactHeight({2: -2, 3: 1})
    assert ExactHeight.log_abs(-90, F(1, 2)) == ExactHeight({2: F(1, 2), 3: 1, 5: F(1, 2)})
    with pytest.raises(ValueError):
        ExactHeight.log_abs(0)


def test_json_roundtrip():
    h = ExactHeight({2: F(2, 3), 3: F(1, 3)})
    obj = h.to_json()
    assert obj["terms"] == [[2, 2, 3], [3, 1, 3]]
    assert math.isclose(obj["value"], h.value())
    assert ExactHeight.from_json(obj) == h


def test_height_from_sections_examples():
    assert height_from_sections(2, [12]) == ExactHeight({3: F(1, 2)})
    assert height_from_sections(1, [1]) == ExactHeight.zero()
    assert height_from_sections(3, [12]) == ExactHeight({2: F(2, 3), 3: F(1, 3)})


def test_height_from_sections_factors_each_value_once(factor_calls):
    values = [12, -45 * 1_000_003, 77, 999_983**2]
    height_from_sections(2, values)
    assert sorted(factor_calls) == sorted(abs(v) for v in values)
    factor_calls.clear()
    height_from_sections(3, [F(-9, 8), F(1_000_003, 49)])
    assert sorted(factor_calls) == [8, 9, 49, 1_000_003]


def test_height_from_sections_errors():
    with pytest.raises(ValueError):
        height_from_sections(2, [])
    with pytest.raises(ValueError):
        height_from_sections(2, [3, 0])
    with pytest.raises(ValueError):
        height_from_sections(0, [3])


nonzero_rationals = st.builds(
    F,
    st.integers(-(10**4), 10**4).filter(bool),
    st.integers(1, 10**4),
)


@settings(max_examples=200)
@given(
    st.integers(1, 5),
    st.lists(nonzero_rationals, min_size=1, max_size=4),
    st.builds(F, st.integers(-60, 60).filter(bool), st.integers(1, 60)),
)
def test_trivialization_scaling_invariance(n, values, lam):
    base = height_from_sections(n, values)
    scaled = height_from_sections(n, [lam**n * v for v in values])
    assert base == scaled


@settings(max_examples=200)
@given(nonzero_rationals)
def test_affine_coordinates_give_weil_height(x):
    # sections {1, x} of O(1): the classical Weil height log max(|num|, |den|)
    got = height_from_sections(1, [1, x])
    want = ExactHeight.log_abs(max(abs(x.numerator), x.denominator))
    assert got == want


@settings(max_examples=100)
@given(nonzero_rationals)
def test_single_section_trivializes(x):
    # one generating section makes the bundle generically trivial, so the
    # height collapses to zero by the product formula
    assert height_from_sections(1, [x]) == ExactHeight.zero()


def test_repeat_evaluation_identical():
    vals = [F(9, 8), F(-14, 45), 77]
    a = height_from_sections(4, vals)
    b = height_from_sections(4, vals)
    assert a == b and a.to_json() == b.to_json()


def test_combine_examples():
    hb = combine(ExactHeight.zero(), {})
    assert hb.total == ExactHeight.zero()
    hb = combine(ExactHeight({2: 1}), {3: ExactHeight({3: F(1, 2)})})
    assert hb.total == ExactHeight({2: 1, 3: F(1, 2)})
    assert hb.stable == ExactHeight({2: 1})
    assert set(hb.discrepancies) == {3}


def test_combine_rejects_negative_discrepancy():
    with pytest.raises(ValueError):
        combine(ExactHeight.zero(), {2: ExactHeight({2: -1})})


def test_breakdown_json_roundtrip():
    hb = combine(ExactHeight({5: F(1, 6)}), {2: ExactHeight({2: F(1, 2)})})
    back = HeightBreakdown.from_json(hb.to_json())
    assert back.total == hb.total
    assert back.stable == hb.stable
    assert back.discrepancies == hb.discrepancies


def test_breakdown_requires_every_field():
    # a total defaulted to zero would contradict "total is their sum"
    with pytest.raises(TypeError):
        HeightBreakdown(ExactHeight({2: 1}))
    with pytest.raises(TypeError):
        HeightBreakdown(ExactHeight({2: 1}), {})


def test_breakdown_from_json_rejects_a_wrong_total():
    obj = combine(ExactHeight({5: F(1, 6)}), {2: ExactHeight({2: F(1, 2)})}).to_json()
    obj["total"] = ExactHeight({5: F(1, 6)}).to_json()
    with pytest.raises(ValueError, match="stored total"):
        HeightBreakdown.from_json(obj)
    # the parts still go through combine's checks
    obj = {
        "stable": ExactHeight.zero().to_json(),
        "discrepancies": [[2, ExactHeight({2: -1}).to_json()]],
        "total": ExactHeight({2: -1}).to_json(),
    }
    with pytest.raises(ValueError, match="negative discrepancy"):
        HeightBreakdown.from_json(obj)


# Only ints and Fractions are exact: each entry point refuses a float, a
# Decimal and a str with a TypeError naming the type.
NOT_RATIONAL = [0.3, Decimal("0.3"), "3/10"]


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=lambda x: type(x).__name__)
def test_constructor_rejects_non_rationals(bad):
    with pytest.raises(TypeError, match=type(bad).__name__):
        ExactHeight({2: bad})


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=lambda x: type(x).__name__)
def test_log_abs_rejects_non_rationals(bad):
    with pytest.raises(TypeError, match=type(bad).__name__):
        ExactHeight.log_abs(bad)
    with pytest.raises(TypeError, match=type(bad).__name__):
        ExactHeight.log_abs(12, bad)


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=lambda x: type(x).__name__)
def test_scaling_rejects_non_rationals(bad):
    h = ExactHeight({2: 1})
    with pytest.raises(TypeError, match=type(bad).__name__):
        h * bad
    with pytest.raises(TypeError, match=type(bad).__name__):
        bad * h


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=lambda x: type(x).__name__)
def test_height_from_sections_rejects_non_rationals(bad):
    with pytest.raises(TypeError, match=type(bad).__name__):
        height_from_sections(2, [bad, 3])


# Canonical form: terms reads every coefficient back as a nonzero Fraction,
# and the arithmetic agrees with a Counter of Fractions summed here.
POOL = [2, 3, 5, 7, 1_000_003]
coefficients = st.one_of(
    st.integers(-3, 3), st.builds(F, st.integers(-6, 6), st.integers(1, 4))
)
term_maps = st.dictionaries(st.sampled_from(POOL), coefficients, max_size=5)
scales = st.builds(F, st.integers(-5, 5), st.integers(1, 3))


def reference(*scaled_maps):
    total = Counter()
    for terms, scale in scaled_maps:
        for p, c in terms.items():
            total[p] += F(c) * scale
    return {p: c for p, c in total.items() if c != 0}


def canonical(h):
    terms = h.terms
    assert all(type(c) is F and c != 0 for c in terms.values()), terms
    return terms


@settings(max_examples=300, deadline=None)
@given(term_maps, term_maps, st.sets(st.sampled_from(POOL)), scales)
def test_arithmetic_keeps_canonical_form(a, b, flip, r):
    # b also takes the negatives of some of a's coefficients, so sums cancel
    b = {**b, **{p: -a[p] for p in flip if p in a}}
    ha, hb = ExactHeight(a), ExactHeight(b)
    assert canonical(ha) == reference((a, 1))
    assert canonical(ha + hb) == reference((a, 1), (b, 1))
    assert canonical(ha - hb) == reference((a, 1), (b, -1))
    assert canonical(-ha) == reference((a, -1))
    assert canonical(ha * r) == canonical(r * ha) == reference((a, r))
    assert canonical(ha * 0) == canonical(ha * F(0)) == {}
    assert canonical(ha + (-ha)) == {}


@settings(max_examples=300, deadline=None)
@given(term_maps, st.dictionaries(st.integers(0, 20), term_maps, max_size=4))
def test_combine_keeps_canonical_form(a, discs):
    # with the signs as drawn, the first discrepancy holding a negative
    # coefficient is named; with absolute values the sum goes through
    stable = ExactHeight(a)
    negative = [k for k, m in discs.items() if any(c < 0 for c in m.values())]
    if negative:
        with pytest.raises(ValueError, match=f"at prime {negative[0]}$"):
            combine(stable, {k: ExactHeight(m) for k, m in discs.items()})
    discs = {k: {p: abs(c) for p, c in m.items()} for k, m in discs.items()}
    hb = combine(stable, {k: ExactHeight(m) for k, m in discs.items()})
    assert canonical(hb.total) == reference((a, 1), *((m, 1) for m in discs.values()))
    assert hb.stable is stable
    assert set(hb.discrepancies) == {k for k, m in discs.items() if reference((m, 1))}
    for k, d in hb.discrepancies.items():
        assert canonical(d) == reference((discs[k], 1))


# Section values built from exponents over the pool, so each valuation is
# known without factoring.
section_values = st.tuples(
    st.sampled_from([1, -1]),
    st.dictionaries(st.sampled_from(POOL), st.integers(-4, 4), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(section_values, min_size=1, max_size=4))
def test_height_from_sections_keeps_canonical_form(n, drawn):
    values = [sign * math.prod(F(p) ** e for p, e in ords.items()) for sign, ords in drawn]
    top = max(range(len(values)), key=lambda i: abs(values[i]))
    want = {}
    for p in POOL:
        low = min(ords.get(p, 0) for _, ords in drawn)
        want[p] = F(drawn[top][1].get(p, 0), n) + math.ceil(F(-low, n))
    got = height_from_sections(n, values)
    assert canonical(got) == reference((want, 1))
    # the section evaluator is one more route to the same canonical form
    for h in routes(reference((want, 1)), 2).values():
        assert h == got and hash(h) == hash(got)


def routes(terms, k):
    """The height with these Fraction coefficients, built by each
    construction route.  The int numerators are taken over k times the
    least common denominator, and log_abs is fed p^k, so for k > 1 every
    route but the Fraction map starts from unreduced input."""
    D = k * math.lcm(*(F(c).denominator for c in terms.values()))
    nums = {p: int(F(c) * D) for p, c in terms.items()}
    return {
        "fractions": ExactHeight(terms),
        "ints": ExactHeight.over(D, nums),
        "log_abs": sum(
            (ExactHeight.log_abs(p**k, F(c) / k) for p, c in terms.items()), ExactHeight.zero()
        ),
        "scaling": ExactHeight.over(1, nums) * F(1, D),
        "combine": combine(
            ExactHeight({p: c for p, c in terms.items() if c <= 0}),
            {p: ExactHeight({p: c}) for p, c in terms.items() if c > 0},
        ).total,
    }


@settings(max_examples=300, deadline=None)
@given(term_maps, term_maps, st.booleans(), st.integers(1, 4), st.integers(1, 4))
def test_every_route_gives_one_canonical_form(a, b, same, ka, kb):
    # heights compare and hash equal exactly when their Fraction references
    # agree, whichever routes built them and however unreduced their input
    if same:
        b = {p: F(c) for p, c in a.items()}
    built = [
        (name, reference((m, 1)), h)
        for m, k in ((a, ka), (b, kb))
        for name, h in routes(m, k).items()
    ]
    for name, ref, h in built:
        assert canonical(h) == ref, name
        for name2, ref2, h2 in built:
            assert (h == h2) == (ref == ref2), (name, name2)
            if ref == ref2:
                assert hash(h) == hash(h2), (name, name2)


def test_int_constructor_reduces_to_lowest_terms():
    h = ExactHeight.over(4, {2: 2, 3: 0, 5: -6})
    assert h.terms == {2: F(1, 2), 5: F(-3, 2)}
    assert h.coefficient(2) == F(1, 2) and h.coefficient(3) == 0
    assert h.to_json()["terms"] == [[2, 1, 2], [5, -3, 2]]
    assert h == ExactHeight({2: F(1, 2), 5: F(-3, 2)})
    # one shared denominator, but each coefficient reads back reduced
    assert ExactHeight.over(6, {2: 3, 3: 2}).to_json()["terms"] == [[2, 1, 2], [3, 1, 3]]
    assert ExactHeight.over(3, {7: 6}) == ExactHeight({7: 2})
    assert ExactHeight.over(5, {7: 0}) == ExactHeight.zero()


@pytest.mark.parametrize("den", [0, -1, -4])
def test_int_constructor_rejects_denominator_below_1(den):
    with pytest.raises(ValueError, match="denominator"):
        ExactHeight.over(den, {2: 1})


@pytest.mark.parametrize("bad", [F(1, 2), 0.5, Decimal(1), "1"], ids=lambda x: type(x).__name__)
def test_int_constructor_rejects_non_ints(bad):
    with pytest.raises(TypeError, match=type(bad).__name__):
        ExactHeight.over(2, {3: bad})
    with pytest.raises(TypeError, match=type(bad).__name__):
        ExactHeight.over(bad, {3: 1})
