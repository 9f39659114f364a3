from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from kolafreq import (
    Bound,
    DegenerateDenominatorError,
    DegreeProfile,
    RationalGF,
    WeightPoly,
    avoided_set,
    best_bound,
    bound_from_denominator,
    bound_from_term,
    degree_profile,
    maxratio,
    minratio,
    weight_gf,
)
from kolafreq.bounds import decimal
from kolafreq.verification import REF_S3_DEN

# Non-constant monomials (ones, twos) with positive coefficients, so that
# products cancel no term.
monomial_keys = st.tuples(st.integers(0, 10), st.integers(0, 10)).filter(lambda k: sum(k) > 0)
positive_polys = st.dictionaries(monomial_keys, st.integers(1, 9), min_size=1, max_size=8).map(
    WeightPoly
)


def test_minratio_of_s1_denominator():
    d = weight_gf(avoided_set(1)).d_poly()
    assert minratio(d) == Fraction(1, 3)
    assert maxratio(d) == Fraction(2, 3)


def test_minratio_of_s3_reference_denominator():
    d = WeightPoly.one() - WeightPoly(REF_S3_DEN)
    assert minratio(d) == Fraction(4, 9)
    assert maxratio(d) == Fraction(5, 9)


def test_minratio_single_entry():
    m = WeightPoly({(2, 1): 5})
    assert minratio(m) == Fraction(2, 3)
    assert maxratio(m) == Fraction(2, 3)


def test_ratios_range_over_non_constant_terms():
    with pytest.raises(ValueError):
        minratio(WeightPoly.zero())
    with pytest.raises(ValueError):
        maxratio(WeightPoly.constant(7))
    assert minratio(WeightPoly({(0, 0): 7, (1, 1): 1})) == Fraction(1, 2)
    assert maxratio(WeightPoly({(0, 0): 7, (1, 1): 1, (0, 3): -2})) == Fraction(1, 2)


def test_bound_from_term_examples():
    assert bound_from_term(1, 2, 3).epsilon == Fraction(1, 6)
    assert bound_from_term(364, 398, 762).epsilon == Fraction(17, 762)
    assert bound_from_term(0, 9, 9).epsilon == Fraction(1, 2)
    with pytest.raises(ValueError):
        bound_from_term(2, 1, 3)
    with pytest.raises(ValueError):
        bound_from_term(0, 0, 0)


def test_bound_fields_are_exact_and_symmetric():
    b = bound_from_term(364, 398, 762)
    assert isinstance(b.epsilon, Fraction)
    assert b.lower == Fraction(1, 2) - b.epsilon
    assert b.upper == Fraction(1, 2) + b.epsilon
    assert b.rigor == "rigorous"
    assert "series-term(762)" in b.provenance
    assert "limiting frequency exists" in b.render()
    with pytest.raises(ValueError, match="epsilon out of range"):
        Bound(Fraction(-1, 6), "x")
    with pytest.raises(ValueError, match="epsilon out of range"):
        Bound(Fraction(2, 3), "x")


def test_rigor_is_a_constant_and_not_a_field():
    assert Bound(Fraction(1, 6), "x").rigor == "rigorous"
    with pytest.raises(TypeError):
        Bound(Fraction(1, 6), "x", "semi-rigorous")


def test_decimal_rendering_matches_published_style():
    assert decimal(Fraction(17, 762)) == "0.0223097"
    assert decimal(Fraction(1, 46)) == "0.0217391"


def test_bound_from_denominator():
    assert bound_from_denominator(weight_gf(avoided_set(1))).epsilon == Fraction(1, 6)
    ref = RationalGF(WeightPoly.one(), WeightPoly(REF_S3_DEN))
    assert bound_from_denominator(ref).epsilon == Fraction(1, 18)


def test_degenerate_denominator():
    gf = RationalGF(WeightPoly.one(), WeightPoly.one())
    with pytest.raises(DegenerateDenominatorError):
        bound_from_denominator(gf)


def test_best_bound_s1():
    n, b = best_bound(degree_profile(avoided_set(1), 200))
    assert (n, b.epsilon) == (3, Fraction(1, 6))
    with pytest.raises(ValueError):
        best_bound(degree_profile(avoided_set(1), 0))


def _profile(entries: list[tuple[int, int]]) -> DegreeProfile:
    """A profile whose length-n extremes satisfy 0 <= min <= max <= n."""
    mins, maxs = [0], [0]
    for n, (a, b) in enumerate(entries, start=1):
        lo = a % (n + 1)
        mins.append(lo)
        maxs.append(lo + b % (n + 1 - lo))
    return DegreeProfile((), len(entries), tuple(mins), tuple(maxs))


def _fraction_best(profile: DegreeProfile) -> tuple[int, Fraction]:
    best = None
    for n in range(1, profile.N + 1):
        eps = max(Fraction(1, 2) - Fraction(profile.min_ones[n], n),
                  Fraction(profile.max_ones[n], n) - Fraction(1, 2))
        if best is None or eps < best[1]:
            best = (n, eps)
    return best


@given(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)),
                min_size=1, max_size=40).map(_profile))
@example(DegreeProfile((), 4, (0, 0, 1, 1, 2), (0, 1, 1, 2, 2)))  # epsilon 0 at n = 2 and 4
@example(DegreeProfile((), 6, (0, 0, 0, 1, 1, 1, 2), (0, 1, 2, 2, 3, 4, 4)))  # 1/6 at n = 3, 6
@example(DegreeProfile((), 2, (0, 0, 1), (0, 1, 2)))  # 1/2 everywhere
def test_best_bound_matches_a_fraction_search(profile):
    n, bound = best_bound(profile)
    assert (n, bound.epsilon) == _fraction_best(profile)
    assert bound == bound_from_term(profile.min_ones[n], profile.max_ones[n], n)


def test_best_bound_matches_denominator_bound_for_small_depths():
    for d in (1, 2, 3):
        _, b = best_bound(degree_profile(avoided_set(d), 200))
        assert b.epsilon == bound_from_denominator(weight_gf(avoided_set(d))).epsilon


def test_minratio_of_denominator_powers_is_stable():
    d = weight_gf(avoided_set(1)).d_poly()
    for k in (1, 2, 3, 4):
        assert minratio(prod([d] * k)) == Fraction(1, 3)


def test_minratio_with_numerator_converges_from_below():
    gf = weight_gf(avoided_set(1))
    num, d = gf.numerator, gf.d_poly()
    # The numerator's pure-x2 term drags early products below 1/3; the
    # minimum is x2^2 t^2 * (x1 x2^2 t^3)^k, giving k/(3k + 2) -> 1/3.
    values = [minratio(num * prod([d] * k)) for k in range(1, 6)]
    assert values == [Fraction(k, 3 * k + 2) for k in range(1, 6)]
    assert values == sorted(values)
    assert all(v <= Fraction(1, 3) for v in values)


@given(positive_polys, positive_polys)
def test_minratio_mediant_property(left, right):
    # A product's ratio (o1 + o2)/(n1 + n2) is a mediant of its factors' ratios.
    assert minratio(left * right) >= min(minratio(left), minratio(right))
    assert maxratio(left * right) <= max(maxratio(left), maxratio(right))
