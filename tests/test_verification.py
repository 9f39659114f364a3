"""Each check of the full suite fails, naming its witness, when its input is perturbed.

Every case patches one input of one check (a computed object, or a row of a
reference table in the patched module only) and expects the exact detail the
check returns.  No cache keeps a perturbed object: a patched builder wraps
the cached one, and a check whose words are patched fails before any cached
builder reads them.  The failures already pinned elsewhere (the gf-s1
denominator and the m = 11 record in test_cli.py, an avoided word in the
10^7 prefix in test_acceptance.py) are not repeated.
"""

from fractions import Fraction

import pytest

from kolafreq import (
    Bound,
    DegreeProfile,
    MaximaReport,
    RationalGF,
    Series,
    WeightPoly,
    avoided_set,
    degree_profile,
    verification,
    weight_gf,
)
from kolafreq.verification import FULL_CHECKS, REF_QUASIPOLY, REF_RESULTS_TABLE, REF_S1_DEN

CHECKS = dict(FULL_CHECKS)


def moved(series: Series, n: int, a: int) -> Series:
    """The series with one word of slice n moved from a ones to a + 1."""
    row = list(series.slices[n])
    row[a] -= 1
    row[a + 1] += 1
    return Series(series.slices[:n] + (tuple(row),) + series.slices[n + 1:])


def wrap(monkeypatch, name, change):
    """Patch verification.<name> to pass each call's result through change(result, *args)."""
    real = getattr(verification, name)
    monkeypatch.setattr(verification, name, lambda *args: change(real(*args), *args))


def table_row(monkeypatch, d, **changes):
    """Patch the row of depth d of REF_RESULTS_TABLE."""
    fields = ("d", "size", "N", "n", "eps")
    rows = [tuple(changes.get(f, x) for f, x in zip(fields, row)) if row[0] == d else row
            for row in REF_RESULTS_TABLE]
    monkeypatch.setattr(verification, "REF_RESULTS_TABLE", tuple(rows))


def s3_den_witness():
    den = weight_gf(avoided_set(3)).denominator
    return f"denominator mismatch: {den + WeightPoly({(9, 9): 1})}"


def replaced_word(d, old, new):
    """Patch words_for_depth(d) to hold new in place of old."""
    return lambda monkeypatch: wrap(monkeypatch, "words_for_depth", lambda words, k: tuple(
        new if k == d and w == old else w for w in words))


def maxima_not_attained(r, *_):
    return MaximaReport(r.records, r.modulus, r.slope, r.residue, r.intercept, r.first_j, False)


def out_of_range(p, d, N):
    if d != 2:
        return p
    return DegreeProfile(p.words, p.N, p.min_ones, p.max_ones[:5] + (6,) + p.max_ones[6:])


def changed_at_100(p, d, N):
    if (d, N) != (6, 600):
        return p
    return DegreeProfile(p.words, p.N, p.min_ones[:100] + (p.min_ones[100] + 1,) + p.min_ones[101:],
                         p.max_ones)


CASES = [
    # gf-s1: the closed form's numerator, and its expansion against the series.
    pytest.param("gf-s1", lambda mp: mp.setattr(
        verification, "weight_gf", lambda words: RationalGF(WeightPoly.one(), WeightPoly(REF_S1_DEN))),
        lambda: "numerator mismatch: 1", id="gf-s1-numerator"),
    pytest.param("gf-s1", lambda mp: wrap(mp, "series_from_gf", lambda s, gf, n: moved(s, 7, 3)),
        lambda: "series expansion of the closed form disagrees with direct series", id="gf-s1-series"),
    # gf-s3: its denominator, the minratio read off it, and its epsilon.
    pytest.param("gf-s3", lambda mp: wrap(mp, "weight_gf", lambda gf, words: RationalGF(
        gf.numerator, gf.denominator + WeightPoly({(9, 9): 1}))),
        s3_den_witness, id="gf-s3-denominator"),
    pytest.param("gf-s3", lambda mp: wrap(mp, "minratio", lambda r, d: r + Fraction(1, 90)),
        lambda: "minratio 41/90 != 4/9", id="gf-s3-minratio"),
    pytest.param("gf-s3", lambda mp: mp.setattr(
        verification, "bound_from_denominator", lambda gf: Bound(Fraction(1, 17), "denominator")),
        lambda: "epsilon 1/17 != 1/18", id="gf-s3-epsilon"),
    pytest.param("series-s1", lambda mp: wrap(mp, "series_for_depth", lambda s, d, N: moved(s, 3, 1)),
        lambda: "series mismatch: ((1,), (1, 1), (1, 2, 1), (0, 2, 4, 0), (0, 2, 6, 2, 0), "
                "(0, 1, 7, 7, 1, 0))", id="series-s1"),
    # triple-oracle: the counting DP, then brute force, against the GJ series.
    pytest.param("triple-oracle", lambda mp: wrap(
        mp, "weight_poly_dp", lambda s, words, n: moved(s, 10, 4) if len(words) == 6 else s),
        lambda: "cluster series and counting DP disagree at d=2", id="triple-oracle-dp"),
    pytest.param("triple-oracle", lambda mp: wrap(
        mp, "enumerate_brute", lambda s, words, n: moved(s, 7, 3) if len(words) == 14 else s),
        lambda: "oracle disagreement at d=3, n=7", id="triple-oracle-brute"),
    # results-table: a set's size, then a row's (n, epsilon).
    pytest.param("results-table", lambda mp: table_row(mp, 2, size=7),
        lambda: "d=2: set size 6 != 7", id="results-table-size"),
    pytest.param("results-table", lambda mp: table_row(mp, 4, eps=Fraction(1, 30)),
        lambda: "d=4: got (n=498, eps=17/498), want (n=498, eps=1/30)", id="results-table-row"),
    # results-table-gj: an empty slice, a profile that differs, and a row.
    pytest.param("results-table-gj", lambda mp: wrap(mp, "series_for_depth", lambda s, d, N: Series(
        s.slices[:5] + ((0,) * 6,) + s.slices[6:]) if d == 2 else s),
        lambda: "d=2: no word of length 5 avoids the set", id="results-table-gj-empty"),
    pytest.param("results-table-gj", lambda mp: wrap(
        mp, "profile_for_depth", lambda p, d, N: degree_profile(p.words, N + 1) if d == 2 else p),
        lambda: "d=2: series profile disagrees with automaton profile", id="results-table-gj-profile"),
    pytest.param("results-table-gj", lambda mp: table_row(mp, 3, eps=Fraction(1, 17)),
        lambda: "d=3: got (n=9, eps=1/18), want (n=9, eps=1/17)", id="results-table-gj-row"),
    pytest.param("quasipoly-fits", lambda mp: mp.setitem(
        REF_QUASIPOLY, 4, (15, 8, REF_QUASIPOLY[4][2])),
        lambda: (f"d=4: fit (M=15, c=7, k={REF_QUASIPOLY[4][2]}) "
                 f"!= (M=15, c=8, k={REF_QUASIPOLY[4][2]})"), id="quasipoly-fits"),
    # limits-and-maxima: a limit, an epsilon, a maxima formula, an attained limit.
    pytest.param("limits-and-maxima", lambda mp: mp.setitem(verification.REF_LIMITS, 3, Fraction(1, 2)),
        lambda: "d=3: limit 4/9 != 1/2", id="limits-and-maxima-limit"),
    pytest.param("limits-and-maxima", lambda mp: mp.setitem(
        verification.REF_EPSILONS, 4, Fraction(1, 31)),
        lambda: "d=4: rigorous epsilon 1/30 != 1/31", id="limits-and-maxima-epsilon"),
    pytest.param("limits-and-maxima", lambda mp: mp.setitem(verification.REF_MAXIMA, 4, (1, 3, 3)),
        lambda: "d=4: maxima (1, 3, 2), attained=False", id="limits-and-maxima-formula"),
    pytest.param("limits-and-maxima", lambda mp: wrap(mp, "successive_maxima", maxima_not_attained),
        lambda: "d=1: limit should be attained", id="limits-and-maxima-attained"),
    pytest.param("d6-anomaly", lambda mp: wrap(mp, "profile_for_depth", changed_at_100),
        lambda: "differences at [62, 100], expected exactly [62]", id="d6-anomaly"),
    # properties: a set's size, factor-freeness and swap-closure, the series'
    # counts and symmetry, and the profiles' invariants and steps.
    pytest.param("properties", lambda mp: wrap(
        mp, "words_for_depth", lambda words, d: words[:-1] if d == 3 else words),
        lambda: "|S_3| = 13 != 14", id="properties-size"),
    pytest.param("properties", replaced_word(4, "121221211212", "1112"),
        lambda: "S_4 not factor-free: ('111', '1112')", id="properties-factor-free"),
    pytest.param("properties", replaced_word(2, "221122", "221121"),
        lambda: "S_2 is not closed under swapping the letters", id="properties-swap"),
    pytest.param("properties", lambda mp: wrap(
        mp, "series_for_depth", lambda s, d, N: moved(s, 3, 0) if d == 2 else s),
        lambda: "d=2: negative coefficient in slice 3", id="properties-counts"),
    pytest.param("properties", lambda mp: wrap(
        mp, "series_for_depth", lambda s, d, N: moved(s, 3, 1) if d == 1 else s),
        lambda: "d=1, n=3: slice not swap-symmetric", id="properties-symmetry"),
    pytest.param("properties", lambda mp: wrap(mp, "profile_for_depth", out_of_range),
        lambda: "d=2: extremes out of range at n=5", id="properties-invariants"),
    pytest.param("properties", lambda mp: wrap(mp, "profile_for_depth", lambda p, d, N: degree_profile(
        ("112", "21", "222"), N) if d == 3 else p),  # its fewest ones jump by 3 at n = 4
        lambda: "d=3: an extreme steps by neither 0 nor 1 at n=3", id="properties-steps"),
]


@pytest.mark.parametrize("name, perturb, witness", CASES)
def test_each_check_fails_with_its_witness(monkeypatch, name, perturb, witness):
    perturb(monkeypatch)
    assert CHECKS[name]() == (False, witness())


def test_every_full_check_has_a_failing_case():
    assert {case.values[0] for case in CASES} == set(CHECKS)


def test_run_checks_reports_a_check_that_raises_as_a_failure(monkeypatch):
    def refuse(words, n):
        raise RuntimeError("counting DP refused")

    monkeypatch.setattr(verification, "weight_poly_dp", refuse)
    results = verification.run_checks()
    assert [r.name for r in results] == list(CHECKS)
    assert [(r.name, r.detail) for r in results if not r.ok] == [
        ("triple-oracle", "RuntimeError: counting DP refused")]
