from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kolafreq import (
    EmptyLanguageError,
    NoFitFoundError,
    avoided_set,
    certified_fit,
    certified_period,
    degree_profile,
    fit_quasipoly,
    semi_rigorous_bound,
    successive_maxima,
    swap_letters,
)


def synthetic(modulus, slope, constants, n_max, prefix=()):
    values = list(prefix)
    for n in range(len(prefix), n_max + 1):
        values.append(slope * (n // modulus) + constants[n % modulus])
    return values


def test_fit_recovers_synthetic_structure():
    m = synthetic(3, 1, (0, 0, 1), 120)
    fit = fit_quasipoly(m)
    assert (fit.modulus, fit.slope, fit.constants) == (3, 1, (0, 0, 1))
    assert fit.onset == 0
    assert all(fit.predict(n) == m[n] for n in range(121))


def test_fit_prefers_minimal_modulus():
    # (4, 2, (0, 0, 1, 1)) collapses to floor(n/2), so modulus 2 must win.
    m = synthetic(4, 2, (0, 0, 1, 1), 100)
    fit = fit_quasipoly(m)
    assert (fit.modulus, fit.slope) == (2, 1)


def test_fit_finds_onset_after_irregular_prefix():
    m = synthetic(3, 1, (0, 0, 1), 150, prefix=(5, 5, 5, 5, 5, 5))
    fit = fit_quasipoly(m)
    assert fit.modulus == 3
    assert fit.onset == 6
    assert fit.window == (6, 150)


def test_fit_rejects_late_onset():
    # Linear from n = 80 of 100: every modulus up to 25 has its onset past n = 50.
    m = [0] * 80 + list(range(1, 22))
    with pytest.raises(NoFitFoundError):
        fit_quasipoly(m)
    assert fit_quasipoly([0] * 51 + list(range(1, 51))).onset == 50  # N // 2 is in


def test_fit_rejects_non_quasipolynomial_data():
    m = [int(n**0.5) for n in range(200)]
    with pytest.raises(NoFitFoundError):
        fit_quasipoly(m)


def test_fit_input_validation():
    with pytest.raises(ValueError):
        fit_quasipoly([0, 1, 2])
    assert fit_quasipoly([0, 1, 2, 3]).modulus == 1


def test_fit_on_depth1_profile():
    fit = fit_quasipoly(degree_profile(avoided_set(1), 120).min_ones)
    assert (fit.modulus, fit.slope, fit.constants) == (3, 1, (0, 0, 0))
    assert fit.limit == Fraction(1, 3)


def test_fit_on_depth3_profile():
    fit = fit_quasipoly(degree_profile(avoided_set(3), 120).min_ones)
    assert (fit.modulus, fit.slope) == (9, 4)
    assert fit.constants == (0, 0, 0, 1, 1, 1, 2, 2, 3)
    assert fit.limit == Fraction(4, 9)


def test_first_half_fit_predicts_second_half():
    full = degree_profile(avoided_set(3), 200).min_ones
    fit = fit_quasipoly(full[:101])
    assert all(fit.predict(n) == full[n] for n in range(101, 201))


def test_maxima_on_depth1():
    m = degree_profile(avoided_set(1), 120).min_ones
    fit = fit_quasipoly(m)
    report = successive_maxima(m, fit)
    assert report.attained
    assert report.records[-1] == (3, Fraction(1, 3))
    # Equal later ratios must not appear: each record keeps its earliest n.
    assert [n for n, _ in report.records] == sorted({n for n, _ in report.records})


def test_maxima_on_depth3_attained_at_nine():
    m = degree_profile(avoided_set(3), 120).min_ones
    report = successive_maxima(m, fit_quasipoly(m))
    assert report.attained and report.records[-1] == (9, Fraction(4, 9))


def test_maxima_closed_form_depth4():
    m = degree_profile(avoided_set(4), 500).min_ones
    fit = fit_quasipoly(m)
    report = successive_maxima(m, fit)
    assert not report.attained
    assert (report.slope, report.intercept, report.modulus, report.residue) == (7, 1, 15, 3)
    assert report.first_j == 2
    assert report.formula() == "(7 m + 1)/(15 m + 3)"
    assert report.value(2) == Fraction(15, 33)
    for n, r in report.records:
        assert r <= fit.limit


def test_maxima_record_values_match_closed_form():
    m = degree_profile(avoided_set(5), 800).min_ones
    fit = fit_quasipoly(m)
    report = successive_maxima(m, fit)
    for j in range(report.first_j, (800 - 3) // 69 + 1):
        n = 69 * j + 3
        assert (n, report.value(j)) in report.records
    assert report.value(11) == Fraction(364, 762)


def test_semi_rigorous_bound_values():
    for d, eps in ((1, Fraction(1, 6)), (3, Fraction(1, 18)), (4, Fraction(1, 30)),
                   (5, Fraction(1, 46))):
        N = {4: 500, 5: 800}.get(d, 150)
        guessed = semi_rigorous_bound(fit_quasipoly(degree_profile(avoided_set(d), N).min_ones))
        certified = semi_rigorous_bound(certified_fit(avoided_set(d), N))
        assert guessed.epsilon == certified.epsilon == eps
        assert (guessed.rigor, certified.rigor) == ("semi-rigorous", "rigorous")
    assert certified.provenance == "certified-limit(n0=79, P=69, c=33)"


def test_semi_rigorous_flag_without_maxima():
    # An attained limit no longer upgrades a guessed fit: {22} attains 1/2
    # at n = 2, yet 1^n avoids 22.
    m = degree_profile(["22"], 120).min_ones
    fit = fit_quasipoly(m)
    assert successive_maxima(m, fit).attained
    bound = semi_rigorous_bound(fit)
    assert bound.rigor == "semi-rigorous"
    assert "semi-rigorous-limit" in bound.provenance


@pytest.mark.parametrize("d,N,fit,eps", [
    (6, 600, (160, 69, 33), Fraction(1, 46)),
    (7, 1000, (187, 123, 59), Fraction(5, 246)),
    (8, 1000, (290, 123, 59), Fraction(5, 246)),
])
def test_certified_fits_beyond_the_table(d, N, fit, eps):
    certified = certified_fit(avoided_set(d), N)
    assert (certified.certificate, certified.modulus, certified.slope) == (fit, *fit[1:])
    bound = semi_rigorous_bound(certified)
    assert (bound.epsilon, bound.rigor) == (eps, "rigorous")


def test_certified_fit_takes_the_least_period():
    S = ("111", "1211", "2122", "222")
    fit = certified_fit(S, 200)
    assert fit.certificate == (4, 4, 2)
    assert (fit.modulus, fit.slope) == (2, 1)


@pytest.mark.parametrize("S,reason", [
    (("12", "21"), "no certified period"),  # the 1-run state's entry grows without bound
    (("22",), "not closed under swapping"),
])
def test_certified_fit_refusals(S, reason):
    with pytest.raises(ValueError, match=reason):
        certified_fit(S, 200)


def _swap_closed_minimal(drawn: list[str]) -> tuple[str, ...]:
    """The drawn words and their swaps, keeping those that contain no other."""
    words = set(drawn) | {swap_letters(w) for w in drawn}
    return tuple(sorted(w for w in words if not any(u != w and u in w for u in words)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="12", min_size=2, max_size=6), min_size=1, max_size=4)
       .map(_swap_closed_minimal))
@example(("111", "1211", "2122", "222"))  # certificate period 4, least period 2
@example(("12", "21"))  # no certificate; the fitter finds (1, 0)
@example(("22",))  # not swap-closed
def test_certified_fit_agrees_with_the_fitter(S):
    N = 200
    try:
        m = degree_profile(S, N).min_ones
    except EmptyLanguageError:
        return
    try:
        guessed = fit_quasipoly(m)
    except NoFitFoundError:
        guessed = None
    try:
        certified = certified_fit(S, N)
    except ValueError:
        assert {swap_letters(w) for w in S} != set(S) or certified_period(S, N) is None
        return
    assert certified.certificate == certified_period(S, N)
    assert all(certified.predict(n) == m[n] for n in range(certified.onset, N + 1))
    if guessed is not None:
        key = lambda f: (f.modulus, f.slope, f.constants, f.onset)
        assert key(certified) == key(guessed)
