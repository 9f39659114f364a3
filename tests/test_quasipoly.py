from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kolafreq import automaton, verification
from kolafreq import (
    DegreeProfile,
    EmptyLanguageError,
    avoided_set,
    best_bound,
    certified_fit,
    degree_profile,
    successive_maxima,
    swap_letters,
    weight_series,
)


def test_fit_input_validation():
    # A profile read off a series carries no certificate, so it gets no fit.
    S = avoided_set(1)
    with pytest.raises(ValueError, match="no certified period within 30 steps"):
        certified_fit(DegreeProfile.from_series(S, weight_series(S, 30)))


def test_fit_on_depth1_profile():
    fit = certified_fit(degree_profile(avoided_set(1), 120))
    assert (fit.modulus, fit.slope, fit.constants) == (3, 1, (0, 0, 0))
    assert fit.limit == Fraction(1, 3)


def test_fit_on_depth3_profile():
    fit = certified_fit(degree_profile(avoided_set(3), 120))
    assert (fit.modulus, fit.slope) == (9, 4)
    assert fit.constants == (0, 0, 0, 1, 1, 1, 2, 2, 3)
    assert fit.limit == Fraction(4, 9)


def test_first_half_fit_predicts_second_half():
    # The certificate proves the structure for every n, beyond the profile.
    full = degree_profile(avoided_set(3), 200).min_ones
    fit = certified_fit(degree_profile(avoided_set(3), 100))
    assert all(fit.predict(n) == full[n] for n in range(101, 201))


def test_maxima_on_depth1():
    profile = degree_profile(avoided_set(1), 120)
    report = successive_maxima(profile.min_ones, certified_fit(profile))
    assert report.attained
    assert report.records[-1] == (3, Fraction(1, 3))
    # Equal later ratios must not appear: each record keeps its earliest n.
    assert [n for n, _ in report.records] == sorted({n for n, _ in report.records})


def test_maxima_on_depth3_attained_at_nine():
    profile = degree_profile(avoided_set(3), 120)
    report = successive_maxima(profile.min_ones, certified_fit(profile))
    assert report.attained and report.records[-1] == (9, Fraction(4, 9))


def test_maxima_closed_form_depth4():
    profile = degree_profile(avoided_set(4), 500)
    fit = certified_fit(profile)
    report = successive_maxima(profile.min_ones, fit)
    assert not report.attained
    assert (report.slope, report.intercept, report.modulus, report.residue) == (7, 1, 15, 3)
    assert report.first_j == 2
    assert report.formula() == "(7 m + 1)/(15 m + 3)"
    assert report.value(2) == Fraction(15, 33)
    for n, r in report.records:
        assert r <= fit.limit
    with pytest.raises(ValueError, match="window too short"):
        successive_maxima(profile.min_ones[:17], fit)
    with pytest.raises(ValueError, match="record at n=486 disagrees"):  # S_5's records
        successive_maxima(degree_profile(avoided_set(5), 800).min_ones[:501], fit)


def test_maxima_record_values_match_closed_form():
    profile = degree_profile(avoided_set(5), 800)
    report = successive_maxima(profile.min_ones, certified_fit(profile))
    for j in range(report.first_j, (800 - 3) // 69 + 1):
        n = 69 * j + 3
        assert (n, report.value(j)) in report.records
    assert report.value(11) == Fraction(364, 762)


def test_certified_bounds_of_the_table_depths():
    for d, eps in ((1, Fraction(1, 6)), (3, Fraction(1, 18)), (4, Fraction(1, 30)),
                   (5, Fraction(1, 46))):
        N = {4: 500, 5: 800}.get(d, 150)
        bound = certified_fit(degree_profile(avoided_set(d), N)).bound
        assert (bound.epsilon, bound.rigor) == (eps, "rigorous")
    assert bound.provenance == "certified-limit(n0=79, P=69, c=33)"


@pytest.mark.parametrize("d,N,fit,eps", [
    (6, 600, (160, 69, 33), Fraction(1, 46)),
    (7, 1000, (187, 123, 59), Fraction(5, 246)),
    (8, 1000, (290, 123, 59), Fraction(5, 246)),
])
def test_certified_fits_beyond_the_table(d, N, fit, eps):
    certified = certified_fit(degree_profile(avoided_set(d), N))
    assert (certified.certificate, certified.modulus, certified.slope) == (fit, *fit[1:])
    bound = certified.bound
    assert (bound.epsilon, bound.rigor) == (eps, "rigorous")


def test_certified_fit_takes_the_least_period():
    S = ("111", "1211", "2122", "222")
    fit = certified_fit(degree_profile(S, 200))
    assert fit.certificate == (4, 4, 2)
    assert (fit.modulus, fit.slope) == (2, 1)


@pytest.mark.parametrize("S,reason", [
    (("12", "21"), "no certified period"),  # the 1-run state's entry grows without bound
    (("22",), "not closed under swapping"),
])
def test_certified_fit_refusals(S, reason):
    with pytest.raises(ValueError, match=reason):
        certified_fit(degree_profile(S, 200))


def _swap_closed_minimal(drawn: list[str]) -> tuple[str, ...]:
    """The drawn words and their swaps, keeping those that contain no other."""
    words = set(drawn) | {swap_letters(w) for w in drawn}
    return tuple(sorted(w for w in words if not any(u != w and u in w for u in words)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(alphabet="12", min_size=2, max_size=6), min_size=1, max_size=4)
       .map(_swap_closed_minimal))
@example(("111", "1211", "2122", "222"))  # certificate period 4, least period 2
@example(("12", "21"))  # no certificate, though the fewest ones are 0 throughout
@example(("22",))  # not swap-closed
def test_certified_fit_agrees_with_the_fitter(S):
    N = 200
    try:
        profile = degree_profile(S, N)
    except EmptyLanguageError:
        return
    swap_closed = {swap_letters(w) for w in S} == set(S)
    try:
        fit = certified_fit(profile)
    except ValueError:
        assert not swap_closed or profile.certificate is None
        return
    assert swap_closed and fit.certificate == profile.certificate
    assert all(fit.predict(n) == profile.min_ones[n] for n in range(fit.onset, N + 1))


def test_verify_runs_the_kernel_once_per_depth():
    verification.profile_for_depth.cache_clear()
    with mock.patch.object(automaton, "_min_ones", wraps=automaton._min_ones) as kernel:
        for check in (verification.check_results_table, verification.check_quasipoly_fits,
                      verification.check_limits_and_maxima):
            assert check()[0]
    assert [call.args[0] for call in kernel.call_args_list] == [
        avoided_set(d) for d in range(1, 7)]
    # The fit reads the certificate off the profile and runs no kernel.
    profile = verification.profile_for_depth(5, 800)
    with mock.patch.object(automaton, "_min_ones", side_effect=AssertionError("kernel run")):
        fit = certified_fit(profile)
    assert (fit.modulus, fit.slope) == (69, 33)


def test_depth9_bounds_from_one_profile():
    with mock.patch.object(automaton, "_min_ones", wraps=automaton._min_ones) as kernel:
        profile = degree_profile(avoided_set(9), 1700)
    assert kernel.call_count == 1
    n, bound = best_bound(profile)
    assert (n, bound.epsilon) == (1695, Fraction(7, 678))
    bound = certified_fit(profile).bound
    assert (bound.rigor, bound.epsilon) == ("rigorous", Fraction(1, 102))
