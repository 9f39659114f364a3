"""Acceptance suite: every headline quantity, exact, within its time budget.

Each test recomputes one published result from scratch through the library
(no tolerances anywhere; everything is exact integer/rational equality) and
prints a one-line summary.  Run with `pytest tests/test_acceptance.py -v`
or, equivalently, `kolafreq verify`.
"""

import time
from collections import Counter
from fractions import Fraction

import pytest

from kolafreq import avoided_set, kolakoski_pieces, verification, weight_series

# The gate: each check's name and its budget in seconds.  The slowest check,
# properties, takes about 0.1 s on a 2-core machine.
BUDGETS = {
    "gf-s1": 1.0,
    "gf-s3": 10.0,
    "series-s1": 1.0,
    "triple-oracle": 10.0,
    "results-table": 10.0,
    "results-table-gj": 10.0,
    "quasipoly-fits": 10.0,
    "limits-and-maxima": 10.0,
    "d6-anomaly": 10.0,
    "properties": 10.0,
}


def test_the_gate_is_the_ten_checks():
    assert [name for name, _ in verification.FULL_CHECKS] == list(BUDGETS)


@pytest.mark.parametrize("name, check", verification.FULL_CHECKS,
                         ids=[name for name, _ in verification.FULL_CHECKS])
def test_check_passes_within_its_budget(name, check):
    start = time.perf_counter()
    ok, detail = check()
    elapsed = time.perf_counter() - start
    print(f"{name}: {'PASS' if ok else 'FAIL'} ({elapsed:.2f}s) - {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < BUDGETS[name], f"{name} took {elapsed:.2f}s (budget {BUDGETS[name]}s)"


def test_properties_walks_ten_million_letters_of_pieces(monkeypatch):
    letters = []

    def counted(n, first_letter=2):
        for piece in kolakoski_pieces(n, first_letter):
            letters.append(len(piece))
            yield piece

    monkeypatch.setattr(verification, "kolakoski_pieces", counted)
    assert verification.check_properties()[0]
    assert sum(letters) == 10**7


def test_properties_names_an_avoided_word_in_the_prefix(monkeypatch):
    word, calls = verification.words_for_depth(6)[-1], []

    def doctored(n, first_letter=2):
        calls.append(n)
        yield word

    monkeypatch.setattr(verification, "kolakoski_pieces", doctored)
    ok, detail = verification.check_properties()
    assert not ok
    assert detail == f"avoided words found in the 10^7 prefix: {[word]}"
    assert calls == [10**7, 10**7]  # the walk, then the rebuild that names it


def test_full_run_makes_each_object_once(monkeypatch):
    # Brute force runs once per depth of triple-oracle, the factor-free pass
    # once on S_8, and the series once per (set, N): the checks share them.
    calls = Counter()

    def counted(name):
        real = getattr(verification, name)

        def call(words, *args):
            calls[(name, tuple(words), *args)] += 1
            return real(words, *args)

        monkeypatch.setattr(verification, name, call)

    for name in ("enumerate_brute", "verify_factor_free", "weight_series"):
        counted(name)
    for cache in (verification.words_for_depth, verification._avoided_tree,
                  verification.profile_for_depth, verification.series_for_depth):
        cache.cache_clear()
    assert all(r.ok for r in verification.run_checks())
    per_name = Counter(name for name, *_ in calls)
    assert per_name == {"enumerate_brute": 3, "verify_factor_free": 1, "weight_series": 8}
    assert set(calls.values()) == {1}
    assert ("verify_factor_free", verification.words_for_depth(8)) in calls


def test_headline_bound_reproduced_exactly():
    # End-to-end restatement of the main result: |freq - 1/2| <= 17/762,
    # witnessed by the length-762 term of the depth-5 computation.
    from kolafreq import best_bound, degree_profile

    n, bound = best_bound(degree_profile(avoided_set(5), 800))
    assert (n, bound.epsilon) == (762, Fraction(17, 762))
    assert bound.rigor == "rigorous"


def test_series_backend_matches_automaton_at_moderate_scale():
    # Independent spot check away from cached paths: exact series for the
    # depth-4 set through t^120 agrees with the automaton profile.
    from kolafreq import degree_profile

    words = avoided_set(4).words
    series = weight_series(words, 120)
    prof = degree_profile(words, 120)
    for n in range(121):
        assert series.min_ones(n) == prof.min_ones[n]
        assert series.max_ones(n) == prof.max_ones[n]
