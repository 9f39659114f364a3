import itertools
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kolafreq import (
    ComputationCancelled,
    InexactDivisionError,
    NotFactorFreeError,
    RationalGF,
    WeightPoly,
    avoided_set,
    enumerate_brute,
    series_from_gf,
    weight_gf,
    weight_poly_dp,
    weight_series,
)
from kolafreq import cluster, verification
from kolafreq.avoided import checked_words
from kolafreq.cluster import overlap_suffix_lengths
from kolafreq.verification import REF_S3_DEN

words_st = st.text(alphabet="12", min_size=1, max_size=8)


def brute_overlaps(u: str, v: str) -> set[int]:
    out = set()
    for L in range(1, min(len(u), len(v))):
        if all(u[len(u) - L + i] == v[i] for i in range(L)):
            out.add(L)
    return out


@pytest.mark.parametrize(
    "u,v,expected",
    [
        ("111", "111", {1, 2}),
        ("111", "222", set()),
        ("12121", "21212", {2, 4}),
        ("112211", "111", {1, 2}),
        ("21", "112211", {1}),
    ],
)
def test_overlap_examples(u, v, expected):
    assert overlap_suffix_lengths(u, v) == expected


@given(words_st, words_st)
def test_overlaps_match_brute_force(u, v):
    assert overlap_suffix_lengths(u, v) == brute_overlaps(u, v)


def test_overlap_rejects_empty():
    with pytest.raises(ValueError):
        overlap_suffix_lengths("", "1")


def _minimal_words(drawn: list[str]) -> tuple[str, ...]:
    return tuple(sorted({w for w in drawn if not any(u != w and u in w for u in drawn)}))


factor_free_sets = st.lists(
    st.text(alphabet="12", min_size=1, max_size=7), min_size=1, max_size=8
).map(_minimal_words)


@given(factor_free_sets)
@example(avoided_set(3).words)
@example(("121", "2112", "22222"))  # an overlap prefix shared by two words
def test_suffix_index_lists_every_overlap(S):
    # Both routes read the overlaps off this one index: the words u that
    # overlap v by L are ends[v[:L]], in the order of S.
    ends = cluster._suffix_index(S)
    for v in S:
        for L in range(1, len(v)):
            assert ends.get(v[:L], []) == [j for j, u in enumerate(S) if L in brute_overlaps(u, v)]


@settings(max_examples=100, deadline=None)
@given(factor_free_sets, st.integers(min_value=0, max_value=12))
def test_counting_dp_matches_brute_force_on_random_sets(S, n):
    assert weight_poly_dp(S, n) == enumerate_brute(S, n)


def test_gf_of_empty_set():
    gf = weight_gf([])
    assert gf.numerator == WeightPoly.one()
    assert gf.denominator == WeightPoly.one() - WeightPoly.letter_sum()


def test_gf_of_single_letter_taboo():
    gf = weight_gf(["1"])
    assert gf.numerator == WeightPoly.one()
    assert gf.denominator == WeightPoly({(0, 0): 1, (0, 1): -1})


def test_gf_s1_matches_closed_form():
    gf = weight_gf(avoided_set(1))
    x1_part = WeightPoly({(0, 0): 1, (1, 0): 1, (2, 0): 1})
    x2_part = WeightPoly({(0, 0): 1, (0, 1): 1, (0, 2): 1})
    assert gf.numerator == x1_part * x2_part
    assert gf.denominator == WeightPoly(
        {(0, 0): 1, (1, 1): -1, (2, 1): -1, (1, 2): -1, (2, 2): -1}
    )


def test_gf_rejects_non_factor_free():
    with pytest.raises(NotFactorFreeError):
        weight_gf(["111", "21112"])
    with pytest.raises(ValueError):
        weight_gf([""])


def test_series_s1_first_terms():
    series = weight_series(avoided_set(1), 5)
    assert series.slices == (
        (1,),
        (1, 1),
        (1, 2, 1),
        (0, 3, 3, 0),
        (0, 2, 6, 2, 0),
        (0, 1, 7, 7, 1, 0),
    )


def test_series_order_zero():
    assert weight_series(avoided_set(3), 0).slices == ((1,),)


def test_series_of_empty_set_is_binomial():
    series = weight_series([], 6)
    assert series.poly(6) == prod([WeightPoly.letter_sum()] * 6)


@pytest.mark.parametrize("d", [1, 2])
def test_series_agrees_with_brute_force(d):
    assert weight_series(avoided_set(d), 12) == enumerate_brute(avoided_set(d), 12)


def test_series_matches_counting_dp_at_depth_4():
    S = avoided_set(4)
    assert weight_series(S, 300) == weight_poly_dp(S, 300)


def _spy_passes(mp) -> list[list[int]]:
    """Record [terms, width, steps taken] of every `_packed_slices` pass."""
    passes: list[list[int]] = []
    real = cluster._packed_slices

    def spy(words, terms, width, should_cancel):
        passes.append(seen := [terms, width, 0])
        for step in real(words, terms, width, should_cancel):
            seen[2] += 1
            yield step

    mp.setattr(cluster, "_packed_slices", spy)
    return passes


def _spy_counts(mp, first_width=None) -> list[list[int]]:
    """Record the counts that `weight_series` reads each width off;
    `first_width`, if given, replaces the first width read."""
    seen: list[list[int]] = []
    real = cluster._series_width

    def spy(counts, terms):
        seen.append(list(counts))
        return first_width if first_width and len(seen) == 1 else real(counts, terms)

    mp.setattr(cluster, "_series_width", spy)
    return seen


def test_series_width_comes_from_the_word_counts(monkeypatch):
    # The prefix runs at width 0 to k = 2 max|v| + 16.  The empty set counts
    # 2^n words, whose growth calls for the a-priori N + 2 bits; {1, 22}
    # admits no word past length 1, so its width comes from c_0 = 1.  Either
    # runs one packed pass.
    passes, seen = _spy_passes(monkeypatch), _spy_counts(monkeypatch)
    assert weight_series((), 40).poly(40) == prod([WeightPoly.letter_sum()] * 40)
    assert seen == [[2**n for n in range(17)]] and passes == [[16, 0, 16], [40, 48, 40]]
    seen.clear()
    passes.clear()
    assert weight_series(("1", "22"), 40).slices[2:] == tuple((0,) * (n + 1) for n in range(2, 41))
    assert seen == [[1, 1] + [0] * 19] and passes == [[20, 0, 20], [40, 8, 40]]


def test_packed_series_keeps_only_the_band_of_nonzero_digits():
    # S_4's slices of degree 250 have nonzero digits only at x1-exponents
    # 115-135; kept whole, p_250 would reach 134 digits of 64 bits.
    steps = list(cluster._packed_slices(avoided_set(4).words, 250, 64, None))
    assert steps[-1][1] == 115  # the base of degree 250
    assert max(x.bit_length() for x, _ in steps) <= 40 * 64


def test_packed_series_refuses_a_width_below_its_counts(monkeypatch):
    # S_1's counts call for 144 bits at N = 200.  At 136 bits, the first
    # slice the width cannot prove is p_194, as c_193 has 135 bits: the pass
    # decodes p_1..p_193 and restarts at the width of the proven counts.
    expected = weight_poly_dp(avoided_set(1), 200)
    counts = [sum(row) for row in expected.slices]
    seen = _spy_counts(monkeypatch, first_width=136)
    widths = _spy_widths(monkeypatch)
    assert weight_series(avoided_set(1), 200) == expected
    assert counts[193].bit_length() == 135 and seen[1] == counts[:194]
    assert widths == [136] * 193 + [144] * 200


def test_series_validates_counting_invariants():
    weight_series(avoided_set(3), 40).validate_counting()


def test_series_swap_symmetry():
    series = weight_series(avoided_set(2), 15)
    for n in range(16):
        row = series.slices[n]
        assert row == tuple(reversed(row))


def test_series_from_gf_binomial():
    gf = RationalGF(WeightPoly.one(), WeightPoly.one() - WeightPoly.letter_sum())
    series = series_from_gf(gf, 3)
    assert series.poly(3) == prod([WeightPoly.letter_sum()] * 3)


def test_series_from_gf_cross_method_s3():
    gf = weight_gf(avoided_set(3))
    assert series_from_gf(gf, 50) == weight_series(avoided_set(3), 50)


def test_series_from_gf_signed_numerator():
    gf = RationalGF(WeightPoly({(0, 0): 1, (1, 0): -1}), WeightPoly.one())
    series = series_from_gf(gf, 2)
    assert series.slices == ((1,), (0, -1), (0, 0, 0))


def test_series_from_gf_large_coefficients():
    # 1/(1 - 3 x1 t): coefficients grow as 3^n, past the counting bound 2^n.
    den = WeightPoly({(0, 0): 1, (1, 0): -3})
    series = series_from_gf(RationalGF(WeightPoly.one(), den), 64)
    assert series.slices[64][64] == 3**64


def test_series_routes_refuse_bad_input():
    with pytest.raises(ValueError, match="terms must be >= 0"):
        weight_series(avoided_set(1), -1)
    with pytest.raises(ValueError, match="terms must be >= 0"):
        series_from_gf(weight_gf(avoided_set(1)), -1)
    with pytest.raises(ValueError, match="constant term must be 1"):
        series_from_gf(RationalGF(WeightPoly.one(), WeightPoly.constant(2)), 3)


def test_progress_and_cancellation_hooks():
    seen = []
    weight_series(avoided_set(1), 6, progress=lambda n, total: seen.append((n, total)))
    assert seen == [(n, 6) for n in range(1, 7)]
    seen.clear()  # the expansion of a closed form reports the same slices 1..6
    series_from_gf(weight_gf(avoided_set(1)), 6, progress=lambda n, total: seen.append((n, total)))
    assert seen == [(n, 6) for n in range(1, 7)]
    with pytest.raises(ComputationCancelled):
        weight_series(avoided_set(1), 6, should_cancel=lambda: True)
    with pytest.raises(ComputationCancelled):
        series_from_gf(weight_gf(avoided_set(1)), 6, should_cancel=lambda: True)
    seen.clear()
    weight_gf(avoided_set(1), progress=lambda k, total: seen.append((k, total)))
    # One call per elimination step of S_1's one attempt, at the probe's D = 4;
    # the probe itself reports no progress.
    assert seen == [(1, 2), (2, 2)]
    calls = []
    with pytest.raises(ComputationCancelled, match="step 3 of 6"):  # in the probe
        weight_gf(avoided_set(2), should_cancel=lambda: calls.append(1) or len(calls) > 2)
    calls.clear()
    with pytest.raises(ComputationCancelled, match="step 1 of 6"):  # in the first attempt
        weight_gf(avoided_set(2), should_cancel=lambda: calls.append(1) or len(calls) > 6)


def test_gf_s2_minratio_matches_s1():
    from kolafreq import bound_from_denominator

    assert bound_from_denominator(weight_gf(avoided_set(2))).epsilon == Fraction(1, 6)


# -- packed closed form -------------------------------------------------------


def _grlex(key):
    a, b = key
    return (a + b, a)


def _long_div(f: WeightPoly, divisor: WeightPoly) -> WeightPoly:
    """f / divisor when it divides exactly: graded-lex long division,
    cancelling the remainder's leading term until the remainder is empty."""
    if not divisor:
        raise ZeroDivisionError("polynomial division by zero")
    d_lead = max(divisor.terms, key=_grlex)
    (da, db), d_lc = d_lead, divisor.terms[d_lead]
    rem, quo = dict(f.terms), {}
    while rem:
        lead = max(rem, key=_grlex)
        (la, lb), lc = lead, rem[lead]
        if la < da or lb < db or lc % d_lc:
            raise InexactDivisionError(f"{lead} not divisible by {d_lead}")
        qa, qb, qc = la - da, lb - db, lc // d_lc
        quo[qa, qb] = qc
        for (a, b), c in divisor.terms.items():
            k = (a + qa, b + qb)
            if v := rem.get(k, 0) - qc * c:
                rem[k] = v
            else:
                del rem[k]
    return WeightPoly(quo)


polys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-9, 9), max_size=6
).map(WeightPoly)
wide_polys = st.dictionaries(
    st.tuples(st.integers(0, 9), st.integers(0, 9)), st.integers(-99, 99), max_size=20
).map(WeightPoly)


@given(polys, polys.filter(bool))
def test_exact_division_roundtrip(f, g):
    assert _long_div(f * g, g) == f


@given(wide_polys, wide_polys.filter(lambda p: p.t_degree() > 0), st.integers(-9, 9).filter(bool))
def test_exact_division_of_wide_products(f, g, c):
    assert _long_div(f * g, g) == f
    # g divides f*g + c only if it divides the constant c, and g is not constant.
    with pytest.raises(InexactDivisionError):
        _long_div(f * g + c, g)


def test_inexact_division_raises():
    x1 = WeightPoly({(1, 0): 1})
    x2 = WeightPoly({(0, 1): 1})
    with pytest.raises(InexactDivisionError):
        _long_div(x1, x2)
    with pytest.raises(InexactDivisionError):
        _long_div(WeightPoly.constant(3), WeightPoly.constant(2))


def _dict_bareiss_gf(S) -> RationalGF:
    """The closed form by Bareiss elimination on `WeightPoly` dicts: an
    oracle that shares no overlap index, packing, width loop, identity check
    or division with `weight_gf`."""
    words = checked_words(S)
    one, letters = WeightPoly.one(), WeightPoly.letter_sum()
    if not words:
        return RationalGF.canonical(one, one - letters)
    m = len(words)
    M = [[WeightPoly.zero() for _ in range(m)] + [-WeightPoly.from_word(v)] for v in words]
    for i, v in enumerate(words):
        M[i][i] = one
        for j, u in enumerate(words):
            for L in brute_overlaps(u, v):
                M[i][j] = M[i][j] + WeightPoly.from_word(v[L:])
    zero, prev = WeightPoly.zero(), one
    for k in range(m - 1):
        for i in range(k + 1, m):
            for j in range(k + 1, m + 1):
                lhs = M[k][k] * M[i][j] - M[i][k] * M[k][j]
                M[i][j] = _long_div(lhs, prev) if lhs else zero
        prev = M[k][k]
    det = M[m - 1][m - 1]
    y = [zero] * m
    for i in range(m - 1, -1, -1):
        acc = det * M[i][m]
        for j in range(i + 1, m):
            acc = acc - M[i][j] * y[j]
        y[i] = _long_div(acc, M[i][i]) if acc else zero
    cluster_sum = zero
    for yi in y:
        cluster_sum = cluster_sum + yi
    return RationalGF.canonical(det, det - det * letters - cluster_sum)


@settings(max_examples=80, deadline=None)
@given(factor_free_sets)
@example(avoided_set(1).words)
@example(avoided_set(2).words)
@example(avoided_set(3).words)
@example(("112", "22121"))  # a real common factor, reduced symbolically
def test_packed_gf_matches_dict_bareiss(S):
    assert weight_gf(S) == _dict_bareiss_gf(S)


@settings(max_examples=200, deadline=None)
@given(factor_free_sets, st.integers(min_value=0, max_value=40))
@example((), 40)
@example(("1", "22"), 40)
# Many words of S_6 and S_7 share each prefix x, so each R_x sums many words.
@example(avoided_set(6).words, 30)
@example(avoided_set(7).words, 30)
def test_series_matches_counting_dp_on_random_sets(S, N):
    assert weight_series(S, N) == weight_poly_dp(S, N)


@settings(max_examples=200, deadline=None)
@given(factor_free_sets, st.integers(min_value=0, max_value=40))
@example((), 40)
def test_packed_series_restarts_from_8_bits_on_random_sets(S, N):
    # 8 bits prove no slice past a count of 2^5, so every set whose words
    # number more restarts, at a width read off the counts proven so far.
    with pytest.MonkeyPatch.context() as mp:
        seen = _spy_counts(mp, first_width=8)
        assert weight_series(S, N) == weight_poly_dp(S, N)
    counts = [sum(row) for row in weight_poly_dp(S, N).slices]
    assert (len(seen) > 1) == any(c.bit_length() > 6 for c in counts[:N])


@pytest.mark.parametrize("S,N,width", [
    (1, 200, 144), (2, 200, 104), (3, 200, 72), (4, 250, 64), (4, 500, 112),
    (5, 800, 120), (6, 600, 72), (6, 1000, 104),
    (("111",), 400, 360),
    # Counts that grow polynomially (n + 1 for {12}) are extrapolated in
    # log n; in n, as if exponential, they took 104 bits.
    (("12",), 1000, 16), (("112", "221"), 1000, 16),
])
def test_series_width_read_off_the_prefix_counts(S, N, width):
    words = avoided_set(S).words if isinstance(S, int) else S
    k = 2 * max(map(len, words)) + 16  # the prefix that weight_series counts
    counts = [1, *(int(c) for c, _ in cluster._packed_slices(words, k, 0, None))]
    assert cluster._series_width(counts, N) == width


@pytest.mark.parametrize("S", [("12",), ("112", "221")])
def test_polynomial_counts_run_one_narrow_pass(monkeypatch, S):
    passes = _spy_passes(monkeypatch)
    series = weight_series(S, 1000)
    k = 2 * max(map(len, S)) + 16
    assert passes == [[k, 0, k], [1000, 16, 1000]]  # no restart
    assert series.slices[:25] == enumerate_brute(S, 24).slices
    if S == ("12",):  # the words 2^b 1^a, one for each count of ones
        assert all(row == (1,) * (n + 1) for n, row in enumerate(series.slices))


def test_packed_series_ends_at_n_plus_two_bits(monkeypatch):
    # c_(n-1) <= 2^(n-1) proves every slice at N + 2 bits, in whole bytes:
    # no width goes past it, and the empty set's counts 2^n need all of it.
    for terms in (0, 1, 6, 7, 40, 200):
        last = (terms + 9) // 8 * 8
        assert cluster._series_width([2**n for n in range(min(terms, 16) + 1)], terms) == last
        assert cluster._series_width([3**n for n in range(17)], terms) == last
    _spy_counts(monkeypatch, first_width=8)
    widths = _spy_widths(monkeypatch)
    assert weight_series((), 40).poly(40) == prod([WeightPoly.letter_sum()] * 40)
    assert widths == [8] * 6 + [48] * 40  # 2 c_6 = 2^7 needs 9 bits


@pytest.mark.parametrize("delta", [-(10**6), 10**6], ids=["negative", "past-2c"])
def test_packed_series_refuses_a_slice_that_counts_no_words(monkeypatch, delta):
    # A decode is exact once the width covers it, so only a fault in the
    # program can give a negative digit or a sum above 2 c_(n-1).
    _spy_widths(monkeypatch, corrupt=lambda calls: delta if len(calls) == 5 else 0)
    with pytest.raises(ArithmeticError, match="slice 5 at width 144 counts no words"):
        weight_series(avoided_set(1), 200)


@pytest.mark.parametrize("d, N, width", [(1, 200, 144), (2, 200, 104), (3, 200, 72),
                                         (4, 250, 64), (4, 500, 112), (5, 800, 120),
                                         (6, 600, 72)])
def test_packed_series_runs_once_past_its_prefix(monkeypatch, d, N, width):
    # The width read off the prefix covers every slice of the paper's sets
    # (S_6 at N = 1000 at 104 bits is checked in CI): one width-0 prefix of
    # 2 max|v| + 16 steps and one packed pass, with no step at width 0 past it.
    passes = _spy_passes(monkeypatch)
    weight_series(avoided_set(d), N)
    k = 2 * max(map(len, avoided_set(d).words)) + 16
    assert passes == [[k, 0, k], [N, width, N]]


def _spy_widths(monkeypatch, corrupt=lambda calls: 0) -> list[int]:
    """Record the width of every decode; `corrupt(calls)` is added to its
    lowest digit (True adds 1)."""
    widths: list[int] = []
    real = cluster.unpack_signed

    def spy(packed, count, width):
        widths.append(width)
        digits = real(packed, count, width)
        digits[0] += corrupt(widths)
        return digits

    monkeypatch.setattr(cluster, "unpack_signed", spy)
    return widths


def test_packed_gf_from_the_narrowest_width(monkeypatch):
    monkeypatch.setattr(cluster, "_START_WIDTH", 8)
    widths = _spy_widths(monkeypatch)
    assert weight_gf(avoided_set(3)).denominator.terms == REF_S3_DEN
    assert set(widths) == {8}
    gf = weight_gf(avoided_set(1))
    monkeypatch.setattr(verification, "weight_gf", lambda words: gf)
    check = verification.check_gf_s1()
    assert check[0], check[1]


def test_packed_gf_retries_when_a_coefficient_outgrows_the_width(monkeypatch):
    # Eleven words of S_4 whose solution has a coefficient of 131: the
    # decode at 8 bits is wrong and fails the identity, and 16 bits are exact.
    S = ("111", "1122121122", "121121121", "1211211221211211", "12121",
         "1212211211212211", "21221211212212", "2122122112122122", "2211212211",
         "221122", "222")
    monkeypatch.setattr(cluster, "_START_WIDTH", 8)
    widths = _spy_widths(monkeypatch)
    tried = _spy_attempts(monkeypatch)
    assert weight_gf(S) == _dict_bareiss_gf(S)
    assert widths[0] == 8 and widths[-1] == 16
    # The probe's D was right: the doubled width at that D solves the system
    # before the a-priori D (56) is tried.
    assert tried == [(8, 31), (16, 31)]


def _spy_attempts(monkeypatch) -> list[tuple[int, int]]:
    """Record every (width, D) that `_attempts` hands out; the last one
    recorded is the attempt that solved the system."""
    seen: list[tuple[int, int]] = []
    real = cluster._attempts

    def spy(guess, a_priori, widest):
        for attempt in real(guess, a_priori, widest):
            seen.append(attempt)
            yield attempt

    monkeypatch.setattr(cluster, "_attempts", spy)
    return seen


def test_packed_gf_retries_after_a_corrupted_decode(monkeypatch):
    expected = weight_gf(avoided_set(3))
    tried = _spy_attempts(monkeypatch)
    weight_gf(avoided_set(3))
    assert tried == [(8, 23)]
    tried.clear()
    # Corrupt det, the first of the 15 decodes of the attempt that solved S_3:
    # the next attempt, the doubled width at the probe's D, solves it.
    _spy_widths(monkeypatch, corrupt=lambda calls: len(calls) == 1)
    assert weight_gf(avoided_set(3)) == expected
    assert tried == [(8, 23), (16, 23)]


@pytest.mark.parametrize("delta", [1, -1])
def test_packed_gf_proof_refuses_a_coefficient_moved_by_one(monkeypatch, delta):
    expected = weight_gf(avoided_set(3))
    tried = _spy_attempts(monkeypatch)
    _spy_widths(monkeypatch, corrupt=lambda calls: delta if len(calls) == 2 else 0)  # y_1
    assert weight_gf(avoided_set(3)) == expected
    assert tried == [(8, 23), (16, 23)]


def test_packed_gf_proof_width_comes_from_det_and_y(monkeypatch):
    # y_1 of the first attempt gets 2^8 at its lowest coefficient, far past
    # the elimination's 8-bit digits, and -1 at the next: at x1 = 2^8 it packs
    # to the same integer, so only a proof at a width that det and y call for
    # sees the change.
    expected = weight_gf(avoided_set(3))
    tried = _spy_attempts(monkeypatch)
    real, calls = cluster.unpack_signed, []

    def alias(packed, count, width):
        digits = real(packed, count, width)
        calls.append(width)
        if len(calls) == 2:
            digits[0] += 1 << width
            digits[1] -= 1
            assert sum(c << width * i for i, c in enumerate(digits)) == packed
        return digits

    monkeypatch.setattr(cluster, "unpack_signed", alias)
    assert weight_gf(avoided_set(3)) == expected
    assert tried == [(8, 23), (16, 23)]


def test_packed_gf_raises_when_no_width_passes_the_identity(monkeypatch):
    tried = _spy_attempts(monkeypatch)
    widths = _spy_widths(monkeypatch, corrupt=lambda calls: True)
    with pytest.raises(ArithmeticError, match="proven width 24"):
        weight_gf(avoided_set(2))
    assert sorted(set(widths)) == [8, 16, 24]  # doubling stops at the l1 bound's width
    assert tried[-1] == (24, 15)  # raised after the last attempt


def test_packed_gf_attempt_schedule():
    assert cluster._attempts(4, 4, 8) == [(8, 4)]
    assert cluster._attempts(24, 52, 64) == [
        (8, 24), (16, 24), (8, 52), (16, 52), (32, 52), (64, 52)]
    assert cluster._attempts(63, 171, 160) == [
        (8, 63), (16, 63), (8, 171), (16, 171), (32, 171), (64, 171), (128, 171), (160, 171)]
    assert cluster._attempts(2, 4, 8) == [(8, 2), (8, 4)]  # no width between 8 and widest
    for guess, a_priori, widest in [(1, 1, 8), (2, 4, 8), (9, 15, 24), (7, 7, 1000)]:
        attempts = cluster._attempts(guess, a_priori, widest)
        assert attempts[0] == (8, guess) and attempts[-1] == (widest, a_priori)
        assert all(D <= a_priori and width <= widest for width, D in attempts)
        assert len(set(attempts)) == len(attempts)


# The 30 words of length 5 other than 11111 and 22222: their closed form has
# x1-degree 5, where a probe at x2 = 1 reads 2.
MANY = tuple(w for w in map("".join, itertools.product("12", repeat=5)) if len(set(w)) == 2)


# The probe's D against the a-priori D: S_1 4 of 4, S_2 9 of 15, S_3 23 of 52,
# S_4 62 of 171 (its x1-degree is 60, so 61 would do) and `many` 6 of 76.
@pytest.mark.parametrize("S, D", [(avoided_set(1).words, 4), (avoided_set(2).words, 9),
                                  (avoided_set(3).words, 23), (avoided_set(4).words, 62),
                                  (MANY, 6)],
                         ids=["S1", "S2", "S3", "S4", "many"])
def test_packed_gf_solves_at_the_first_elimination(monkeypatch, S, D):
    tried = _spy_attempts(monkeypatch)
    weight_gf(S)  # a result is returned only once the identity proof holds
    assert tried == [(8, D)]
