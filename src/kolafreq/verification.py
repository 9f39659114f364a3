"""Named end-to-end verification checks shared by the CLI and the test suite.

Each check recomputes a published quantity and compares it with the frozen
reference value, or cross-checks two independent routes; they share each
set, profile and series through the `*_for_depth` caches.  Checks return
(ok, detail) and never raise on a mere mismatch, so a failed run can name
its witness.
"""

from __future__ import annotations

import time
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import record
from .automaton import build_automaton, degree_profile, enumerate_brute, weight_poly_dp
from .avoided import DEFAULT_TABLE_TERMS, EmptyLanguageError, avoided_set, verify_factor_free
from .bounds import HALF, DegreeProfile, best_bound, bound_from_denominator, minratio
from .cluster import series_from_gf, weight_gf, weight_series
from .polynomials import WeightPoly
from .quasipoly import certified_fit, successive_maxima
from .words import kolakoski_pieces, swap_closed

# -- frozen reference values --------------------------------------------------
# Exponent keys are (ones, twos); the t-exponent is their sum.

REF_S1_DEN = {(0, 0): 1, (1, 1): -1, (2, 1): -1, (1, 2): -1, (2, 2): -1}

# Numerator in factored form: (1 + x1 t + x1^2 t^2)(1 + x2 t + x2^2 t^2).
REF_S1_NUM_FACTORS = (
    {(0, 0): 1, (1, 0): 1, (2, 0): 1},
    {(0, 0): 1, (0, 1): 1, (0, 2): 1},
)

# Dense slices of the S_1 series through t^5, indexed by the x1-exponent.
REF_S1_SERIES_5 = (
    (1,),
    (1, 1),
    (1, 2, 1),
    (0, 3, 3, 0),
    (0, 2, 6, 2, 0),
    (0, 1, 7, 7, 1, 0),
)

REF_S3_DEN = {
    (0, 0): 1,
    (18, 18): 1,
    (16, 17): -1,
    (17, 16): -1,
    (15, 15): -1,
    (12, 12): 3,
    (10, 11): 1,
    (11, 10): 1,
    (8, 10): 1,
    (9, 9): 1,
    (10, 8): 1,
    (7, 8): -1,
    (8, 7): -1,
    (6, 6): -2,
    (5, 5): -1,
    (4, 5): -2,
    (5, 4): -2,
    (4, 4): -1,
}

# Results table rows: (d, set size, N, best n, epsilon).
REF_RESULTS_TABLE = (
    (1, 2, 200, 3, Fraction(1, 6)),
    (2, 6, 200, 3, Fraction(1, 6)),
    (3, 14, 200, 9, Fraction(1, 18)),
    (4, 30, 500, 498, Fraction(17, 498)),
    (5, 62, 800, 762, Fraction(17, 762)),
    (6, 126, 600, 555, Fraction(5, 222)),
)

# Quasi-polynomial fits: d -> (modulus, slope, residue constants).
REF_QUASIPOLY = {
    1: (3, 1, (0, 0, 0)),
    2: (3, 1, (0, 0, 0)),
    3: (9, 4, (0, 0, 0, 1, 1, 1, 2, 2, 3)),
    4: (15, 7, (-1, -1, 0, 1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 5, 5)),
    5: (
        69,
        33,
        (
            -1, -1, 0, 1, 1, 1, 2, 2, 2, 3, 4, 4, 5, 5, 5, 6, 6, 7, 8, 8,
            8, 9, 9, 9, 10, 11, 11, 12, 12, 13, 13, 14, 14, 15, 15, 15, 16,
            17, 17, 18, 18, 18, 19, 19, 20, 21, 21, 21, 22, 22, 22, 23, 24,
            24, 25, 25, 25, 26, 26, 27, 28, 28, 28, 29, 29, 30, 31, 31, 31,
        ),
    ),
}

# Limits and epsilon values per depth, plus maxima formulas (intercept,
# residue, first j) where the limit is not attained.
REF_LIMITS = {1: Fraction(1, 3), 3: Fraction(4, 9), 4: Fraction(7, 15), 5: Fraction(33, 69)}
REF_EPSILONS = {1: Fraction(1, 6), 3: Fraction(1, 18), 4: Fraction(1, 30), 5: Fraction(1, 46)}
REF_MAXIMA = {4: (1, 3, 2), 5: (1, 3, 3)}


# -- cached building blocks ----------------------------------------------------


@lru_cache(maxsize=16)
def words_for_depth(d: int) -> tuple[str, ...]:
    return _avoided_tree(max(d, 8)).up_to(d).words  # one expansion serves S_1..S_8


_avoided_tree = lru_cache(maxsize=2)(avoided_set)


@lru_cache(maxsize=32)
def profile_for_depth(d: int, N: int):
    return degree_profile(words_for_depth(d), N)


@lru_cache(maxsize=32)
def series_for_depth(d: int, N: int):
    return weight_series(words_for_depth(d), N)


# -- checks --------------------------------------------------------------------

CheckFn = Callable[[], tuple[bool, str]]


@record
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float


def check_gf_s1() -> tuple[bool, str]:
    """Closed-form enumerator for {111, 222} matches the reference exactly."""
    gf = weight_gf(words_for_depth(1))
    num = WeightPoly(REF_S1_NUM_FACTORS[0]) * WeightPoly(REF_S1_NUM_FACTORS[1])
    if gf.denominator.terms != REF_S1_DEN:
        return False, f"denominator mismatch: {gf.denominator}"
    if gf.numerator.terms != num.terms:
        return False, f"numerator mismatch: {gf.numerator}"
    if series_from_gf(gf, 12) != series_for_depth(1, 12):
        return False, "series expansion of the closed form disagrees with direct series"
    return True, "numerator, denominator, and series cross-check agree"


def check_gf_s3() -> tuple[bool, str]:
    """Depth-3 denominator matches the 18-term reference; epsilon = 1/18."""
    gf = weight_gf(words_for_depth(3))
    if gf.denominator.terms != REF_S3_DEN:
        return False, f"denominator mismatch: {gf.denominator}"
    mr = minratio(gf.d_poly())
    if mr != Fraction(4, 9):
        return False, f"minratio {mr} != 4/9"
    eps = bound_from_denominator(gf).epsilon
    if eps != Fraction(1, 18):
        return False, f"epsilon {eps} != 1/18"
    return True, "18-term denominator, minratio 4/9, epsilon 1/18"


def check_series_s1() -> tuple[bool, str]:
    """First six slices of the depth-1 series match the reference."""
    series = series_for_depth(1, 5)
    if series.slices != REF_S1_SERIES_5:
        return False, f"series mismatch: {series.slices}"
    return True, "slices through t^5 match"


def check_triple_oracle() -> tuple[bool, str]:
    """Cluster series, automaton counting DP, and brute force agree, one `Series` each."""
    for d in (1, 2, 3):
        words, series = words_for_depth(d), series_for_depth(d, 18)
        if series != weight_poly_dp(words, 18):
            return False, f"cluster series and counting DP disagree at d={d}"
        for n, (row, brute) in enumerate(zip(series.slices, enumerate_brute(words, 18).slices)):
            if row != brute:
                return False, f"oracle disagreement at d={d}, n={n}"
    return True, "three oracles agree for d <= 3, n <= 18"


def check_results_table() -> tuple[bool, str]:
    """Best per-term bounds via the automaton backend reproduce the table."""
    for d, size, N, n_ref, eps_ref in REF_RESULTS_TABLE:
        words = words_for_depth(d)
        if len(words) != size:
            return False, f"d={d}: set size {len(words)} != {size}"
        n, bound = best_bound(profile_for_depth(d, N))
        if (n, bound.epsilon) != (n_ref, eps_ref):
            return False, f"d={d}: got (n={n}, eps={bound.epsilon}), want (n={n_ref}, eps={eps_ref})"
    return True, "all six rows match"


def check_results_table_gj() -> tuple[bool, str]:
    """Rows d <= 3 of the table, at their N = 200, via the cluster series backend."""
    for d, _size, N, n_ref, eps_ref in REF_RESULTS_TABLE[:3]:
        words = words_for_depth(d)
        try:
            prof = DegreeProfile.from_series(words, series_for_depth(d, N))
        except EmptyLanguageError as exc:
            return False, f"d={d}: {exc}"
        if prof != profile_for_depth(d, N):
            return False, f"d={d}: series profile disagrees with automaton profile"
        n, bound = best_bound(prof)
        if (n, bound.epsilon) != (n_ref, eps_ref):
            return False, f"d={d}: got (n={n}, eps={bound.epsilon}), want (n={n_ref}, eps={eps_ref})"
    return True, "rows d <= 3 reproduced from the series backend"


def check_quasipoly_fits() -> tuple[bool, str]:
    """Certified moduli, slopes, and residue constants match the references."""
    for d, (mod_ref, slope_ref, consts_ref) in REF_QUASIPOLY.items():
        fit = certified_fit(profile_for_depth(d, DEFAULT_TABLE_TERMS[d]))
        if (fit.modulus, fit.slope, fit.constants) != (mod_ref, slope_ref, consts_ref):
            return False, (
                f"d={d}: fit (M={fit.modulus}, c={fit.slope}, k={fit.constants}) "
                f"!= (M={mod_ref}, c={slope_ref}, k={consts_ref})"
            )
    return True, "fits for d = 1, 2, 3, 4, 5 match"


def check_limits_and_maxima() -> tuple[bool, str]:
    """Certified limits, rigorous epsilons, successive-maxima formulas, and the
    d = 5 record at m = 11 (n = 762), whose ratio 364/762 gives epsilon 17/762."""
    for d, limit_ref in REF_LIMITS.items():
        profile = profile_for_depth(d, DEFAULT_TABLE_TERMS[d])
        fit = certified_fit(profile)
        if fit.limit != limit_ref:
            return False, f"d={d}: limit {fit.limit} != {limit_ref}"
        maxima = successive_maxima(profile.min_ones, fit)
        bound = fit.bound
        if (bound.epsilon, bound.rigor) != (REF_EPSILONS[d], "rigorous"):
            return False, f"d={d}: {bound.rigor} epsilon {bound.epsilon} != {REF_EPSILONS[d]}"
        if d in REF_MAXIMA:
            u_ref, i_ref, j_ref = REF_MAXIMA[d]
            got = (maxima.intercept, maxima.residue, maxima.first_j)
            if got != (u_ref, i_ref, j_ref) or maxima.attained:
                return False, f"d={d}: maxima {got}, attained={maxima.attained}"
        elif not maxima.attained:
            return False, f"d={d}: limit should be attained"
        if d == 5 and (HALF - maxima.value(11) != Fraction(17, 762)
                       or (762, Fraction(364, 762)) not in maxima.records):
            return False, "m = 11 does not reproduce 17/762"
    return True, "limits 1/3, 4/9, 7/15, 33/69; epsilons 1/6, 1/18, 1/30, 1/46"


def check_d6_anomaly() -> tuple[bool, str]:
    """Depth-5 and depth-6 min-ones sequences differ only at n = 62."""
    p5 = profile_for_depth(5, DEFAULT_TABLE_TERMS[5])
    p6 = profile_for_depth(6, 600)
    diffs = [n for n in range(601) if p5.min_ones[n] != p6.min_ones[n]]
    if diffs != [62]:
        return False, f"differences at {diffs}, expected exactly [62]"
    return True, "sequences agree on n <= 600 except n = 62"


def check_properties() -> tuple[bool, str]:
    """Structural invariants: symmetry, counts, factor-freeness, avoidance.

    Swap-closure of S_d is the premise under which `degree_profile` reads
    max_ones[n] = n - min_ones[n].  One factor-free pass on S_8 covers its
    subsets S_d; only a failure runs one per S_d, to name the least d.
    """
    all_free, s8 = verify_factor_free(words_for_depth(8))[0], set(words_for_depth(8))
    for d in range(1, 9):
        words = words_for_depth(d)
        if len(words) != 2 ** (d + 1) - 2:
            return False, f"|S_{d}| = {len(words)} != {2 ** (d + 1) - 2}"
        if not (all_free and s8.issuperset(words)) and not (free := verify_factor_free(words))[0]:
            return False, f"S_{d} not factor-free: {free[1]}"
        if not swap_closed(words):
            return False, f"S_{d} is not closed under swapping the letters"
    if not build_automaton(words_for_depth(6)).accepts(kolakoski_pieces(10**7)):
        prefix = "".join(kolakoski_pieces(10**7))
        bad = [w for w in words_for_depth(6) if w in prefix]
        return False, f"avoided words found in the 10^7 prefix: {bad[:3]}"
    for d in (1, 2, 3):
        series = series_for_depth(d, 18)
        try:
            series.validate_counting()
        except AssertionError as exc:
            return False, f"d={d}: {exc}"
        for n, row in enumerate(series.slices):
            if row != tuple(reversed(row)):
                return False, f"d={d}, n={n}: slice not swap-symmetric"
    for d in range(1, 7):
        prof = profile_for_depth(d, DEFAULT_TABLE_TERMS[d])
        try:
            prof.check_invariants()
        except AssertionError as exc:
            return False, f"d={d}: {exc}"
        lo, hi = prof.min_ones, prof.max_ones
        for n in range(prof.N):  # S_d only: any factor-free set passes check_invariants
            if {lo[n + 1] - lo[n], hi[n + 1] - hi[n]} - {0, 1}:
                return False, f"d={d}: an extreme steps by neither 0 nor 1 at n={n}"
    return True, "counts, factor-freeness, avoidance, symmetry, and steps all hold"


FULL_CHECKS: tuple[tuple[str, CheckFn], ...] = (
    ("gf-s1", check_gf_s1),
    ("gf-s3", check_gf_s3),
    ("series-s1", check_series_s1),
    ("triple-oracle", check_triple_oracle),
    ("results-table", check_results_table),
    ("results-table-gj", check_results_table_gj),
    ("quasipoly-fits", check_quasipoly_fits),
    ("limits-and-maxima", check_limits_and_maxima),
    ("d6-anomaly", check_d6_anomaly),
    ("properties", check_properties),
)


def run_checks() -> list[CheckResult]:
    results = []
    for name, fn in FULL_CHECKS:
        start = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failure with the exception as witness
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail, time.perf_counter() - start))
    return results
