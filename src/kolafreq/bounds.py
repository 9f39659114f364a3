"""Exact rational bounds on the limiting frequency of the letter 1.

Every bound has the two-sided form |freq - 1/2| <= epsilon and is valid
conditional on the limiting frequency existing; that caveat travels with
every rendered bound.  A bound comes from one series term
(`bound_from_term`, searched by `best_bound` over a `DegreeProfile`) or
from the denominator 1 - D of a closed form, whose monomials' extreme
ones-ratios `minratio` and `maxratio` read straight off D.  All arithmetic
is exact (fractions of integers); decimal renderings are display-only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, ClassVar

from . import record
from .avoided import EmptyLanguageError, WordsLike, as_words

if TYPE_CHECKING:
    from .polynomials import RationalGF, Series, WeightPoly

HALF = Fraction(1, 2)

CONDITIONAL_CAVEAT = "valid provided the limiting frequency exists"


class DegenerateDenominatorError(ValueError):
    """The denominator carries no monomials to bound with (D = 0)."""


def _ratios(poly: WeightPoly) -> list[Fraction]:
    ratios = [Fraction(a, a + b) for a, b in poly.terms if a + b]
    if not ratios:
        raise ValueError("no non-constant monomial")
    return ratios


def minratio(poly: WeightPoly) -> Fraction:
    """Minimum of ones/length over the non-constant monomials; coefficients
    are ignored."""
    return min(_ratios(poly))


def maxratio(poly: WeightPoly) -> Fraction:
    """Maximum of ones/length over the non-constant monomials; coefficients
    are ignored."""
    return max(_ratios(poly))


@record
class Bound:
    """Two-sided bound |freq - 1/2| <= epsilon; every route proves it, so `rigor` is fixed."""

    epsilon: Fraction
    provenance: str
    rigor: ClassVar[str] = "rigorous"

    def __post_init__(self) -> None:
        if not 0 <= self.epsilon <= HALF:
            raise ValueError(f"epsilon out of range: {self.epsilon}")

    @property
    def lower(self) -> Fraction:
        return HALF - self.epsilon

    @property
    def upper(self) -> Fraction:
        return HALF + self.epsilon

    def render(self) -> str:
        return (
            f"epsilon = {self.epsilon} ({decimal(self.epsilon)}), "
            f"{self.lower} <= freq <= {self.upper} "
            f"[{self.rigor}; {self.provenance}; {CONDITIONAL_CAVEAT}]"
        )


def decimal(value: Fraction) -> str:
    """Display-only decimal rendering at 6 significant digits."""
    return f"{float(value):.6g}"


def bound_from_term(min_ones: int, max_ones: int, n: int) -> Bound:
    """Bound from one series term: every length-n survivor has its ones-count
    between the extremes, so the block-partition argument pins the frequency
    between min_ones/n and max_ones/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= min_ones <= max_ones <= n:
        raise ValueError(f"need 0 <= {min_ones} <= {max_ones} <= {n}")
    eps = max(HALF - Fraction(min_ones, n), Fraction(max_ones, n) - HALF)
    return Bound(eps, provenance=f"series-term({n})")


def bound_from_denominator(gf: RationalGF) -> Bound:
    """Asymptotic bound from the denominator 1 - D: the extreme ones-ratios of
    D's monomials bound every sufficiently deep series term."""
    d = gf.d_poly()
    if not d:
        raise DegenerateDenominatorError("denominator is 1; no monomials to bound with")
    eps = max(HALF - minratio(d), maxratio(d) - HALF)
    return Bound(eps, provenance="denominator")


@record(uncompared=("certificate",))
class DegreeProfile:
    """Per-length extremes of the ones-count over words avoiding a factor set.

    `certificate` is the min-plus kernel's (onset, period, slope) with
    min_ones[n + period] = min_ones[n] + slope for every n >= onset, or None
    when the kernel found no repeat within N steps or the profile was read
    off a series.  It takes no part in equality: it is how the profile was
    proven, not what it is.
    """

    words: tuple[str, ...]
    N: int
    min_ones: tuple[int, ...]
    max_ones: tuple[int, ...]
    certificate: tuple[int, int, int] | None = None

    @classmethod
    def from_series(cls, S: WordsLike, series: Series) -> "DegreeProfile":
        """Read the extremes off the nonzero coefficients of each series slice."""
        mins, maxs = [], []
        for n in range(series.order + 1):
            lo, hi = series.min_ones(n), series.max_ones(n)
            if lo is None or hi is None:
                raise EmptyLanguageError(f"no word of length {n} avoids the set")
            mins.append(lo)
            maxs.append(hi)
        return cls(as_words(S), series.order, tuple(mins), tuple(maxs))

    def check_invariants(self) -> None:
        """Raise AssertionError unless the extremes form a valid profile.

        A prefix of a surviving word survives, so min-ones never falls and
        max-ones rises by at most 1; min-ones can rise by more ({112, 21,
        222} gives 0, 0, 0, 1, 4), and max-ones can fall.
        """
        for n in range(self.N + 1):
            if not 0 <= self.min_ones[n] <= self.max_ones[n] <= n:
                raise AssertionError(f"extremes out of range at n={n}")
        for n in range(self.N):
            if self.min_ones[n + 1] < self.min_ones[n]:
                raise AssertionError(f"min-ones falls at n={n}")
            if self.max_ones[n + 1] > self.max_ones[n] + 1:
                raise AssertionError(f"max-ones jump at n={n}")


def best_bound(profile: DegreeProfile) -> tuple[int, Bound]:
    """Smallest epsilon over the profile's lengths; ties broken by smallest n.

    epsilon_n = max(n - 2 min_n, 2 max_n - n) / (2n) is compared across
    lengths by cross-multiplying integers, so only the winning term becomes
    a `Bound`.
    """
    if profile.N < 1:
        raise ValueError("profile must cover at least length 1")
    best_n, best = 1, max(1 - 2 * profile.min_ones[1], 2 * profile.max_ones[1] - 1)
    for n in range(2, profile.N + 1):
        excess = max(n - 2 * profile.min_ones[n], 2 * profile.max_ones[n] - n)
        if excess * best_n < best * n:
            best_n, best = n, excess
    return best_n, bound_from_term(profile.min_ones[best_n], profile.max_ones[best_n], best_n)
