"""Exact rational bounds on the limiting frequency of the letter 1.

Every bound has the two-sided form |freq - 1/2| <= epsilon and is valid
conditional on the limiting frequency existing; that caveat travels with
every rendered bound.  A bound comes from one series term
(`bound_from_term`, searched by `best_bound`) or from the denominator 1 - D
of a closed form, whose monomials' extreme ones-ratios `minratio` and
`maxratio` read straight off D.  All arithmetic is exact (fractions of
integers); decimal renderings are display-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, ClassVar

if TYPE_CHECKING:
    from .automaton import DegreeProfile
    from .polynomials import RationalGF, WeightPoly

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


@dataclass(frozen=True)
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
    if d.is_zero():
        raise DegenerateDenominatorError("denominator is 1; no monomials to bound with")
    eps = max(HALF - minratio(d), maxratio(d) - HALF)
    return Bound(eps, provenance="denominator")


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
