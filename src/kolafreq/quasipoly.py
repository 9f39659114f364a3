"""Eventual linear quasi-polynomial structure of min-ones sequences.

The per-length minimum ones-count m_n of the words avoiding a factor set
settles into m_n = c * floor(n / M) + k_(n mod M) from some onset on.  One
fit body reads c, the onset and k off the data for a given M.
`certified_fit` reads M off the kernel's certificate, which proves the
structure for every n, so the limit c/M gives a rigorous bound;
`fit_quasipoly` guesses M from a bare sequence, so its bound stays
semi-rigorous.  The successive maxima of m_n / n follow in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .automaton import _min_ones, build_automaton
from .avoided import WordsLike, as_words
from .bounds import HALF, Bound
from .words import swap_letters


class NoFitFoundError(ValueError):
    """No modulus within limits satisfies the shift relation."""


@dataclass(frozen=True)
class QuasiPolyFit:
    """Eventual fit m_n = slope * floor(n / modulus) + constants[n mod modulus]."""

    modulus: int
    slope: int
    constants: tuple[int, ...]
    onset: int
    window: tuple[int, int]
    certificate: tuple[int, int, int] | None = None  # (onset, period, slope), if proven

    @property
    def limit(self) -> Fraction:
        """Limiting ones-ratio slope/modulus."""
        return Fraction(self.slope, self.modulus)

    def predict(self, n: int) -> int:
        return self.slope * (n // self.modulus) + self.constants[n % self.modulus]


def _fit(m: Sequence[int], modulus: int) -> QuasiPolyFit:
    """The fit of modulus M to m: the slope over the last M steps, the onset
    as the first index from which m[n + M] = m[n] + slope holds through the
    end of the data, and each residue's constant from its last index."""
    N = len(m) - 1
    slope = m[N] - m[N - modulus]
    onset = 0
    for n in range(N - modulus, -1, -1):
        if m[n + modulus] - m[n] != slope:
            onset = n + 1
            break
    constants = []
    for i in range(modulus):
        n = N - ((N - i) % modulus)  # largest index in residue class i
        constants.append(m[n] - slope * (n // modulus))
    return QuasiPolyFit(modulus, slope, tuple(constants), onset, (onset, N))


def fit_quasipoly(m: Sequence[int]) -> QuasiPolyFit:
    """Guess the smallest modulus M with m[n + M] = m[n] + c from some onset on.

    The onset must fall in the first half of the window, otherwise the
    evidence is deemed too thin: M fits iff the steps m[n + 1] - m[n] are
    M-periodic on the second half.  M is searched up to max(1, N // 4) in
    ascending order, so the returned modulus is minimal by construction.
    """
    N = len(m) - 1
    if N < 3:
        raise ValueError("need at least 4 values to fit")
    step, half = [b - a for a, b in zip(m, m[1:])], N // 2
    for modulus in range(1, max(1, N // 4) + 1):
        if step[half:N - modulus] == step[half + modulus:]:
            return _fit(m, modulus)
    raise NoFitFoundError(f"no modulus <= {max(1, N // 4)} fits; "
                          "data too short or not quasi-polynomial")


def certified_fit(S: WordsLike, N: int) -> QuasiPolyFit:
    """The fit of the fewest ones avoiding S, proven by the kernel's certificate.

    `certified_period` gives (n0, P, c) with m_(n+P) = m_n + c for all
    n >= n0, so the steps are P-periodic from n0 on and the least period is
    the least divisor p of P that they repeat by on [n0, n0 + P).  Raises
    ValueError unless S is swap-closed, which mirrors the lower side of the
    bound into the upper, and the kernel repeats within N steps.
    """
    words = as_words(S)
    if {swap_letters(w) for w in words} != set(words):
        raise ValueError("the set is not closed under swapping the letters")
    m, certificate = _min_ones(build_automaton(words), N)  # certified_period's run, with m
    if certificate is None:
        raise ValueError(f"no certified period within {N} steps")
    n0, period, _slope = certificate
    step = [b - a for a, b in zip(m[n0:n0 + period], m[n0 + 1:n0 + period + 1])]
    p = next(p for p in range(1, period + 1)
             if period % p == 0 and step[:period - p] == step[p:])
    return replace(_fit(m, p), certificate=certificate)


@dataclass(frozen=True)
class MaximaReport:
    """Successive maxima of m_n / n and their eventual closed form.

    Beyond the onset the records all fall in one residue class i*, where
    they equal (slope * j + intercept) / (modulus * j + i*) for j >= first_j.
    """

    records: tuple[tuple[int, Fraction], ...]
    modulus: int
    slope: int
    residue: int
    intercept: int
    first_j: int
    attained: bool

    def formula(self) -> str:
        return (
            f"({self.slope} m + {self.intercept})/({self.modulus} m + {self.residue})"
        )

    def value(self, j: int) -> Fraction:
        return Fraction(
            self.slope * j + self.intercept, self.modulus * j + self.residue
        )


def successive_maxima(m: Sequence[int], fit: QuasiPolyFit) -> MaximaReport:
    """Scan the running maxima of m_n / n and classify the eventual records.

    Records with a previously attained ratio are skipped, so each ratio keeps
    its earliest n.  The trailing records must agree with the fit; any
    mismatch means the fit does not describe this sequence.
    """
    N = len(m) - 1
    records: list[tuple[int, Fraction]] = []
    best = Fraction(-1)
    for n in range(1, N + 1):
        r = Fraction(m[n], n)
        if r > best:
            records.append((n, r))
            best = r
    if not records or records[-1][0] < fit.onset:
        raise ValueError("no records beyond the fit onset; window too short")
    residue = records[-1][0] % fit.modulus
    tail_start = len(records) - 1
    while tail_start > 0:
        n_prev = records[tail_start - 1][0]
        if n_prev % fit.modulus != residue or n_prev < fit.onset:
            break
        tail_start -= 1
    for n, r in records[tail_start:]:
        if m[n] != fit.predict(n):
            raise ValueError(f"record at n={n} disagrees with the fitted values")
    return MaximaReport(
        records=tuple(records),
        modulus=fit.modulus,
        slope=fit.slope,
        residue=residue,
        intercept=fit.constants[residue],
        first_j=(records[tail_start][0] - residue) // fit.modulus,
        attained=any(r == fit.limit for _n, r in records),
    )


def semi_rigorous_bound(fit: QuasiPolyFit) -> Bound:
    """Bound |freq - 1/2| <= |1/2 - c/M| from the fit's limit c/M.

    Rigorous when the fit carries a certificate: every factor of length n
    of the Kolakoski word has at least m_n ones, so freq >= m_n / n for
    every n and hence freq >= lim m_n / n = c/M, and the swap-closed set
    mirrors that into freq <= 1 - c/M.  A guessed fit is only verified
    inside its window, so its bound is semi-rigorous.
    """
    eps = abs(HALF - fit.limit)
    if fit.certificate is not None:
        n0, period, slope = fit.certificate
        return Bound(eps, provenance=f"certified-limit(n0={n0}, P={period}, c={slope})")
    provenance = (
        f"semi-rigorous-limit(M={fit.modulus}, c={fit.slope}, "
        f"onset={fit.onset}, window={fit.window[0]}..{fit.window[1]})"
    )
    return Bound(eps, provenance=provenance, rigor="semi-rigorous")
