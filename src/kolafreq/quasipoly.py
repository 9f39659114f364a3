"""Eventual linear quasi-polynomial structure of min-ones sequences.

The per-length minimum ones-count m_n of the words avoiding a factor set
settles into m_n = c * floor(n / M) + k_(n mod M) from some onset on.
`certified_fit` reads M, c, the onset and k off a profile and its kernel
certificate, which proves the structure for every n, so the limit c/M gives
a rigorous bound (`QuasiPolyFit.bound`).  The successive maxima of m_n / n
follow in closed form.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import record
from .bounds import HALF, Bound, DegreeProfile
from .words import swap_closed


@record
class QuasiPolyFit:
    """Eventual fit m_n = slope * floor(n / modulus) + constants[n mod modulus]."""

    modulus: int
    slope: int
    constants: tuple[int, ...]
    onset: int
    certificate: tuple[int, int, int]  # (onset, period, slope) of the kernel

    @property
    def limit(self) -> Fraction:
        """Limiting ones-ratio slope/modulus."""
        return Fraction(self.slope, self.modulus)

    @property
    def bound(self) -> Bound:
        """Bound |freq - 1/2| <= |1/2 - c/M| from the limit c/M.

        The paper calls this bound semi-rigorous, as it rested on a guessed
        quasi-polynomial; the certificate makes it rigorous.  Every factor
        of length n of the Kolakoski word has at least m_n ones, so freq >=
        m_n / n for every n and hence freq >= lim m_n / n = c/M, and the
        swap-closed set mirrors that into freq <= 1 - c/M.
        """
        n0, period, slope = self.certificate
        return Bound(abs(HALF - self.limit),
                     provenance=f"certified-limit(n0={n0}, P={period}, c={slope})")

    def predict(self, n: int) -> int:
        return self.slope * (n // self.modulus) + self.constants[n % self.modulus]


def certified_fit(profile: DegreeProfile) -> QuasiPolyFit:
    """The fit of the profile's fewest ones, proven by its certificate.

    The certificate (n0, P, c) gives m_(n+P) = m_n + c for all n >= n0, so
    the steps are P-periodic from n0 on, and the modulus M is the least
    divisor of P that they repeat by on [n0, n0 + P).  The slope is the rise
    over the last M steps, the onset the first index from which
    m_(n+M) = m_n + slope holds through N, and each residue's constant comes
    from its last index.  Raises ValueError unless the set is swap-closed,
    which mirrors the lower side of the bound into the upper, and the
    profile carries a certificate.
    """
    if not swap_closed(profile.words):
        raise ValueError("the set is not closed under swapping the letters")
    if profile.certificate is None:
        raise ValueError(f"no certified period within {profile.N} steps")
    m, N = profile.min_ones, profile.N
    n0, period, _slope = profile.certificate
    step = [b - a for a, b in zip(m[n0:n0 + period], m[n0 + 1:n0 + period + 1])]
    modulus = next(p for p in range(1, period + 1)
                   if period % p == 0 and step[:period - p] == step[p:])
    slope = m[N] - m[N - modulus]
    onset = next((n + 1 for n in range(N - modulus, -1, -1)
                  if m[n + modulus] - m[n] != slope), 0)
    last = [N - (N - i) % modulus for i in range(modulus)]  # each residue's last index
    constants = tuple(m[n] - slope * (n // modulus) for n in last)
    return QuasiPolyFit(modulus, slope, constants, onset, profile.certificate)


@record
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
