"""Exact integer polynomials in the two letter-count variables.

A monomial x1^a x2^b stands for words containing a ones and b twos; the
length variable t is implied (t-degree = a + b), never stored, and
reconstructed only for display.  All coefficients are arbitrary-precision
integers; nothing in this module touches floating point.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping

from . import record

try:
    from gmpy2 import mpz  # GMP-backed integers speed up the packed kernels
except ImportError:  # pragma: no cover - gmpy2 is an optional accelerator
    mpz = int

Key = tuple[int, int]


class InexactDivisionError(ArithmeticError):
    """A division expected to be exact, such as a Bareiss step, left a remainder."""


class WeightPoly:
    """Sparse polynomial with exact integer coefficients, keyed by (ones, twos)."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, int] | None = None):
        clean: dict[Key, int] = {}
        if terms:
            for (a, b), c in terms.items():
                if c:
                    if a < 0 or b < 0:
                        raise ValueError(f"negative exponent in {(a, b)}")
                    clean[(a, b)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "WeightPoly":
        return cls()

    @classmethod
    def one(cls) -> "WeightPoly":
        return cls({(0, 0): 1})

    @classmethod
    def constant(cls, c: int) -> "WeightPoly":
        return cls({(0, 0): c})

    @classmethod
    def from_word(cls, word: str) -> "WeightPoly":
        """Weight of a single word: x1^(#1s) x2^(#2s)."""
        ones = word.count("1")
        return cls({(ones, len(word) - ones): 1})

    @classmethod
    def letter_sum(cls) -> "WeightPoly":
        """x1 + x2, the weight of one free letter position."""
        return cls({(1, 0): 1, (0, 1): 1})

    # -- accessors ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def constant_term(self) -> int:
        return self.terms.get((0, 0), 0)

    def t_degree(self) -> int:
        """Maximal a + b over stored terms; -1 for the zero polynomial."""
        return max((a + b for a, b in self.terms), default=-1)

    def sorted_terms(self) -> list[tuple[Key, int]]:
        """Terms in graded-lex order: by t-degree a + b, then by a."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0][0]))

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def slices(self) -> dict[int, list[int]]:
        """Dense coefficient vectors per t-degree, indexed by the x1-exponent."""
        out: dict[int, list[int]] = {}
        for (a, b), c in self.terms.items():
            n = a + b
            if n not in out:
                out[n] = [0] * (n + 1)
            out[n][a] = c
        return out

    # -- arithmetic --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, WeightPoly):
            return self.terms == other.terms
        if isinstance(other, int):
            return self.terms == ({} if other == 0 else {(0, 0): other})
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __neg__(self) -> "WeightPoly":
        return WeightPoly({k: -c for k, c in self.terms.items()})

    def __add__(self, other: "WeightPoly | int") -> "WeightPoly":
        if isinstance(other, int):
            other = WeightPoly.constant(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return WeightPoly(out)

    __radd__ = __add__

    def __sub__(self, other: "WeightPoly | int") -> "WeightPoly":
        if isinstance(other, int):
            other = WeightPoly.constant(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) - c
        return WeightPoly(out)

    def __mul__(self, other: "WeightPoly | int") -> "WeightPoly":
        if isinstance(other, int):
            if other == 0:
                return WeightPoly()
            return WeightPoly({k: c * other for k, c in self.terms.items()})
        if len(self.terms) > len(other.terms):
            self, other = other, self
        out: dict[Key, int] = {}
        for (a1, b1), c1 in self.terms.items():
            for (a2, b2), c2 in other.terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return WeightPoly(out)

    __rmul__ = __mul__

    # -- display -----------------------------------------------------------

    def __str__(self) -> str:
        """Human-readable sum with the t variable reconstructed from a + b."""
        if not self.terms:
            return "0"
        pieces = []
        for (a, b), c in self.sorted_terms():
            factors = []
            if abs(c) != 1 or (a, b) == (0, 0):
                factors.append(str(abs(c)))
            for name, e in (("x1", a), ("x2", b), ("t", a + b)):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not pieces:
                pieces.append(body if c > 0 else f"-{body}")
            else:
                pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"WeightPoly({self.terms!r})"


# -- packed homogeneous slices ----------------------------------------------
#
# A degree-n slice (dense vector indexed by the x1-exponent) is packed into a
# single big integer with one signed digit of `width` bits per coefficient.
# Packing is evaluation at x1 = 2^width, which is a ring homomorphism, so
# sums and products of packed slices are exact regardless of intermediate
# digit growth; only values that are eventually *decoded* need their true
# coefficients to fit in a signed digit, whose width is whole bytes.


def unpack_signed(packed, count: int, width: int) -> list[int]:
    """The `count` signed `width`-bit digits of `packed`, lowest first.

    A bias of 2^(width-1) on every digit makes them all nonnegative, so one
    `to_bytes` splits the biased value: linear time.  Raises ValueError
    unless width is a multiple of 8, and (from `to_bytes`) OverflowError
    outside the range [-bias, 2^(width*count) - 1 - bias] of the digits.
    """
    if width <= 0 or width % 8:
        raise ValueError(f"digit width {width} is not a positive multiple of 8")
    size = width // 8
    half = 1 << (width - 1)
    biased = int(packed) + int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    data = biased.to_bytes(size * count, "little")
    return [int.from_bytes(data[i:i + size], "little") - half for i in range(0, len(data), size)]


# -- truncated series --------------------------------------------------------


@record
class Series:
    """Truncated weight series: slices[n][a] is the coefficient of x1^a x2^(n-a) t^n."""

    slices: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.slices) - 1

    def poly(self, n: int) -> WeightPoly:
        return WeightPoly({(a, n - a): c for a, c in enumerate(self.slices[n]) if c})

    def min_ones(self, n: int) -> int | None:
        for a, c in enumerate(self.slices[n]):
            if c:
                return a
        return None

    def max_ones(self, n: int) -> int | None:
        row = self.slices[n]
        for a in range(len(row) - 1, -1, -1):
            if row[a]:
                return a
        return None

    def validate_counting(self) -> None:
        """Assert the invariants of a word-counting series."""
        if self.slices[0] != (1,):
            raise AssertionError("constant slice must be exactly 1")
        for n, row in enumerate(self.slices):
            if len(row) != n + 1:
                raise AssertionError(f"slice {n} is not homogeneous of degree {n}")
            if any(c < 0 for c in row):
                raise AssertionError(f"negative coefficient in slice {n}")
            if sum(row) > 2**n:
                raise AssertionError(f"slice {n} counts more than 2^{n} words")


# -- rational generating functions -------------------------------------------


@record
class RationalGF:
    """Quotient of weight polynomials, denominator normalized to constant term 1."""

    numerator: WeightPoly
    denominator: WeightPoly

    @classmethod
    def canonical(cls, num: WeightPoly, den: WeightPoly) -> "RationalGF":
        """Reduce to lowest terms and scale so the denominator's constant is +1."""
        if not den:
            raise ZeroDivisionError("zero denominator")
        if den.constant_term == 0:
            raise ValueError("denominator must have a nonzero constant term")
        c = gcd(num.content(), den.content())
        if c > 1:
            num = WeightPoly({k: v // c for k, v in num.terms.items()})
            den = WeightPoly({k: v // c for k, v in den.terms.items()})
        if num and not _coprime_on_line(num, den):  # 0 has no degree to keep on the line
            num, den = _sympy_cofactors(num, den)
        if den.constant_term < 0:
            num, den = -num, -den
        if den.constant_term != 1:
            raise ValueError("cannot normalize denominator constant term to 1")
        return cls(num, den)

    def d_poly(self) -> WeightPoly:
        """D in the 1 - D form of the denominator."""
        return WeightPoly.one() - self.denominator


_P = 2**61 - 1  # a Mersenne prime


def _on_line(f: WeightPoly) -> list[int]:
    """Coefficients of f(x, 3x) mod _P, indexed by the degree in x."""
    out = [0] * (f.t_degree() + 1)
    for (a, b), c in f.terms.items():
        out[a + b] = (out[a + b] + c * pow(3, b, _P)) % _P
    return out


def _coprime_on_line(f: WeightPoly, g: WeightPoly) -> bool:
    """True only if f and g provably share no nonconstant factor.

    Restriction to the line x2 = 3 x1 modulo _P is a ring homomorphism that
    cannot raise degrees.  If f = h f' and f(x, 3x) keeps the full degree of
    f, then h(x, 3x) keeps the degree of h, so a nonconstant common factor h
    would leave a nonconstant common factor of the restrictions.  Hence full
    degrees and a constant gcd over GF(_P) prove f and g coprime.
    """
    a, b = _on_line(f), _on_line(g)
    if not (a[-1] and b[-1]):
        return False
    while b:  # Euclid over GF(_P), leading coefficients last
        inv = pow(b[-1], -1, _P)
        while len(a) >= len(b):
            q, shift = a[-1] * inv % _P, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % _P
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) == 1


def _sympy_cofactors(f: WeightPoly, g: WeightPoly) -> tuple[WeightPoly, WeightPoly]:
    """f and g divided by their gcd: sympy finds the gcd and cancels it in one call."""
    import sympy

    x1, x2 = sympy.symbols("x1 x2")
    fp, gp = (sympy.Poly.from_dict(dict(p.terms), x1, x2) for p in (f, g))
    fq, gq = (WeightPoly({(int(a), int(b)): int(c) for (a, b), c in q.as_dict().items()})
              for q in fp.cofactors(gp)[1:])
    return fq, gq
