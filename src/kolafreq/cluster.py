"""Goulden-Jackson cluster method with letter-tracking weights.

Words over {1, 2} avoiding a factor-free set S are enumerated by weight
x1^(#1s) x2^(#2s) t^(length).  Marked overlapping occurrences of S-words
form clusters; one unknown C_v per v in S satisfies

    C_v = -weight(v) - sum_u sum_L weight(v[L:]) * C_u,

summed over overlap lengths L for which the length-L suffix of u equals the
length-L prefix of v, and the full enumerator is

    weight(W) = 1 / (1 - (x1 + x2) t - sum_v C_v).

Both routes read the overlaps off one index of the words' proper suffixes
(`_suffix_index`): the words u that overlap v by L are those longer than L
that end with v's length-L prefix.  The closed form (small S) solves the
system by Bareiss elimination on integers that pack the polynomials, and
proves the decoded solution by substituting it back.  The series (large S
and N) multiplies the equations through by the enumerator and steps degree
by degree on packed slices with shifts and additions only.
`series_from_gf` expands a closed form slice by slice in plain integers,
so it checks the packed series without sharing its encoding.  Both routes
take any set that passes `avoided.checked_words`, the empty set included.
"""

from __future__ import annotations

from math import log2
from typing import Callable, Iterator, Optional

from .avoided import WordsLike, checked_words
from .polynomials import (
    InexactDivisionError,
    RationalGF,
    Series,
    WeightPoly,
    mpz,
    unpack_signed,
)

Progress = Optional[Callable[[int, int], None]]
Cancel = Optional[Callable[[], bool]]


class ComputationCancelled(RuntimeError):
    """Raised when a cooperative cancellation callback returns True."""


def _suffix_index(words: tuple[str, ...]) -> dict[str, list[int]]:
    """Each proper suffix x of a word -> the indices of the words that end
    with x, ascending.  The words that overlap v by L are ends[v[:L]]."""
    ends: dict[str, list[int]] = {}
    for iu, u in enumerate(words):
        for L in range(1, len(u)):
            ends.setdefault(u[-L:], []).append(iu)
    return ends


def overlap_suffix_lengths(u: str, v: str) -> set[int]:
    """All L >= 1 below both lengths with the length-L suffix of u equal to
    the length-L prefix of v.  Neither route calls it: bench/tracer.py counts
    the overlap tails of a traced series with it."""
    if not u or not v:
        raise ValueError("words must be nonempty")
    return {L for L in range(1, min(len(u), len(v))) if u[-L:] == v[:L]}


# -- rational closed form -----------------------------------------------------


_START_WIDTH = 8  # bits per digit of the first packed elimination


def weight_gf(
    S: WordsLike,
    *,
    progress: Progress = None,
    should_cancel: Cancel = None,
) -> RationalGF:
    """Weight enumerator of words avoiding S, as a canonical rational function.

    The cluster system A C = rhs is solved by fraction-free (Bareiss)
    elimination on integers: each entry of M = [A | rhs] is evaluated at
    x1 = 2^w, x2 = 2^(wD).  Evaluation is a ring homomorphism for any D and
    every Bareiss division is exact in Z[x1, x2], so it is exact in Z; no
    pivot is needed, as every leading principal minor has constant term 1,
    so is 1 mod 2^w.  Only det and y = det * C are decoded, then proven by
    A y == det * rhs with det != 0, packed afresh as det and y call for
    (`_solves`): A is the identity modulo (x1, x2), so C = y / det whether
    or not det is the true determinant.  The decode is right once w holds
    every coefficient and D exceeds every x1-degree; a wrong one fails the
    proof and the next of `_attempts` runs.  The first two are at the
    narrowest width and its double, and a D estimated off det and y, 32
    bits a degree, by a probe: one elimination at x1 = 2^32, x2 = -2 (every
    pivot odd).  The rest double w at the a-priori D = 1 + the sum of the
    rows' largest x1-degrees, which exceeds the x1-degree of every minor,
    up to the first whole byte past the l1 bound prod_i sum_j |M_ij|_1 on
    the coefficients of the minors, where decoding is exact; a failure
    there raises ArithmeticError.  `progress(k, m)` is called once per
    elimination step of every attempt, `should_cancel()` of the probe too.
    """
    words = checked_words(S)
    one, letters = WeightPoly.one(), WeightPoly.letter_sum()
    m = len(words)
    ends = _suffix_index(words)
    M = [[WeightPoly.zero()] * m + [-WeightPoly.from_word(v)] for v in words]
    for i, v in enumerate(words):
        M[i][i] = one
        for L in range(1, len(v)):
            for j in ends.get(v[:L], ()):
                M[i][j] = M[i][j] + WeightPoly.from_word(v[L:])
    a_priori = 1 + sum(max(a for p in row for a, _ in p.terms) for row in M)
    l1 = 1
    for row in M:
        l1 *= sum(abs(c) for p in row for c in p.terms.values())
    widest = (l1.bit_length() + 8) // 8 * 8
    probe = [[sum(mpz(c) * (-2) ** b << 32 * a for (a, b), c in p.terms.items()) for p in row]
             for row in M]
    guess = 1 + max((abs(x).bit_length() - 1) // 32
                    for x in _bareiss_solve(probe, None, should_cancel))
    for width, D in _attempts(min(guess, a_priori), a_priori, widest):
        packed = [[sum(mpz(c) << width * (a + D * b) for (a, b), c in p.terms.items())
                   for p in row] for row in M]
        det, *y = (  # no nonzero signed digit of x lies past bit_length // width + 1
            WeightPoly({(k % D, k // D): c for k, c in
                        enumerate(unpack_signed(x, x.bit_length() // width + 2, width))})
            for x in _bareiss_solve(packed, progress, should_cancel)
        )
        if det and _solves(M, [*y, -det]):
            return RationalGF.canonical(det, det - det * letters - sum(y))
    raise ArithmeticError(f"cluster system unsolved at the proven width {widest}")


def _solves(M: list[list[WeightPoly]], z: list[WeightPoly]) -> bool:
    """Whether sum_j M_ij z_j = 0 in every row i, packed injectively: 2^w exceeds
    the bound sum_j |M_ij|_1 |z_j|_inf on their coefficients, D their x1-degrees."""
    D = 1 + max(a for p in z for a, _ in p.terms) + max(
        (a for r in M for p in r for a, _ in p.terms), default=0)
    sup = [max(map(abs, p.terms.values()), default=0) for p in z]
    w = max((sum(sum(map(abs, p.terms.values())) * s for p, s in zip(r, sup)) for r in M),
            default=0).bit_length()
    packed = [sum(mpz(c) << w * (a + D * b) for (a, b), c in p.terms.items()) for p in z]
    return not any(sum(c * x << w * (a + D * b) for p, x in zip(r, packed) for (a, b), c in p.terms.items())
                   for r in M)


def _attempts(guess: int, a_priori: int, widest: int) -> list[tuple[int, int]]:
    """(width, D) of each packed elimination, each pair once: the narrowest
    width and the doubled one at the probe's guess of D, then the width
    doubled from the narrowest at D = a_priori up to widest.  The last
    attempt is (widest, a_priori)."""
    widths = [_START_WIDTH << k for k in range(widest.bit_length()) if _START_WIDTH << k < widest]
    widths.append(widest)
    return list(dict.fromkeys([*((w, guess) for w in widths[:2]), *((w, a_priori) for w in widths)]))


def _bareiss_solve(M: list[list], progress: Progress, should_cancel: Cancel) -> list:
    """[det, y_1..y_m] of the packed system M = [A | rhs], with y = det * A^-1 rhs."""
    m = len(M)
    prev = mpz(1)
    for k, row_k in enumerate(M):
        if should_cancel is not None and should_cancel():
            raise ComputationCancelled(f"cancelled at elimination step {k + 1} of {m}")
        for row_i in M[k + 1:]:
            for j in range(k + 1, m + 1):
                row_i[j] = _exact_div(row_k[k] * row_i[j] - row_i[k] * row_k[j], prev)
        prev = row_k[k]
        if progress is not None:
            progress(k + 1, m)
    y = [mpz(0)] * m
    for i in range(m - 1, -1, -1):
        acc = prev * M[i][m] - sum(M[i][j] * y[j] for j in range(i + 1, m))
        y[i] = _exact_div(acc, M[i][i])
    return [prev, *y]


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError("a Bareiss division left a remainder")
    return q


# -- truncated series ---------------------------------------------------------
#
# Degree-n slices are dense coefficient vectors packed into single big
# integers (one signed digit per x1-exponent).  Packing is evaluation at
# x1 = 2^width, a ring homomorphism, so multiplying a slice by a monomial
# x1^a x2^b is a left shift by width * a (x2 is implied by the degree).
# Width 0 is evaluation at x1 = 1, which gives the word counts c_n.  The
# nonzero digits of p_n and of the R_x slices of degree n lie in a narrow
# band (x1-exponents 115-135 of 251 for S_4 at n = 250), so each is kept
# divided by x1^base_n, the lowest power they share: a step costs about the
# band, not n digits, and only the band is decoded.


def weight_series(
    S: WordsLike,
    terms: int,
    *,
    progress: Progress = None,
    should_cancel: Cancel = None,
) -> Series:
    """First slices p_0..p_terms of the weight enumerator of words avoiding S.

    The cluster equations are multiplied through by the language series p
    (Noonan and Zeilberger): with Q_v = p C_v,

        Q_v = -weight(v) p - sum_L weight(v[L:]) R_(v[:L]),
        p   = 1 + (x1 + x2) p + sum_v Q_v,

    where R_x is the sum of Q_u over the words u of S longer than x that end
    with x, and L runs over the overlap lengths of v.  Every tail v[L:] has
    positive degree, so degree-n slices depend only on smaller degrees, and
    every product is a monomial times a slice: one step is a shift-add per
    word, per overlap length and per (prefix, word) membership, and no
    multiplication.

    The steps run packed once, at the whole-byte width that the growth of
    the word counts c_0..c_k (k = 2 max|v| + 16, at x1 = 1) calls for, plus
    two bits.  Slice p_n is decoded as it is made, and exactly, as
    2 c_(n-1) < 2^(width-1) is checked first: its coefficients lie in
    [0, c_n], and c_n <= 2 c_(n-1) as a prefix of a word avoiding S avoids
    S.  It must be nonnegative with a sum of at most 2 c_(n-1), or
    ArithmeticError is raised.  A slice that the width does not cover
    restarts the pass at a width read off the proven counts, or at N + 2
    bits in whole bytes, which c_n <= 2^n always covers.  `progress` is
    called once per proven slice, from 1 again on a restart, `should_cancel`
    once per degree of the prefix and of each attempt.
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    words = checked_words(S)
    k = min(terms, 2 * max(map(len, words), default=0) + 16)
    counts = [1, *(int(c) for c, _ in _packed_slices(words, k, 0, should_cancel))]
    width = _series_width(counts, terms)
    while True:
        rows, count = [(1,)], 1
        for n, (x, lo) in enumerate(_packed_slices(words, terms, width, should_cancel), 1):
            if (2 * count).bit_length() >= width:
                width = _series_width([sum(row) for row in rows], terms)
                break
            band = unpack_signed(x, min(n + 1 - lo, x.bit_length() // width + 2), width)
            if (total := sum(band)) > 2 * count or min(band) < 0:
                raise ArithmeticError(f"slice {n} at width {width} counts no words")
            count = total
            rows.append(tuple([0] * lo + band + [0] * (n + 1 - lo - len(band))))
            if progress is not None:
                progress(n, terms)
        else:
            return Series(tuple(rows))


def _series_width(counts: list, terms: int) -> int:
    """Whole bytes with 2 c_(n-1) < 2^(width-1) at every n <= terms, for the
    counts c_0..c_m and, past them, c_m grown at its rate over c_(m//2)..c_m
    (in log n if its log grows by less than 1.5 times as much as over
    c_(m//4)..c_(m//2)), plus 2 bits; at most terms + 2, as c_(n-1) <= 2^(n-1)."""
    bits = max((c.bit_length() for c in counts[:terms]), default=0)
    m = len(counts) - 1
    if m < terms and counts[m]:
        low, mid, top = (log2(counts[i]) for i in (m // 4, m // 2, m))
        poly = top - mid < 1.5 * (mid - low)  # an exponential c: log c gains about twice as much
        rate = (top - mid) / (log2(m / (m // 2)) if poly else m - m // 2)
        bits = max(bits, int(top + rate * (log2((terms - 1) / m) if poly else terms - 1 - m)) + 3)
    return (min(bits, terms) + 9) // 8 * 8


def _packed_slices(words: tuple[str, ...], terms: int, width: int,
                   should_cancel: Cancel) -> Iterator[tuple]:
    """(p_n at x1 = 2^width divided by x1^base_n, base_n) for n = 1..terms."""
    ends = _suffix_index(words)  # ends[x]: the words R_x sums
    prefix_index: dict[str, int] = {}
    equations = []
    for v in words:
        tails = [(prefix_index.setdefault(v[:L], len(prefix_index)), len(v) - L, width * v[L:].count("1"))
                 for L in range(1, len(v)) if v[:L] in ends]
        equations.append((len(v), width * v.count("1"), tails))
    sums = [ends[x] for x in prefix_index]
    # R_x is read back at most max|v| - 1 degrees later, and every read of a
    # step comes before its write: a ring of max|v| - 1 slices per prefix,
    # where slots of degrees <= 0 hold zero.
    ring = max([1] + [len(w) - 1 for w in words])
    history = [[mpz(0)] * ring for _ in sums]
    q = [mpz(0)] * len(words)
    packed = [mpz(1)]
    base = [0]
    for n in range(1, terms + 1):
        if should_cancel is not None and should_cancel():
            raise ComputationCancelled(f"cancelled at degree {n} of {terms}")
        # The step works at the lowest base it reads, degrees n - 1 back to
        # n - max|v|; off[k] lifts a value of degree n - k to it.
        window = base[-1:-ring - 2:-1]
        b = min(window)
        off = [0] + [width * (m - b) for m in window]
        prev = packed[n - 1] << off[1]
        acc = prev + (prev << width)
        for iv, (length, shift, tails) in enumerate(equations):
            if n < length:
                continue
            qv = -(packed[n - length] << shift + off[length])
            for ix, tail_len, tail_shift in tails:
                qv -= history[ix][(n - tail_len) % ring] << tail_shift + off[tail_len]
            q[iv] = qv
            acc += qv
        slot = n % ring
        z = acc
        for ix, us in enumerate(sums):
            history[ix][slot] = r = sum(map(q.__getitem__, us))
            z |= r
        # The zero digits below the lowest nonzero digit of p_n and of every
        # R_x,n are dropped: a right shift by them is exact.
        t = ((z & -z).bit_length() - 1) // width if width and z else 0
        if t:
            acc >>= t * width
            for h in history:
                h[slot] >>= t * width
        packed.append(acc)
        base.append(b + t)
        yield acc, b + t


def series_from_gf(
    gf: RationalGF,
    terms: int,
    *,
    progress: Progress = None,
    should_cancel: Cancel = None,
) -> Series:
    """Expand numerator/denominator to the given order via the induced recurrence.

    With den = 1 + sum_k den_k, slice n is num_n - sum_k den_k * slice_(n-k),
    products of homogeneous slices taken coefficient by coefficient in plain
    integers.  Works for any well-formed rational function, and shares no
    encoding with the packed series routes that it checks.  `progress` is
    called once per slice 1..terms, as by `weight_series`, `should_cancel`
    once per degree.
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    if gf.denominator.constant_term != 1:
        raise ValueError("denominator constant term must be 1")
    num = gf.numerator.slices()
    den = sorted((k, row) for k, row in gf.denominator.slices().items() if 0 < k <= terms)
    slices: list[tuple[int, ...]] = []
    for n in range(terms + 1):
        if should_cancel is not None and should_cancel():
            raise ComputationCancelled(f"cancelled at degree {n} of {terms}")
        acc = num.get(n, [0] * (n + 1))
        for k, dk in den:
            if k > n:
                break
            prev = slices[n - k]
            for i, c in enumerate(dk):
                if c:
                    for j, p in enumerate(prev):
                        acc[i + j] -= c * p
        slices.append(tuple(acc))
        if progress is not None and n:
            progress(n, terms)
    return Series(tuple(slices))
