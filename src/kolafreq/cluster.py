"""Goulden-Jackson cluster method with letter-tracking weights.

Words over {1, 2} avoiding a factor-free set S are enumerated by weight
x1^(#1s) x2^(#2s) t^(length).  Marked overlapping occurrences of S-words
form clusters; one unknown C_v per v in S satisfies

    C_v = -weight(v) - sum_u sum_L weight(v[L:]) * C_u,

summed over overlap lengths L for which the length-L suffix of u equals the
length-L prefix of v, and the full enumerator is

    weight(W) = 1 / (1 - (x1 + x2) t - sum_v C_v).

Two evaluation strategies are provided: solving the linear system exactly
over polynomials (rational closed form, small S), and the same equations
multiplied through by the enumerator, iterated degree by degree with
packed slices so that every step is shifts and additions only (truncated
series, scales to large S and N).  `series_from_gf` expands a closed form
slice by slice in plain integers, so it checks the packed series without
sharing its encoding.  Both routes take any set that passes
`avoided.checked_words`, the empty set included.
"""

from __future__ import annotations

from typing import Callable, Optional

from .avoided import WordsLike, checked_words
from .polynomials import (
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


def overlap_suffix_lengths(u: str, v: str) -> set[int]:
    """All L >= 1 below both lengths with the length-L suffix of u equal to
    the length-L prefix of v."""
    if not u or not v:
        raise ValueError("words must be nonempty")
    return {L for L in range(1, min(len(u), len(v))) if u[-L:] == v[:L]}


# -- rational closed form -----------------------------------------------------


def weight_gf(S: WordsLike) -> RationalGF:
    """Weight enumerator of words avoiding S, as a canonical rational function.

    The cluster system is solved by fraction-free (Bareiss) elimination over
    the integer polynomial ring; no pivoting is needed because every leading
    principal minor has constant term 1.
    """
    words = checked_words(S)
    one = WeightPoly.one()
    letters = WeightPoly.letter_sum()
    if not words:
        return RationalGF.canonical(one, one - letters)
    m = len(words)
    A = [[WeightPoly.zero() for _ in range(m)] for _ in range(m)]
    rhs = []
    for i, v in enumerate(words):
        A[i][i] = one
        rhs.append(-WeightPoly.from_word(v))
        for j, u in enumerate(words):
            tails: dict[tuple[int, int], int] = {}
            for L in overlap_suffix_lengths(u, v):
                tail = v[L:]
                key = (tail.count("1"), len(tail) - tail.count("1"))
                tails[key] = tails.get(key, 0) + 1
            if tails:
                A[i][j] = A[i][j] + WeightPoly(tails)
    det, y = _bareiss_solve(A, rhs)
    cluster_sum = WeightPoly.zero()
    for yi in y:
        cluster_sum = cluster_sum + yi
    denominator = det - det * letters - cluster_sum
    return RationalGF.canonical(det, denominator)


def _bareiss_solve(
    A: list[list[WeightPoly]], rhs: list[WeightPoly]
) -> tuple[WeightPoly, list[WeightPoly]]:
    """Fraction-free solve of A y/det = rhs: returns (det, y) with y = det * solution."""
    m = len(A)
    M = [row[:] + [rhs[i]] for i, row in enumerate(A)]
    zero = WeightPoly.zero()
    prev = WeightPoly.one()
    for k in range(m - 1):
        pivot = M[k][k]
        for i in range(k + 1, m):
            mik = M[i][k]
            row_i, row_k = M[i], M[k]
            for j in range(k + 1, m + 1):
                lhs = pivot * row_i[j] if row_i[j] else zero
                if mik and row_k[j]:
                    lhs = lhs - mik * row_k[j]
                row_i[j] = lhs.exact_div(prev) if lhs else zero
            row_i[k] = zero
        prev = pivot
    det = M[m - 1][m - 1]
    y = [zero] * m
    for i in range(m - 1, -1, -1):
        acc = det * M[i][m]
        for j in range(i + 1, m):
            if M[i][j] and y[j]:
                acc = acc - M[i][j] * y[j]
        y[i] = acc.exact_div(M[i][i]) if acc else zero
    return det, y


# -- truncated series ---------------------------------------------------------
#
# Degree-n slices are dense coefficient vectors packed into single big
# integers (one signed digit per x1-exponent).  Packing is evaluation at
# x1 = 2^width, a ring homomorphism, so multiplying a slice by a monomial
# x1^a x2^b is a left shift by width * a (x2 is implied by the degree).
# Only the language slices p_n are decoded, and their coefficients are at
# most 2^n, so a digit width of N + 2 bits is always sufficient.


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
    """
    if terms < 0:
        raise ValueError("terms must be >= 0")
    words = checked_words(S)
    width = terms + 2
    # The overlap prefixes x = v[:L], each with the words u it sums into R_x.
    members: dict[str, set[int]] = {}
    for v in words:
        for iu, u in enumerate(words):
            for L in overlap_suffix_lengths(u, v):
                members.setdefault(v[:L], set()).add(iu)
    prefix_index = {x: i for i, x in enumerate(members)}
    equations = []
    for v in words:
        tails = [
            (prefix_index[v[:L]], len(v) - L, width * v[L:].count("1"))
            for L in range(1, len(v))
            if v[:L] in prefix_index
        ]
        equations.append((len(v), width * v.count("1"), tails))
    sums = [sorted(m) for m in members.values()]
    # R_x is read back at most max|v| - 1 degrees later, and every read of a
    # step comes before its write: a ring of max|v| - 1 slices per prefix,
    # where slots of degrees <= 0 hold zero.
    ring = max([1] + [len(w) - 1 for w in words])
    zero = mpz(0)
    history = [[zero] * ring for _ in sums]
    q = [zero] * len(words)
    packed = [mpz(1)]
    for n in range(1, terms + 1):
        if should_cancel is not None and should_cancel():
            raise ComputationCancelled(f"cancelled at degree {n} of {terms}")
        prev = packed[n - 1]
        acc = prev + (prev << width)
        for iv, (length, shift, tails) in enumerate(equations):
            if n < length:
                continue
            qv = -(packed[n - length] << shift)
            for ix, tail_len, tail_shift in tails:
                qv -= history[ix][(n - tail_len) % ring] << tail_shift
            q[iv] = qv
            acc += qv
        slot = n % ring
        for ix, us in enumerate(sums):
            history[ix][slot] = sum(q[iu] for iu in us)
        packed.append(acc)
        if progress is not None:
            progress(n, terms)
    series = Series(tuple(
        tuple(unpack_signed(packed[n], n + 1, width)) for n in range(terms + 1)
    ))
    series.validate_counting()
    return series


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
    encoding with the packed series routes that it checks.
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
        if progress is not None:
            progress(n, terms)
    return Series(tuple(slices))
