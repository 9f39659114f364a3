"""Kolakoski word generation, run lengths, and letter swaps.

Letters are the characters "1" and "2" and words are plain strings, which
keeps factor search (`in`) at C speed even for multi-megabyte prefixes.
A prefix is made as a stream of shared pieces (`kolakoski_pieces`), so a
scan over the pieces (`AvoidanceAutomaton.accepts`) never holds it whole.
"""

from __future__ import annotations

from itertools import chain, groupby
from typing import Iterable, Iterator

_SWAP = str.maketrans("12", "21")
_DIGITS = bytes.maketrans(bytes([1, 2]), b"12")


def swap_letters(word: str) -> str:
    """Interchange the letters 1 and 2."""
    return word.translate(_SWAP)


def swap_closed(words: Iterable[str]) -> bool:
    """True iff swapping the letters maps the set of words onto itself."""
    ws = set(words)
    return {swap_letters(w) for w in ws} == ws


def kolakoski_prefix(n: int, first_letter: int | str = 2) -> str:
    """First n letters of the self-run-length word starting with `first_letter`.

    Starting with 2 gives the classical word; starting with 1 gives the
    variant "1" followed by the classical word, whose tail agrees with it.
    """
    return "".join(kolakoski_pieces(n, first_letter))


_SEED = 64  # runs written letter by letter; they fill 97 letters
_CHUNK = 32  # even, so every chunk of runs starts with a run of 2s
_BATCH = 4096  # chunks read per batch, which bounds the batch's lists


def kolakoski_pieces(n: int, first_letter: int | str = 2) -> Iterator[str]:
    """The letters of `kolakoski_prefix(n, first_letter)`, in order, as pieces.

    The classical word is its own run-length sequence: its letters, once
    made, are read back as the lengths of the runs that follow, _CHUNK runs
    per lookup in a memo of the chunks met so far (782 distinct chunks in
    the first 10^7 letters).  Past the seed, each piece is the memo's own
    expansion of a chunk, a string shared by every occurrence, except the
    one cut at n, chained in C from lists of up to _BATCH.  Only the letters
    not yet read back are kept: a window from the read position on,
    re-joined with the pieces made since when the reader runs short, about
    a third of the letters made.  Bad arguments raise on the first `next`.
    """
    return chain.from_iterable(_batches(n, first_letter))


def _batches(n: int, first_letter: int | str) -> Iterator[list[str]]:
    """The pieces of `kolakoski_pieces`, a list at a time."""
    first = str(first_letter)
    if first not in ("1", "2"):
        raise ValueError("first_letter must be 1 or 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if first == "1" and n:
        yield ["1"]
        n -= 1
    # Seed: self-reading two-pointer construction, the read pointer trailing
    # the write position.
    seq = [2, 2]
    for read in range(1, _SEED):
        seq += [3 - seq[-1]] * seq[read]
    word = bytes(seq).translate(_DIGITS).decode("ascii")
    if n:
        yield [word[:n]]
    # The seed's 33 unread letters fill a chunk, and a chunk read gives at
    # least as many letters as it takes, so the window never runs dry.
    memo: dict[str, str] = {}
    window, at, fresh = word, _SEED, []
    total = len(word)  # letters made
    while total < n:
        if len(window) - at < _CHUNK:
            window = window[at:]  # frees the letters read before the join
            window, at, fresh = "".join([window, *fresh]), 0, []
        # A run has one or two letters, about 3/2 on average, so this count
        # rarely overshoots n by more than a chunk; a shortfall loops again.
        count = min(_BATCH, (len(window) - at) // _CHUNK, -(-2 * (n - total) // (3 * _CHUNK)))
        chunks = [window[i:i + _CHUNK] for i in range(at, at + count * _CHUNK, _CHUNK)]
        at += count * _CHUNK
        for lengths in set(chunks).difference(memo):
            memo[lengths] = "".join(map(str.__mul__, "21" * (_CHUNK // 2), map(int, lengths)))
        new = list(map(memo.__getitem__, chunks))
        fresh += new
        total += sum(map(len, new))
        while total - len(new[-1]) >= n:  # drop the pieces wholly past n
            total -= len(new.pop())
        if total > n:
            new[-1] = new[-1][:n - total]
        yield new


def run_lengths(word: str) -> list[int]:
    """Lengths of the maximal runs of equal letters, in order."""
    return [sum(1 for _ in group) for _, group in groupby(word)]
