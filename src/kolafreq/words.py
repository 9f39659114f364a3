"""Kolakoski word generation, run lengths, and letter swaps.

Letters are the characters "1" and "2" and words are plain strings, which
keeps factor search (`in`) at C speed even for multi-megabyte prefixes.
A prefix is made as a stream of shared pieces (`kolakoski_pieces`), each
the expansion of a chunk of the word's own letters read back as run
lengths, so a scan over the pieces (`AvoidanceAutomaton.accepts`) never
holds it whole.
"""

from __future__ import annotations

import struct
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
_SPLIT = struct.Struct(f"{_CHUNK}s" * _BATCH).unpack  # a full batch's span into its chunks
_LENGTHS = bytes.maketrans(b"12", b"\1\2")


class _Expansions(dict):
    """A chunk of run lengths, in ASCII, to the letters it lays down; a
    chunk not met before is expanded, and kept, on its first lookup."""

    def __missing__(self, lengths: bytes) -> str:
        self[lengths] = letters = "".join(
            map(str.__mul__, "21" * (_CHUNK // 2), lengths.translate(_LENGTHS)))
        return letters


def kolakoski_pieces(n: int, first_letter: int | str = 2) -> Iterator[str]:
    """The letters of `kolakoski_prefix(n, first_letter)`, in order, as pieces.

    The classical word is its own run-length sequence: its letters, once
    made, are read back as the lengths of the runs that follow, _CHUNK runs
    per lookup in a memo of the chunks met so far (782 distinct chunks in
    the first 10^7 letters).  A batch of up to _BATCH chunks is encoded to
    ASCII once and split into its chunks by one `struct` unpack, in C, and
    the memo expands a chunk on its first lookup.  Past the seed, each
    piece is the memo's own expansion of a chunk, a string shared by every
    occurrence, except the one cut at n, chained in C from the batches'
    lists.  Only the letters not yet read back are kept: a window from the
    read position on, re-joined with the pieces made since when the reader
    runs short, about a third of the letters made.  Bad arguments raise on
    the first `next`.
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
    memo = _Expansions()
    window, at, fresh = word, _SEED, []
    total = len(word)  # letters made
    while total < n:
        if len(window) - at < _CHUNK:
            window = window[at:]  # frees the letters read before the join
            window, at, fresh = "".join([window, *fresh]), 0, []
        # A run has one or two letters, about 3/2 on average, so this count
        # rarely overshoots n by more than a chunk; a shortfall loops again.
        count = min(_BATCH, (len(window) - at) // _CHUNK, -(-2 * (n - total) // (3 * _CHUNK)))
        # Only the batch's span is encoded, so the window stays a `str` joined
        # from shared pieces.  A partial batch (at the start, when the window
        # runs short, and at n) compiles its own split: kept, one per count,
        # they would cost about 140 KB each.
        split = _SPLIT if count == _BATCH else struct.Struct(f"{_CHUNK}s" * count).unpack
        new = list(map(memo.__getitem__, split(window[at:at + count * _CHUNK].encode("ascii"))))
        at += count * _CHUNK
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
