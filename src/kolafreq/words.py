"""Kolakoski word generation, run lengths, and letter swaps.

Letters are the characters "1" and "2" and words are plain strings, which
keeps factor search (`in`) at C speed even for multi-megabyte prefixes.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable

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
    first = str(first_letter)
    if first not in ("1", "2"):
        raise ValueError("first_letter must be 1 or 2")
    if n < 0:
        raise ValueError("n must be >= 0")
    if first == "1":
        return "1" + _classical_prefix(n - 1) if n else ""
    return _classical_prefix(n)


_SEED = 64
_CHUNK = 32  # even, so every chunk of runs starts with a run of 2s


def _classical_prefix(n: int) -> str:
    """First n letters of the classical word, which is its own run-length
    sequence: the letters already built are read as the lengths of the runs
    that follow, _CHUNK runs per lookup in a memo of the chunks met so far
    (782 distinct chunks in the first 10^7 letters)."""
    # Seed: self-reading two-pointer construction, the read pointer trailing
    # the write position.
    seq = [2, 2]
    read = 1
    while len(seq) < min(n, _SEED):
        letter = 3 - seq[-1]
        seq.append(letter)
        if seq[read] == 2:
            seq.append(letter)
        read += 1
    word = bytes(seq[:n]).translate(_DIGITS).decode("ascii")
    if n <= _SEED:
        return word
    memo: dict[str, str] = {}
    pieces: list[str] = []
    done = total = 0  # runs expanded so far and the letters they gave
    while total < n:
        if total > len(word):
            word = "".join(pieces)
        # A run has one or two letters, about 3/2 on average, so this stop
        # rarely overshoots n by more than a chunk; a shortfall loops again.
        wanted = done + _CHUNK * -(-2 * (n - total) // (3 * _CHUNK))
        stop = min(len(word) - len(word) % _CHUNK, wanted)
        chunks = [word[i:i + _CHUNK] for i in range(done, stop, _CHUNK)]
        for lengths in set(chunks).difference(memo):
            memo[lengths] = "".join(map(str.__mul__, "21" * (_CHUNK // 2), map(int, lengths)))
        new = list(map(memo.__getitem__, chunks))
        total += sum(map(len, new))
        pieces += new
        done = stop
    del word, chunks  # so the join and its cut are the only copies held
    return "".join(pieces)[:n]


def run_lengths(word: str) -> list[int]:
    """Lengths of the maximal runs of equal letters, in order."""
    return [sum(1 for _ in group) for _, group in groupby(word)]
