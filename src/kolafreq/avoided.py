"""Words the Kolakoski word provably avoids, generated by run-length expansion.

If a word w never occurs in the Kolakoski word, neither does any word whose
run-length sequence contains w.  Iterating that observation by one rule,
`expand`, from the root, the run-length word 3, grows a binary tree of
avoided words; level d doubles the previous level, and levels 1..d together
form a factor-free set of 2^(d+1) - 2 words, closed under swapping letters.
`avoided_set(d)` returns them as one tuple sorted by (length, lex), the form
`as_words` gives any collection of words and every route reads; level k is
`avoided_set(k)` less `avoided_set(k - 1)`.
"""

from __future__ import annotations

import os
from typing import Iterable, Sequence


class CollisionError(RuntimeError):
    """Two distinct expansions produced the same word."""


class EmptyLanguageError(RuntimeError):
    """No word of the requested length avoids the factor set."""


class NotFactorFreeError(ValueError):
    """A word of the set occurs inside another word of the set."""

    def __init__(self, inner: str, outer: str):
        super().__init__(f"{inner!r} is a factor of {outer!r}")
        self.witness = (inner, outer)


# The letters of two runs, keyed by their lengths as digits, for a start
# letter: the first run is of that letter and the second of the other.
_RUN_PAIRS = {first: {(a, b): first * int(a) + other * int(b) for a in "123" for b in "123"}
              for first, other in (("1", "2"), ("2", "1"))}
_RUN = {"1": 1, "2": 2, "3": 3}


def expand(runs: Sequence[int] | str, start: int | str) -> str:
    """Inflate a run-length word into letters, padding unit end runs.

    Alternating blocks are laid down with runs[i] copies in block i, the
    first block using `start`, two blocks per lookup in a table of the nine
    pairs of run lengths; a lone last block uses `start` again.  A run of
    length 1 at either end would not survive a run-length reading on its
    own, so the result is padded there with one copy of the neighbouring
    letter; this forces the run-length sequence of the output to contain
    `runs` as a factor.
    """
    digits = runs if isinstance(runs, str) else [str(int(r)) for r in runs]
    if not digits:
        raise ValueError("runs must be nonempty")
    first = str(start)
    if first not in _RUN_PAIRS:
        raise ValueError("start must be 1 or 2")
    pairs = iter(digits)
    try:
        word = "".join(map(_RUN_PAIRS[first].__getitem__, zip(pairs, pairs)))
        if len(digits) % 2:
            word += first * _RUN[digits[-1]]
    except KeyError:
        raise ValueError("run entries must be in {1, 2, 3}") from None
    if digits[0] == "1":
        word = ("2" if first == "1" else "1") + word
    if digits[-1] == "1":
        word += "2" if word[-1] == "1" else "1"
    return word


# Terms per depth of the paper's results table: `report` without --terms
# computes depth d to this many (200 past the table), and so do the checks.
DEFAULT_TABLE_TERMS = {1: 200, 2: 200, 3: 200, 4: 500, 5: 800, 6: 600}


def avoided_set(d: int) -> tuple[str, ...]:
    """The words of levels 1..d of the avoided-word tree, sorted by (length,
    lex); each level is expanded from the one above, from the root 3.

    Raises CollisionError if two expansions coincide, which would falsify
    the 2^(d+1) - 2 count; no collision is known to occur.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    seen: dict[str, int] = {}
    level = ["3"]
    for k in range(1, d + 1):
        level = [expand(parent, s) for parent in level for s in "12"]
        for w in level:
            if w in seen:
                raise CollisionError(
                    f"{w!r} generated at level {k} and level {seen[w]}"
                )
            seen[w] = k
    return tuple(sorted(seen, key=lambda w: (len(w), w)))


def verify_factor_free(words: Iterable[str]) -> tuple[bool, tuple[str, str] | None]:
    """Check that no word is a contiguous factor of another.

    Returns (True, None) on success, else (False, (inner, outer)): inner is
    the first word in (length, lex) order that occurs in another word, and
    outer the first word in that order containing it.  One `aho_corasick`
    pass decides; the witness costs a scan only on failure.
    """
    witness = aho_corasick(as_words(words))[2]
    return witness is None, witness


def aho_corasick(words: Sequence[str]) -> tuple[tuple[list[int], list[int]], list[int],
                                                tuple[str, str] | None]:
    """Aho & Corasick (1975) in one breadth-first pass over the trie of the
    distinct words in (length, lex) order: two flat lists of children, one
    per letter, 0 (the root) for none, completed in place into the goto
    function, a node's entries from those of its shallower failure node.
    Returns the goto lists, the states (the nodes that end no word) in the
    pass's order, (length, lex), and `verify_factor_free`'s witness or None:
    a word lies in another iff its end has a child or is some failure node.
    """
    goto: tuple[list[int], list[int]] = ([0], [0])
    inner = none = len(words)  # the first word inside another, by index
    end = [none]  # the index of the word ending at each node
    for k, w in enumerate(words):
        node = 0
        for ch in w:
            row = goto[ch == "2"]
            if not row[node]:
                row[node] = len(end)
                goto[0].append(0)
                goto[1].append(0)
                end.append(none)
            node = row[node]
        end[node] = k
    fail = [0] * len(end)
    order = [0]  # every node, breadth first; grows while it is walked
    for node in order:
        if end[node] < inner and (goto[0][node] or goto[1][node]):
            inner = end[node]
        for row in goto:
            child = row[node]
            if not child:
                row[node] = row[fail[node]]
                continue
            fail[child] = f = row[fail[node]] if node else 0
            if end[f] < inner:
                inner = end[f]
            order.append(child)
    states = [node for node in order if end[node] == none]
    outer = (big for big in words[inner + 1:] if words[inner] in big)  # read on failure only
    return goto, states, None if inner == none else (words[inner], next(outer))


def as_words(S: Iterable[str]) -> tuple[str, ...]:
    """Normalize any iterable of words, a one-shot generator too, to the
    sorted, deduplicated tuple that `avoided_set` returns."""
    ws = tuple(sorted(set(S), key=lambda w: (len(w), w)))
    for w in ws:
        if set(w) - {"1", "2"}:
            raise ValueError(f"word {w!r} contains letters outside {{1, 2}}")
    return ws


def checked_trie(S: Iterable[str]) -> tuple[tuple[str, ...], tuple[list[int], list[int]], list[int]]:
    """The word-set rule of every enumeration route: `as_words`, no empty
    word, and no word a factor of another; the empty set passes.  Returns
    the words, and the goto lists and the states of `aho_corasick`."""
    words = as_words(S)
    if "" in words:
        raise ValueError("the empty word cannot be avoided")
    goto, states, witness = aho_corasick(words)
    if witness:
        raise NotFactorFreeError(*witness)
    return words, goto, states


def checked_words(S: Iterable[str]) -> tuple[str, ...]:
    """The words of S under the rule of `checked_trie`."""
    return checked_trie(S)[0]


def read_word_file(path: str | os.PathLike) -> tuple[str, ...]:
    """Parse a word-set file: one word per line, '#' starts a comment line.
    The file is UTF-8 text; a leading byte-order mark is skipped."""
    words = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, 1):
            s = line.strip()
            if not s or s.startswith("#"):
                continue
            if set(s) - {"1", "2"}:
                raise ValueError(f"{path}:{lineno}: invalid word {s!r}")
            words.append(s)
    return tuple(words)
