"""Factor-avoidance automaton and its dynamic programs.

An Aho-Corasick trie of the avoided words, with failure links compiled into
a complete deterministic automaton over {1, 2}, recognizes exactly the words
containing no avoided factor: live paths from the start correspond to
surviving words.  On top of it sit three independent oracles for the weight
series: an exact counting DP, a min/max-ones DP (fast enough for hundreds of
thousands of steps), and plain brute-force enumeration for small lengths.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .avoided import WordsLike, as_words, ensure_factor_free
from .polynomials import Series, WeightPoly, mpz, unpack_signed
from .words import contains_any_factor

DEAD = -1

BRUTE_FORCE_LIMIT = 24


class TooLargeError(ValueError):
    """Brute-force enumeration refused for oversized lengths."""


class EmptyLanguageError(RuntimeError):
    """No word of the requested length avoids the factor set."""


@dataclass(frozen=True)
class AvoidanceAutomaton:
    """Complete DFA over {1, 2} whose live paths avoid every tracked factor."""

    words: tuple[str, ...]
    on_one: tuple[int, ...]
    on_two: tuple[int, ...]
    start: int = 0

    @property
    def n_states(self) -> int:
        return len(self.on_one)

    def accepts(self, word: str) -> bool:
        """True iff the word contains none of the tracked factors."""
        state = self.start
        for ch in word:
            state = (self.on_one if ch == "1" else self.on_two)[state]
            if state == DEAD:
                return False
        return True


def build_automaton(S: WordsLike) -> AvoidanceAutomaton:
    """Aho-Corasick construction, dead states pruned, live states BFS-numbered."""
    words = as_words(S)
    if not words:
        raise ValueError("need at least one avoided word")
    if "" in words:
        raise ValueError("the empty word cannot be avoided")
    ensure_factor_free(words)

    children: list[dict[str, int]] = [{}]
    terminal = [False]
    for w in words:
        node = 0
        for ch in w:
            nxt = children[node].get(ch)
            if nxt is None:
                children.append({})
                terminal.append(False)
                nxt = len(children) - 1
                children[node][ch] = nxt
            node = nxt
        terminal[node] = True

    size = len(children)
    fail = [0] * size
    goto = [dict() for _ in range(size)]
    dead = terminal[:]
    order = []
    for ch in "12":
        child = children[0].get(ch)
        if child is None:
            goto[0][ch] = 0
        else:
            goto[0][ch] = child
            fail[child] = 0
            order.append(child)
    head = 0
    while head < len(order):
        node = order[head]
        head += 1
        if dead[fail[node]]:
            dead[node] = True
        for ch in "12":
            child = children[node].get(ch)
            if child is None:
                goto[node][ch] = goto[fail[node]][ch]
            else:
                fail[child] = goto[fail[node]][ch]
                goto[node][ch] = child
                if dead[node]:
                    dead[child] = True
                order.append(child)

    if dead[0]:
        raise ValueError("start state is dead; the language is empty")
    renumber = {0: 0}
    live_order = [0]
    head = 0
    while head < len(live_order):
        node = live_order[head]
        head += 1
        for ch in "12":
            nxt = goto[node][ch]
            if not dead[nxt] and nxt not in renumber:
                renumber[nxt] = len(live_order)
                live_order.append(nxt)
    on_one = []
    on_two = []
    for node in live_order:
        t1 = goto[node]["1"]
        t2 = goto[node]["2"]
        on_one.append(DEAD if dead[t1] else renumber[t1])
        on_two.append(DEAD if dead[t2] else renumber[t2])
    return AvoidanceAutomaton(words, tuple(on_one), tuple(on_two))


@dataclass(frozen=True)
class DegreeProfile:
    """Per-length extremes of the ones-count over words avoiding a factor set."""

    words: tuple[str, ...]
    N: int
    min_ones: tuple[int, ...]
    max_ones: tuple[int, ...]

    @classmethod
    def from_series(cls, S: WordsLike, series: Series) -> "DegreeProfile":
        """Read the extremes off the nonzero coefficients of each series slice."""
        mins, maxs = [], []
        for n in range(series.order + 1):
            lo, hi = series.min_ones(n), series.max_ones(n)
            if lo is None or hi is None:
                raise EmptyLanguageError(f"no word of length {n} avoids the set")
            mins.append(lo)
            maxs.append(hi)
        return cls(as_words(S), series.order, tuple(mins), tuple(maxs))

    def check_invariants(self) -> None:
        """Raise AssertionError unless the extremes form a valid profile."""
        if self.min_ones[0] != 0 or self.max_ones[0] != 0:
            raise AssertionError("length-0 extremes must be 0")
        for n in range(self.N + 1):
            if not 0 <= self.min_ones[n] <= self.max_ones[n] <= n:
                raise AssertionError(f"extremes out of range at n={n}")
        for n in range(self.N):
            if self.min_ones[n + 1] - self.min_ones[n] not in (0, 1):
                raise AssertionError(f"min-ones jump at n={n}")
            if self.max_ones[n + 1] - self.max_ones[n] not in (0, 1):
                raise AssertionError(f"max-ones jump at n={n}")


def degree_profile(S: WordsLike, N: int) -> DegreeProfile:
    """Min-plus / max-plus DP over the automaton: extremal ones-counts per length."""
    if N < 0:
        raise ValueError("N must be >= 0")
    words = as_words(S)
    auto = build_automaton(words)
    ns = auto.n_states
    on_one, on_two = auto.on_one, auto.on_two
    inf = N + 2
    cur_min = [inf] * ns
    cur_max = [-inf] * ns
    cur_min[auto.start] = 0
    cur_max[auto.start] = 0
    min_ones = [0]
    max_ones = [0]
    for n in range(1, N + 1):
        new_min = [inf] * ns
        new_max = [-inf] * ns
        for q in range(ns):
            lo = cur_min[q]
            if lo == inf:
                continue
            hi = cur_max[q]
            t = on_one[q]
            if t != DEAD:
                if lo + 1 < new_min[t]:
                    new_min[t] = lo + 1
                if hi + 1 > new_max[t]:
                    new_max[t] = hi + 1
            t = on_two[q]
            if t != DEAD:
                if lo < new_min[t]:
                    new_min[t] = lo
                if hi > new_max[t]:
                    new_max[t] = hi
        best = min(new_min)
        if best == inf:
            raise EmptyLanguageError(f"no word of length {n} avoids the set")
        min_ones.append(best)
        max_ones.append(max(new_max))
        cur_min, cur_max = new_min, new_max
    return DegreeProfile(words, N, tuple(min_ones), tuple(max_ones))


def weight_poly_dp(S: WordsLike, N: int) -> Series:
    """Exact slices p_0..p_N of the weight enumerator via one counting DP pass.

    One packed big integer per live state (a digit per ones-count) keeps the
    whole update at two shift-adds per state per step; the sum over states
    after step n is slice n.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    auto = build_automaton(S)
    width = N + 2
    zero = mpz(0)
    vec = [zero] * auto.n_states
    vec[auto.start] = mpz(1)
    on_one, on_two = auto.on_one, auto.on_two
    slices = [(1,)]
    for n in range(1, N + 1):
        new = [zero] * auto.n_states
        for q, x in enumerate(vec):
            if not x:
                continue
            t = on_one[q]
            if t != DEAD:
                new[t] = new[t] + (x << width)
            t = on_two[q]
            if t != DEAD:
                new[t] = new[t] + x
        vec = new
        slices.append(tuple(unpack_signed(sum(vec, zero), n + 1, width)))
    return Series(tuple(slices))


def enumerate_brute(S: WordsLike, n: int) -> WeightPoly:
    """Ground-truth oracle: scan all 2^n words and accumulate survivor weights."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}")
    words = as_words(S)
    counts = [0] * (n + 1)
    for letters in product("12", repeat=n):
        w = "".join(letters)
        if not contains_any_factor(w, words):
            counts[w.count("1")] += 1
    return WeightPoly({(a, n - a): c for a, c in enumerate(counts) if c})
