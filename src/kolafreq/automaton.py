"""Factor-avoidance automaton and its dynamic programs.

The Aho-Corasick trie of a factor-free set of avoided words, failure links
compiled in and word ends dropped, is a deterministic automaton over {1, 2}
on the proper prefixes of the words, whose paths from the empty prefix spell
exactly the words containing no avoided factor.  On top of it sit:

- an exact counting DP for the weight series slices (`weight_poly_dp`);
- a min-plus kernel for the fewest ones per length.  Its step map T is
  min-plus linear, T(v + c) = T(v) + c, so once the state vector normalised
  by its minimum repeats, v_(n0+P) = v_(n0) + c, the whole tail follows:
  m_(n+P) = m_n + c for all n >= n0 (eventual periodicity in max-plus
  algebra; Cohen, Dubois, Quadrat & Viot 1983).  One driver (`_run`)
  records digests of the normalised vectors, confirms a hit component by
  component against a replay from a sparse checkpoint, stops there and
  extends the profile exactly (`degree_profile`, which keeps the repeat as
  `DegreeProfile.certificate`).  It
  steps a vector of one of two step classes.  `_DelayLine` is a `bytes`
  of one lane per state laid out as delay lines: the 97-99% of states with
  one incoming edge hang in chains below a few merge states, and a lane
  holding v - phi (phi the ones along its chain) is a plain copy of the
  lane above it.  So a step copies a few byte slices and computes only the
  merge lanes, as an elementwise minimum on big-integer lanes; once the
  states that no cycle reaches are dead for good, only the live states are
  stepped.  `_Lists` steps lists of unbounded entries over every state,
  unpruned on purpose: it takes over a run whose lanes outgrow a byte, and
  it is the oracle the lanes and the pruning are tested against;
- the most ones per length with no second DP: swapping the letters maps
  the words avoiding S onto those avoiding swap(S), so the most ones at
  length n are n minus the fewest ones avoiding swap(S);
- brute-force enumeration for small lengths, sharing no code with the
  automaton, as an independent oracle (`enumerate_brute`).
"""

from __future__ import annotations

from collections import defaultdict
from functools import cache
from itertools import groupby, zip_longest
from operator import itemgetter, sub
from typing import Callable, ClassVar, Iterable, Sequence

from . import record
from .avoided import EmptyLanguageError, WordsLike, as_words, checked_trie, checked_words
from .bounds import DegreeProfile
from .polynomials import Series, WeightPoly, mpz, unpack_signed
from .words import swap_closed, swap_letters

DEAD = -1

BRUTE_FORCE_LIMIT = 24
_ACCEPT_CHUNK = 32
_BRUTE_FORCE_CHUNK = 1 << 14


class TooLargeError(ValueError):
    """Brute-force enumeration refused for oversized lengths."""


@record
class AvoidanceAutomaton:
    """Complete DFA over {1, 2} whose live paths avoid every tracked factor."""

    words: tuple[str, ...]
    on_one: tuple[int, ...]
    on_two: tuple[int, ...]
    start: ClassVar[int] = 0

    @property
    def n_states(self) -> int:
        return len(self.on_one)

    def accepts(self, word: str | Iterable[str]) -> bool:
        """True iff the word contains none of the tracked factors.

        A `str` is cut into chunks of `_ACCEPT_CHUNK` letters; any other
        iterable is of chunks already, such as `kolakoski_pieces`.  The walk
        goes through a memo kept for this call, one dict per state from a
        chunk to the state after it: a long word repeats few (state, chunk)
        pairs (3 028 for the 10^7 Kolakoski letters in their pieces through
        S_6), so most chunks cost two lookups.  A letter other than 1 or 2
        raises ValueError when its chunk is first walked."""
        chunks = word if not isinstance(word, str) else (
            word[i:i + _ACCEPT_CHUNK] for i in range(0, len(word), _ACCEPT_CHUNK))
        memo: defaultdict[int, dict[str, int]] = defaultdict(dict)
        state = self.start
        for chunk in chunks:
            after = memo[state]
            nxt = after.get(chunk)
            if nxt is None:  # a new pair: walk its letters until one dies
                if chunk.strip("12"):
                    raise ValueError(f"letter {chunk.strip('12')[0]!r} is neither 1 nor 2")
                nxt = state
                for ch in chunk:
                    nxt = (self.on_one if ch == "1" else self.on_two)[nxt]
                    if nxt == DEAD:
                        break
                after[chunk] = nxt
            if nxt == DEAD:
                return False
            state = nxt
        return True


def build_automaton(S: WordsLike) -> AvoidanceAutomaton:
    """The automaton of S off the Aho-Corasick pass of `checked_trie`.

    As S is factor-free, the dead nodes are exactly the word ends, and the
    pass's order, (length, lex) over the proper prefixes of the words,
    numbers the states from the root, state 0.
    """
    words, goto, states = checked_trie(S)
    state = [DEAD] * len(goto[0])
    for i, node in enumerate(states):
        state[node] = i
    on_one, on_two = (tuple(state[row[node]] for node in states) for row in goto)
    return AvoidanceAutomaton(words, on_one, on_two)


# A digest hit at step n0 is confirmed by replaying at most this many steps
# minus one from the checkpoint at or before n0.
_CHECKPOINT_EVERY = 32
_UNREACHABLE = float("inf")
# Byte lanes: entry i of a vector is one byte, and _FAR marks an unreachable
# state.
_FAR = 255


def _predecessors(auto: AvoidanceAutomaton) -> list[list[int]]:
    """preds[t] lists the edges into t: q for a 2 from q, ns + q for a 1 from q."""
    ns = auto.n_states
    preds: list[list[int]] = [[] for _ in range(ns)]
    for q in range(ns):
        if auto.on_one[q] != DEAD:
            preds[auto.on_one[q]].append(ns + q)
        if auto.on_two[q] != DEAD:
            preds[auto.on_two[q]].append(q)
    return preds


def _gatherer(idx: list[int]) -> Callable:
    """Items idx of a sequence, as a tuple even when idx has one index."""
    return itemgetter(*idx) if len(idx) > 1 else (lambda vec, i=idx[0]: (vec[i],))


def _live_states(auto: AvoidanceAutomaton, preds: list[list[int]]) -> tuple[list[int], int]:
    """The states some cycle reaches, and the longest path to any other state.

    A Kahn pass peels the states whose every predecessor is peeled; the rest
    are reached from a cycle, so words of every large length can end there.
    A peeled state is reachable at no length past the longest path L* from
    the start among the peeled states, and some peeled state is reachable at
    every length up to L*.  Returns (live states, L*), with L* = -1 when
    nothing is peeled.
    """
    indegree = [len(p) for p in preds]
    longest = [0] * auto.n_states
    peeled = [q for q in range(auto.n_states) if not indegree[q]]
    for q in peeled:  # grows while it is walked
        for t in (auto.on_one[q], auto.on_two[q]):
            if t != DEAD:
                longest[t] = max(longest[t], longest[q] + 1)
                indegree[t] -= 1
                if not indegree[t]:
                    peeled.append(t)
    live = [q for q in range(auto.n_states) if indegree[q]]
    return live, max((longest[q] for q in peeled), default=-1)


class _Overflow(Exception):
    """A lane of the delay-line kernel would outgrow its byte."""


class _Lists:
    """The min-ones step map T on lists of unbounded entries.

    Entry pos[t] of a vector is the fewest ones over the words that end in
    state t; unreachable states hold the one object `_UNREACHABLE`, which no
    arithmetic touches, so it stays a distinct marker.  States are grouped
    by the letters on their incoming edges, so T is, group by group, one
    gather per incoming edge (from v + 1 after a 1, from v after a 2) and
    one elementwise minimum, concatenated.  Every predecessor of a state in
    `states` must be in `states`: the list route is never pruned, so it is
    never relaid.
    """

    def __init__(self, auto: AvoidanceAutomaton, preds: list[list[int]],
                 states: Sequence[int]):
        ns = auto.n_states

        def letters(t: int) -> tuple[bool, ...]:
            return tuple(e >= ns for e in preds[t])

        order = sorted(states, key=letters)
        self.pos = dict(zip(order, range(len(order))))
        self._no_preds = [_UNREACHABLE] * sum(not preds[t] for t in order)  # these sort first
        self._blocks = []  # per group: (reads v + 1, gatherer) per incoming edge
        for pattern, group in groupby(order, key=letters):
            targets = list(group)
            if pattern:
                self._blocks.append([(one, _gatherer([self.pos[preds[t][j] % ns] for t in targets]))
                                     for j, one in enumerate(pattern)])

    def start(self, state: int) -> tuple:
        """The vector of length 0: the empty word ends in `state`."""
        v = [_UNREACHABLE] * len(self.pos)
        v[self.pos[state]] = 0
        return tuple(v)

    def advance(self, v: tuple) -> tuple[tuple, int | None]:
        """(T(v) - m, m) for m = min(T(v)), or (T(v), None) if no state is reachable."""
        u = [x + 1 if x is not _UNREACHABLE else x for x in v]
        new = self._no_preds.copy()
        for columns in self._blocks:
            gathered = [get(u if one else v) for one, get in columns]
            new += gathered[0] if len(gathered) == 1 else map(min, *gathered)
        m = min(new)
        if m is _UNREACHABLE:
            return tuple(new), None
        if m:
            new = [x - m if x is not _UNREACHABLE else x for x in new]
        return tuple(new), m


class _DelayLine:
    """The min-ones step map T on byte lanes laid out as delay lines.

    A state with one incoming edge (from the stepped `states`) only copies
    its predecessor's lane, plus one after a 1.  Such states hang in chains
    below the merge states: those whose in-degree is not 1, the second
    successor of a state with two in-degree-1 successors, and one state on
    each cycle of in-degree-1 states.  Lane i holds v - phi + K for the i-th
    state of `order`, where v is the fewest ones over the words that end
    there, phi counts the ones on its chain from the merge state and K is
    the largest phi; _FAR marks an unreachable state.  Then a chain lane is
    a plain copy of the lane above it.  The lanes run depth by depth, merge
    states first, with the chains ordered by falling in-degree of their
    merge state and then by falling length, so a step copies a few byte
    slices of the old vector and computes only the merge lanes: an
    elementwise minimum over their incoming edges, each a gather shifted by
    the phi of its source plus its letter, on 16-bit lanes of big integers.
    Raises `_Overflow` when K exceeds 253 and the bytes cannot hold the
    lanes, and from `advance` or `relaid` when a lane would reach _FAR.
    """

    def __init__(self, auto: AvoidanceAutomaton, preds: list[list[int]],
                 states: Sequence[int]):
        ns = auto.n_states
        edges = preds
        inside = None
        if len(states) < ns:
            edges = list(preds)
            inside = bytearray(ns)
            for q in states:
                inside[q] = 1
        below = [DEAD] * ns  # the chain successor of each state
        one = bytearray(ns)  # 1 where a chain state is entered by a 1
        merges = []
        for t in states:
            es = edges[t]
            if len(es) > 1 and inside:  # a predecessor of a one-edge state is inside
                es = edges[t] = [e for e in es if inside[e % ns]]
            if len(es) != 1 or below[es[0] % ns] != DEAD:
                merges.append(t)
            else:
                below[es[0] % ns] = t
                one[t] = es[0] >= ns
        chains = [_chain(t, below, one) for t in merges]
        if sum(len(c) for c, _f in chains) < len(states):  # cycles of in-degree-1 states
            seen = bytearray(ns)
            for c, _f in chains:
                for t in c:
                    seen[t] = 1
            for t in states:
                if not seen[t]:
                    below[edges[t][0] % ns] = DEAD
                    chains.append(_chain(t, below, one))
                    for q in chains[-1][0]:
                        seen[q] = 1
        chains.sort(key=lambda c: (-len(edges[c[0][0]]), -len(c[0])))
        K = max(f[-1] for _c, f in chains)
        if K > _FAR - 2:  # so a far lane never reads as a rise of 0 or 1
            raise _Overflow

        levels = list(zip_longest(*[c for c, _f in chains]))
        order = [t for level in levels for t in level if t is not None]
        width = len(order)
        lane = dict(zip(order, range(width)))
        floor = bytes(K - f for level in zip_longest(*[f for _c, f in chains])
                      for f in level if f is not None)
        sources = [lane[q] for above, level in zip(levels, levels[1:])
                   for q, t in zip(above, level) if t is not None]
        copies = []  # slices of the old vector that make the chain lanes
        done = 0
        for shift, run in groupby(map(sub, sources, range(len(sources)))):
            size = len(list(run))
            copies.append(slice(shift + done, shift + done + size))
            done += size
        fed = [t for t in order[:len(chains)] if edges[t]]  # the merge lanes with an edge
        slots = []  # per incoming edge j: the merge lanes with in-degree > j
        for j in range(len(edges[fed[0]]) if fed else 0):
            into = [edges[t][j] for t in fed if len(edges[t]) > j]
            rise = _widen(bytes(K - floor[lane[e % ns]] + (e >= ns) for e in into))
            slots.append((_gatherer([lane[e % ns] for e in into]), rise,
                          (1 << 16 * len(into)) - 1, _lanes(len(into), 0x8000)))

        self.order = order
        self.lane = lane
        self.width = width
        self.floor = floor
        self._floor = int.from_bytes(floor, "little")
        self._copy = _gatherer(copies) if copies else None
        self._slots = slots
        self._fed = len(fed)
        self._ones = _lanes(len(fed), 1)
        self._unfed = bytes([_FAR]) * (len(chains) - len(fed))

    def start(self, state: int) -> bytes:
        """The vector of length 0: the empty word ends in `state`."""
        v = bytearray([_FAR]) * self.width
        v[self.lane[state]] = self.floor[self.lane[state]]
        return bytes(v)

    def _merge_lanes(self, v: bytes) -> bytes:
        """The merge lanes of T(v), before normalising.

        Every 16-bit lane stays below 2^15: a reachable one below 2^9 and a
        far one in [0x40FF, 0x41FF).  So (low | top) - x borrows across no
        lane and leaves bit 15 set exactly where low >= x.
        """
        (get, rise, _low, _top), *rest = self._slots
        acc = _widen(bytes(get(v))) + rise
        for get, rise, low, top in rest:  # acc = min(acc, x) on the lanes x covers
            x = _widen(bytes(get(v))) + rise
            low &= acc
            acc ^= (low ^ x) & (((low | top) - x & top) >> 15) * 0xFFFF
        ones, far = self._ones, (acc >> 14) & self._ones
        if (acc + ones) >> 8 & ~far & ones:
            raise _Overflow
        return (acc | far * 0xFF).to_bytes(2 * self._fed, "little")[::2] + self._unfed

    def advance(self, v: bytes) -> tuple[bytes, int | None]:
        """(T(v) - m, m) for m = min(T(v)), or (T(v), None) if no lane is reachable."""
        merged = self._merge_lanes(v) if self._slots else self._unfed
        new = b"".join([merged, *self._copy(memoryview(v))]) if self._copy else merged
        x = (int.from_bytes(new, "little") - self._floor).to_bytes(self.width, "little")
        if b"\0" in x:  # the fewest ones rise by 0 or 1, or else by more
            return new, 0
        m = 1 if b"\1" in x else min((a for a, b in zip(x, new) if b != _FAR), default=None)
        return (new, m) if m is None else (new.translate(_shift_table(-m)), m)

    def relaid(self, v: bytes, other: "_DelayLine") -> bytes:
        """The vector v of `other` on these lanes."""
        new = bytearray([_FAR]) * self.width
        for i, t in enumerate(self.order):
            j = other.lane[t]
            if v[j] != _FAR:
                x = v[j] - other.floor[j] + self.floor[i]
                if x >= _FAR:
                    raise _Overflow
                new[i] = x
        return bytes(new)


def _chain(t: int, below: list[int], one: bytearray) -> tuple[list[int], list[int]]:
    """The chain of states from t down `below`, and the ones counted on it from t."""
    chain, phi, f = [t], [0], 0
    t = below[t]
    while t != DEAD:
        f += one[t]
        chain.append(t)
        phi.append(f)
        t = below[t]
    return chain, phi


def _lanes(k: int, value: int) -> int:
    """k 16-bit lanes of one integer, each holding value."""
    return int.from_bytes(value.to_bytes(2, "little") * k, "little")


def _widen(lanes: bytes) -> int:
    """Byte lanes as 16-bit lanes of one integer, _FAR raised above every reachable sum."""
    wide = bytearray(2 * len(lanes))
    wide[::2] = lanes
    wide[1::2] = lanes.translate(_far_high())
    return int.from_bytes(wide, "little")


@cache
def _far_high() -> bytes:
    """`bytes.translate` table giving the high byte of a widened lane."""
    return bytes(0x40 if x == _FAR else 0 for x in range(256))


@cache
def _shift_table(c: int) -> bytes:
    """`bytes.translate` table adding c to every lane except _FAR."""
    return bytes(x if x == _FAR else max(x + c, 0) for x in range(256))


def _min_ones(auto: AvoidanceAutomaton, N: int) -> tuple[list[int], tuple[int, int, int] | None]:
    """Fewest ones per length 0..N, and the certificate (onset, period, slope).

    `_run` on `_DelayLine`, past L* only over the live states.  A lane holds
    at most n + K at step n, K below the number of states; when a lane would
    outgrow its byte, the whole run restarts on `_min_ones_lists`.
    """
    preds = _predecessors(auto)
    live, last_transient = _live_states(auto, preds)
    try:
        return _run(_DelayLine, auto, preds, N, live, last_transient)
    except _Overflow:
        return _min_ones_lists(auto, N)


def _min_ones_lists(auto: AvoidanceAutomaton,
                    N: int) -> tuple[list[int], tuple[int, int, int] | None]:
    """`_min_ones` on `_Lists`, stepping every state at every step.

    No state is peeled and no lane is bounded, so this is the route when a
    lane of the delay-line kernel outgrows its byte, and the oracle the
    lane layout and the Kahn pass of `_live_states` are tested against.
    """
    return _run(_Lists, auto, _predecessors(auto), N, [], -1)


def _run(kind: type, auto: AvoidanceAutomaton, preds: list[list[int]], N: int,
         live: list[int], last_transient: int) -> tuple[list[int], tuple[int, int, int] | None]:
    """The min-ones kernel on the step class `kind`: `_DelayLine` or `_Lists`.

    The min-plus step T satisfies T(v + c) = T(v) + c, so once the vector
    normalised by its minimum repeats, v_(n0+P) = v_(n0) + c, every later
    term follows: m_(n+P) = m_n + c for all n >= n0.  A step object built
    over some states gives the vector of length 0 (`start`) and the next
    normalised vector with its minimum (`advance`).  A vector is hashable,
    and two are equal exactly when the normalised vectors are.  Vectors are
    recorded by digest only; a digest hit is trusted after all entries of
    v_(n0), replayed from the nearest checkpoint, equal the current vector.
    The certificate is None when no repeat occurs within N steps.

    Up to step L* = `last_transient` every state is stepped; from step
    L* + 1 on, only the `live` states are, on a step object built anew, and
    the vector is carried over by `relaid`.  That leaves the certificate as
    it was: at every step up to L* some peeled state is reachable and past
    it none is, so no repeat pairs a step up to L* with a later one, and
    past L* the peeled states are unreachable.  An empty `live` steps every
    state throughout.
    """
    step = kind(auto, preds, range(auto.n_states))
    v = step.start(auto.start)
    min_ones = [0]
    base = 0  # the step of checkpoints[0]
    seen = {hash(v): [0]}
    checkpoints = [v]

    def replay(n0: int):
        k, r = divmod(n0 - base, _CHECKPOINT_EVERY)
        x = checkpoints[k]
        for _ in range(r):
            x = step.advance(x)[0]
        return x

    for n in range(1, N + 1):
        v, m = step.advance(v)
        if m is None:
            raise EmptyLanguageError(f"no word of length {n} avoids the set")
        min_ones.append(min_ones[-1] + m)
        if n == last_transient + 1 and live:
            live_step = kind(auto, preds, live)
            v = live_step.relaid(v, step)
            step = live_step
            base, seen, checkpoints = n, {}, []
        digest = hash(v)
        for n0 in seen.get(digest, ()):
            if replay(n0) == v:
                period, slope = n - n0, min_ones[n] - min_ones[n0]
                for k in range(n + 1, N + 1):
                    min_ones.append(min_ones[k - period] + slope)
                return min_ones, (n0, period, slope)
        seen.setdefault(digest, []).append(n)
        if (n - base) % _CHECKPOINT_EVERY == 0:
            checkpoints.append(v)
    return min_ones, None


def degree_profile(S: WordsLike, N: int) -> DegreeProfile:
    """Fewest and most ones per length 0..N over the words avoiding S.

    The fewest come from the min-plus kernel on the automaton of S, which
    stops at the first repeat of its normalised vector and extends the
    profile to N exactly; that repeat is kept as the profile's certificate.
    The most need no second DP: swapping letters maps the words avoiding S
    onto those avoiding swap(S), so max_ones[n] = n - (fewest ones avoiding
    swap(S) at length n), and a swap-closed S (every S_d) reuses its own run.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    words = as_words(S)
    min_ones, certificate = _min_ones(build_automaton(words), N)
    if swap_closed(words):
        fewest_twos = min_ones
    else:
        fewest_twos = _min_ones(build_automaton(map(swap_letters, words)), N)[0]
    max_ones = tuple(n - twos for n, twos in enumerate(fewest_twos))
    return DegreeProfile(words, N, tuple(min_ones), max_ones, certificate)


def weight_poly_dp(S: WordsLike, N: int) -> Series:
    """Exact slices p_0..p_N of the weight enumerator via one counting DP pass.

    One packed big integer per live state (a digit per ones-count) keeps the
    whole update at two shift-adds per state per step; the sum over states
    after step n is slice n.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    auto = build_automaton(S)
    width = (N + 9) // 8 * 8
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
    """Ground-truth oracle: grow the survivors one letter at a time.

    A word avoids S iff none of its prefixes ends with a word of S, so the
    survivors of length k + 1 are the one-letter extensions of the survivors
    of length k that do not end with a word of S.  Levels longer than
    `_BRUTE_FORCE_CHUNK` words are split and grown depth first, which keeps
    memory at O(n * chunk) strings however many words survive.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n > BRUTE_FORCE_LIMIT:
        raise TooLargeError(f"brute force capped at n <= {BRUTE_FORCE_LIMIT}")
    words = checked_words(S)
    counts = [0] * (n + 1)
    pending = [[""]]
    while pending:
        level = pending.pop()
        while level and len(level[0]) < n:
            if len(level) > _BRUTE_FORCE_CHUNK:
                pending.append(level[_BRUTE_FORCE_CHUNK:])
                level = level[:_BRUTE_FORCE_CHUNK]
            level = [x for w in level for x in (w + "1", w + "2") if not x.endswith(words)]
        for w in level:
            counts[w.count("1")] += 1
    return WeightPoly({(a, n - a): c for a, c in enumerate(counts) if c})
