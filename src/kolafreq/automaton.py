"""Factor-avoidance automaton and its dynamic programs.

The Aho-Corasick trie of a factor-free set of avoided words, failure links
compiled in and word ends dropped, is a deterministic automaton over {1, 2}
on the proper prefixes of the words, whose paths from the empty prefix spell
exactly the words containing no avoided factor.  On top of it sit:

- a walk over the chunks of a word, in C but for new (state, chunk) pairs (`accepts`);
- an exact counting DP for the weight series slices (`weight_poly_dp`);
- a min-plus kernel for the fewest ones per length.  Its step map T is
  min-plus linear, T(v + c) = T(v) + c, so once the state vector normalised
  by its minimum repeats, v_(n0+P) = v_(n0) + c, the whole tail follows:
  m_(n+P) = m_n + c for all n >= n0 (eventual periodicity in max-plus
  algebra; Cohen, Dubois, Quadrat & Viot 1983).  One driver (`_run`)
  records digests of the normalised vectors, confirms a hit component by
  component against a replay from a sparse checkpoint, stops there and
  extends the profile exactly (`degree_profile`, which keeps the repeat as
  `DegreeProfile.certificate`).  `_DelayLine` takes one `CoreGraph` and
  nothing else: the automaton's chain cover from one walk of its
  predecessors (the 97-99% of states with one incoming edge hang in chains
  below a few heads, phi the ones along each chain), the edges into the
  heads and the live states from one Kahn pass.  It is a `bytes` of one lane
  per state laid out as delay lines: a lane holding v - phi is a plain copy
  of the lane above it, so a step copies a few byte slices and computes
  only the head lanes, as an elementwise minimum on big-integer lanes.  The
  live chains come first in its one layout, so once the states that no
  cycle reaches are dead for good, a vector is cut to that prefix and only
  it is stepped, with nothing laid out anew.  `_Lists` is T as defined on
  the automaton, a minimum per state over the edges its transitions give,
  on tuples (+inf where no word ends), and steps every state, unpruned on
  purpose: it takes over a run whose lanes outgrow a byte, from the
  automaton built again, and is the oracle of the lanes, the chain cover
  and the pruning;
- the most ones per length, n minus the fewest ones avoiding swap(S), with
  no second DP (`degree_profile`);
- one brute-force growth pass for the slices up to any length, an
  independent oracle sharing no code with the automaton (`enumerate_brute`).
"""

from __future__ import annotations

from array import array
from functools import cache, reduce
from itertools import islice, zip_longest
from operator import add, getitem, itemgetter
from typing import TYPE_CHECKING, Callable, ClassVar, Iterable

from . import record
from .avoided import EmptyLanguageError, as_words, checked_trie, checked_words
from .bounds import DegreeProfile
from .words import swap_closed, swap_letters

if TYPE_CHECKING:
    from .polynomials import Series

DEAD = -1

_ACCEPT_CHUNK = 32
_BRUTE_FORCE_CHUNK = 1 << 14


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
        iterable is of chunks already, such as `kolakoski_pieces`.  One `reduce`
        walks them in C through a `_Memo` per state, kept for this call: a long
        word repeats few (state, chunk) pairs (3 028 for the 10^7 Kolakoski
        letters in their pieces through S_6), and only a new one is walked
        letter by letter.  No chunk is pulled past the one that dies; a letter
        other than 1 or 2 raises ValueError."""
        chunks = word if not isinstance(word, str) else (
            word[i:i + _ACCEPT_CHUNK] for i in range(0, len(word), _ACCEPT_CHUNK))
        memos: dict[int, _Memo] = {}
        try:
            reduce(getitem, chunks, _Memo(self, self.start, memos))
        except _Dead:
            return False
        finally:  # the memos hold cycles: free them now, not at a collection
            while memos:
                memos.popitem()[1].clear()
        return True


class _Dead(Exception):
    """A chunk of an `accepts` walk reached DEAD."""


class _Memo(dict):
    """A state's memo in an `accepts` walk: a chunk -> the `_Memo` of the state after it."""

    def __init__(self, auto: AvoidanceAutomaton, state: int, memos: dict):
        self.auto, self.state, self.memos = auto, state, memos
        memos[state] = self

    def __missing__(self, chunk: str) -> _Memo:
        if chunk.strip("12"):
            raise ValueError(f"letter {chunk.strip('12')[0]!r} is neither 1 nor 2")
        q, auto, memos = self.state, self.auto, self.memos
        for ch in chunk:
            q = (auto.on_one if ch == "1" else auto.on_two)[q]
            if q == DEAD:
                raise _Dead
        return self.setdefault(chunk, memos[q] if q in memos else _Memo(auto, q, memos))


def build_automaton(S: Iterable[str]) -> AvoidanceAutomaton:
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


# A digest hit at step n0 is confirmed by replaying fewer steps than lie
# between two checkpoints, from the checkpoint at or before n0.  A run of N
# steps spaces them max(_CHECKPOINT_EVERY, ceil(N / _CHECKPOINTS)) apart,
# so it keeps at most _CHECKPOINTS + 1 vectors.
_CHECKPOINT_EVERY = 32
_CHECKPOINTS = 64
_UNREACHABLE = float("inf")
# Byte lanes: entry i of a vector is one byte, and _FAR marks an unreachable
# state.
_FAR = 255
# `bytes.translate` table giving the high byte of a lane that `_widen` widens.
_FAR_HIGH = bytes(0x40 if x == _FAR else 0 for x in range(256))


class CoreGraph:
    """The automaton's chain cover and one Kahn pass, off its edges read once.

    An edge into a state is q for a 2 from q and n_states + q for a 1 from
    q.  Every state lies in exactly one list of `chains`, keyed by its head,
    whose states below its head each have one edge, from the state above
    it.  A head is a state of in-degree 0 or of 2 or more, a one-edge state
    that its predecessor's chain does not go on into (it goes on into one
    successor at most), or the least state of a cycle of one-edge states,
    which is cut there.  `heads` maps each head to the edges into it,
    ascending; the 97-99% of states below a head keep no list, and no
    predecessor outlives the constructor.  `phi[t]` counts the ones on the
    edges from t's head down to t.  The Kahn pass peels the states whose
    every predecessor is peeled; the rest, `live`, are reached from a cycle.
    A peeled state is reachable at no length past the longest path L* among
    them (`last_transient`, -1 when none is), and some peeled state at every
    length up to L*.  The graph keeps no reference to the automaton.

    It takes the breadth-first numbering of `build_automaton`, unchecked:
    every state but the start is entered from its parent prefix, numbered
    before it.  So the chains are walked from their heads in state order,
    and a cycle of one-edge states passes through the start.
    """

    def __init__(self, auto: AvoidanceAutomaton):
        ns = self.n_states = auto.n_states
        self.start = auto.start
        pred, below = [DEAD] * ns, [DEAD] * ns  # the first edge into t; the one-edge state below q
        merges: dict[int, list[int]] = {}  # the edges into each state of in-degree 2 or more
        for letter, row in ((0, auto.on_two), (ns, auto.on_one)):
            for q, t in enumerate(row):
                if t == DEAD:
                    continue
                first = pred[t]
                if first == DEAD:
                    pred[t] = letter + q
                    if below[q] == DEAD:
                        below[q] = t
                elif t in merges:
                    merges[t].append(letter + q)
                else:  # t had looked like a chain state
                    merges[t] = [first, letter + q]
                    if below[first % ns] == t:
                        below[first % ns] = DEAD
        self.live, self.last_transient = _peel(auto, pred, merges)
        phi = [DEAD] * ns  # DEAD until the state's chain is walked
        chains: dict[int, array] = {}  # arrays, so no state's int object outlives the automaton
        for h in range(ns):  # a head before every state below it, and a cycle at its least state
            if phi[h] != DEAD:
                continue
            chain, ones, q = [h], 0, below[h]
            phi[h] = 0
            while q != DEAD and q != h:
                ones += pred[q] >= ns
                phi[q] = ones
                chain.append(q)
                q = below[q]
            chains[h] = array("i", chain)
        self.chains, self.phi = chains, phi
        self.heads = {h: merges.get(h) or ([] if pred[h] == DEAD else [pred[h]]) for h in chains}


def _peel(auto: AvoidanceAutomaton, pred: list[int], merges: dict[int, list[int]]) -> tuple[bytes, int]:
    """The Kahn pass of `CoreGraph`, `live` and L*; its lists are freed before the chain walk.
    It starts from the start alone: every other state has an edge in, from its parent prefix."""
    ns = auto.n_states
    peeled = [auto.start] if pred[auto.start] == DEAD else []  # then each state once its predecessors are in
    live, count, longest = bytearray(b"\1") * ns, [0] * ns, [0] * ns
    for q in peeled:  # grows while it is walked
        live[q] = 0
        for t in (auto.on_one[q], auto.on_two[q]):
            if t != DEAD:
                if longest[t] <= longest[q]:
                    longest[t] = longest[q] + 1
                count[t] += 1
                if t not in merges or count[t] == len(merges[t]):
                    peeled.append(t)
    return bytes(live), max(_gatherer(peeled)(longest), default=-1)


def _gatherer(idx: list) -> Callable:
    """Items idx of a sequence, as a tuple even when idx has one index or none."""
    return itemgetter(*idx) if len(idx) > 1 else lambda vec: tuple(map(vec.__getitem__, idx))


class _Overflow(Exception):
    """A lane of the delay-line kernel would outgrow its byte."""


class _Lists:
    """The min-ones step map T on tuples of unbounded entries, over every state.

    Entry t of a vector is the fewest ones over the words that end in state
    t, and +inf where no word does; inf + 1 is inf, so no entry needs a
    branch.  T(v)[t] is the minimum over the edges into t of the source's
    entry, plus one after a 1: with an edge numbered q for a 2 from q and
    n_states + q for a 1 from q, that is entry e of v followed by v + 1.
    It reads the edges off the automaton's transitions, sharing none of the
    chain cover it checks, and prunes no state: its L* is -1.
    """

    last_transient = -1

    def __init__(self, auto: AvoidanceAutomaton):
        self.n_states, self.start_state = auto.n_states, auto.start
        self.edges = [[] for _ in range(auto.n_states)]  # ascending
        for e, t in enumerate(auto.on_two + auto.on_one):
            if t != DEAD:
                self.edges[t].append(e)

    def start(self) -> tuple:
        """The vector of length 0: the empty word ends in the start state."""
        v = [_UNREACHABLE] * self.n_states
        v[self.start_state] = 0
        return tuple(v)

    def advance(self, v: tuple) -> tuple[tuple, int | None]:
        """(T(v) - m, m) for m = min(T(v)), or (T(v), None) if no state is reachable."""
        get = (v + tuple([x + 1 for x in v])).__getitem__
        new = [min(map(get, es)) if es else _UNREACHABLE for es in self.edges]
        m = min(new)
        if m == _UNREACHABLE:
            return tuple(new), None
        return tuple([x - m for x in new]) if m else tuple(new), m


class _DelayLine:
    """The min-ones step map T on byte lanes laid out as delay lines.

    It lays out the chains of the `CoreGraph` and walks none.  Lane i holds
    v - phi + K, where v is the fewest ones over the words that end in its
    state, phi the graph's count of the ones on its chain and K the largest
    phi; _FAR marks an unreachable state.  A chain state's v is that of the
    state above it, plus one after a 1, so its lane is a plain copy of the
    lane above it.  A chain state's only predecessor is the state above it,
    so every chain is wholly live or wholly peeled, and the live chains make
    the first block of lanes.  In each block the lanes run depth by depth,
    heads first, with the chains of fed heads (those with an incoming edge)
    first and then by falling length.  A step copies each chain lane from
    its source, the lane above it, as byte slices of the old vector, one per
    run of consecutive sources, and computes only the head ("merge") lanes:
    an elementwise minimum over their incoming edges, each slot a gather of
    every fed lane shifted by its rise, the phi of its source plus its
    letter (a head's own phi is 0), on 16-bit lanes of big integers.

    The one layout serves the whole run: up to step L* every lane is
    stepped, then `pruned` cuts a vector to the live block and `advance`
    steps that block alone, its merge lanes over their edges from live
    states only.  Raises `_Overflow` when K exceeds 253 and the bytes cannot
    hold the lanes or a rise, and from `advance` when a lane would reach _FAR.
    """

    def __init__(self, graph: CoreGraph):
        ns, live, chains, phi, edges = graph.n_states, graph.live, graph.chains, graph.phi, graph.heads
        K = max(phi)
        if K > _FAR - 2:  # so a far lane never reads as a rise of 0 or 1
            raise _Overflow
        heads = sorted(chains, key=lambda h: (not live[h], not edges[h], -len(chains[h])))
        split = sum(map(live.__getitem__, heads))  # the live merge states come first
        order = []  # the state of each lane
        blocks = []  # per block: its merge states, and the copies that make its chain lanes
        for merge_states in (heads[:split], heads[split:]):
            above = list(range(len(order), len(order) + len(merge_states)))  # each chain's deepest lane so far
            order += merge_states
            copies: list[list[int]] = []  # [start, stop) of each run of the old vector
            for level in zip_longest(*(islice(chains[h], 1, None) for h in merge_states), fillvalue=DEAD):
                for i, t in enumerate(level):  # depth by depth, each lane a copy of the one above it
                    if t == DEAD:
                        continue
                    if copies and copies[-1][1] == above[i]:
                        copies[-1][1] += 1
                    else:
                        copies.append([above[i], above[i] + 1])
                    above[i] = len(order)
                    order.append(t)
            blocks.append((merge_states, _gatherer([slice(*c) for c in copies]), len(order)))
        self.width, self.last_transient = len(order), graph.last_transient
        self.floor = floor = bytes(_gatherer(order)(phi)).translate(bytes(K - x & 255 for x in range(256)))
        sources = {e % ns for es in edges.values() for e in es} | {graph.start}
        lane = {t: i for i, t in enumerate(order) if t in sources}
        self.start_lane = lane[graph.start]

        def step(merge_states: list[int], copy: Callable, live_only: bool) -> tuple:
            # A block's share of a step.  Slot j gathers edge j of every fed
            # merge lane, and edge 0 again of a lane with no edge j.
            fed = [es for h in merge_states if (es := [e for e in edges[h] if live[e % ns] or not live_only])]
            slots = []
            for j in range(max(map(len, fed), default=0)):
                into = [es[j] if len(es) > j else es[0] for es in fed]
                rise = _widen(bytes(phi[e % ns] + (e >= ns) for e in into))
                slots.append((_gatherer([lane[e % ns] for e in into]), rise))
            return (slots, len(fed), int.from_bytes(b"\1\0" * len(fed), "little"),
                    bytes([_FAR]) * (len(merge_states) - len(fed)), copy)

        (live_heads, live_copy, self._live), (peeled_heads, peeled_copy, _) = blocks
        self._plans = {  # vector length -> (width, floor, blocks)
            self.width: (self.width, int.from_bytes(floor, "little"),
                         [step(live_heads, live_copy, False), step(peeled_heads, peeled_copy, False)]),
            self._live: (self._live, int.from_bytes(floor[:self._live], "little"),
                         [step(live_heads, live_copy, True)]),
        }

    def start(self) -> bytes:
        """The vector of length 0: the empty word ends in the start state."""
        v = bytearray([_FAR]) * self.width
        v[self.start_lane] = self.floor[self.start_lane]
        return bytes(v)

    def pruned(self, v: bytes) -> bytes:
        """The live lanes of v, once no peeled state is reachable."""
        return v[:self._live]

    def advance(self, v: bytes) -> tuple[bytes, int | None]:
        """(T(v) - m, m) for m = min(T(v)), or (T(v), None) if no lane is reachable."""
        width, floor, blocks = self._plans[len(v)]
        mv = memoryview(v)
        pieces = []
        for slots, fed, ones, unfed, copy in blocks:
            if slots:
                pieces.append(_merge_lanes(v, slots, fed, ones))
            pieces.append(unfed)
            pieces += copy(mv)
        new = b"".join(pieces)
        x = (int.from_bytes(new, "little") - floor).to_bytes(width, "little")
        if b"\0" in x:  # the fewest ones rise by 0 or 1, or else by more
            return new, 0
        m = 1 if b"\1" in x else min((a for a, b in zip(x, new) if b != _FAR), default=None)
        return (new, m) if m is None else (new.translate(_shift_table(-m)), m)


def _merge_lanes(v: bytes, slots: list, fed: int, ones: int) -> bytes:
    """The fed merge lanes of T(v), before normalising.

    Every slot gathers all fed lanes.  Every 16-bit lane stays below 2^15:
    a reachable one below 2^9 and a far one in [0x40FF, 0x41FF).  So
    (acc | top) - x borrows across no lane and leaves bit 15 set exactly
    where acc >= x.
    """
    top = ones << 15
    (get, rise), *rest = slots
    acc = _widen(bytes(get(v))) + rise
    for get, rise in rest:  # acc = min(acc, x), lane by lane
        x = _widen(bytes(get(v))) + rise
        acc ^= (acc ^ x) & (((acc | top) - x & top) >> 15) * 0xFFFF
    far = (acc >> 14) & ones
    if (acc + ones) >> 8 & ~far & ones:
        raise _Overflow
    return (acc | far * 0xFF).to_bytes(2 * fed, "little")[::2]


def _widen(lanes: bytes) -> int:
    """Byte lanes as 16-bit lanes of one integer, _FAR raised above every reachable sum."""
    wide = bytearray(2 * len(lanes))
    wide[::2] = lanes
    wide[1::2] = lanes.translate(_FAR_HIGH)
    return int.from_bytes(wide, "little")


@cache
def _shift_table(c: int) -> bytes:
    """`bytes.translate` table adding c to every lane except _FAR."""
    return bytes(x if x == _FAR else max(x + c, 0) for x in range(256))


def _min_ones(words: tuple[str, ...], N: int) -> tuple[list[int], tuple[int, int, int] | None]:
    """Fewest ones per length 0..N, and the certificate (onset, period, slope).

    `_run` on `_DelayLine` of the words' automaton's `CoreGraph`, past L*
    only over the live states.  A lane holds at most n + K at step n, K
    below the number of states; when a lane would outgrow its byte, the
    whole run restarts on `_Lists` of the automaton built again, after the
    failed lanes and graph are freed.
    """
    try:
        return _run(_DelayLine(CoreGraph(build_automaton(words))), N)
    except _Overflow:
        pass
    return _run(_Lists(build_automaton(words)), N)


def _run(step, N: int) -> tuple[list[int], tuple[int, int, int] | None]:
    """The min-ones kernel on a step object: `_DelayLine` or `_Lists`.

    As T(v + c) = T(v) + c, a repeat of the normalised vector, v_(n0+P) =
    v_(n0) + c, gives m_(n+P) = m_n + c for all n >= n0.  The step object gives
    the vector of length 0 (`start`) and the next normalised vector with its
    minimum (`advance`).  A vector is hashable, and two are equal exactly
    when the normalised vectors are.  Vectors are recorded by digest only; a
    digest hit is trusted after all entries of v_(n0), replayed from the
    checkpoint at or before n0, equal the current vector; checkpoints lie a
    spacing set from N apart.  The certificate is None when no repeat occurs
    within N steps.

    At step L* + 1, L* the step object's `last_transient`, the vector is
    cut to the live states (`pruned`) and the digests and checkpoints start
    afresh.  That leaves the certificate as it was: at every step up to L*
    some peeled state is reachable and past it none is, so no repeat pairs
    a step up to L* with a later one, and past L* the peeled states are
    unreachable.
    """
    v = step.start()
    min_ones = [0]
    base, every = 0, max(_CHECKPOINT_EVERY, -(-N // _CHECKPOINTS))  # the step of checkpoints[0]; their spacing
    seen = {hash(v): [0]}
    checkpoints = [v]

    def replay(n0: int):
        k, r = divmod(n0 - base, every)
        x = checkpoints[k]
        for _ in range(r):
            x = step.advance(x)[0]
        return x

    for n in range(1, N + 1):
        v, m = step.advance(v)
        if m is None:
            raise EmptyLanguageError(f"no word of length {n} avoids the set")
        min_ones.append(min_ones[-1] + m)
        if n == step.last_transient + 1:
            v = step.pruned(v)
            base, seen, checkpoints = n, {}, []
        digest = hash(v)
        for n0 in seen.get(digest, ()):
            if replay(n0) == v:
                period, slope = n - n0, min_ones[n] - min_ones[n0]
                for k in range(n + 1, N + 1):
                    min_ones.append(min_ones[k - period] + slope)
                return min_ones, (n0, period, slope)
        seen.setdefault(digest, []).append(n)
        if (n - base) % every == 0:
            checkpoints.append(v)
    return min_ones, None


def degree_profile(S: Iterable[str], N: int) -> DegreeProfile:
    """Fewest and most ones per length 0..N over the words avoiding S.

    The fewest come from the min-plus kernel on the `CoreGraph` of S,
    which stops at the first repeat of its normalised vector and extends
    the profile to N exactly, keeping that repeat as its certificate.
    The most need no second DP: swapping letters maps the words avoiding S
    onto those avoiding swap(S), so max_ones[n] = n - (fewest ones avoiding
    swap(S) at length n), and a swap-closed S (every S_d) reuses its own run.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    words = as_words(S)
    min_ones, certificate = _min_ones(words, N)
    if swap_closed(words):
        fewest_twos = min_ones
    else:
        fewest_twos = _min_ones(tuple(map(swap_letters, words)), N)[0]
    max_ones = tuple(n - twos for n, twos in enumerate(fewest_twos))
    return DegreeProfile(words, N, tuple(min_ones), max_ones, certificate)


def weight_poly_dp(S: Iterable[str], N: int) -> Series:
    """Exact slices p_0..p_N of the weight enumerator via one counting DP pass.

    One packed big integer per live state (a digit per ones-count) keeps the
    whole update at two shift-adds per state per step; the sum over states
    after step n is slice n.
    """
    from .polynomials import Series, mpz, unpack_signed

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


def enumerate_brute(S: Iterable[str], n: int) -> Series:
    """Ground-truth oracle: the slices p_0..p_n from one growth pass.

    A word avoids S iff none of its prefixes ends with a word of S, so the
    survivors of length k + 1 are the one-letter extensions of the survivors
    of length k that do not end with a word of S.  Grouped by their ones,
    level k gives slice k as its group sizes.  A level of more than
    `_BRUTE_FORCE_CHUNK` words is halved group by group (the smaller halves
    wait, counted, at its length) and grown depth first: memory stays at
    O(n * chunk) strings.
    """
    from .polynomials import Series

    if n < 0:
        raise ValueError("n must be >= 0")
    words = checked_words(S)
    slices = [[1]] + [[0] * (k + 1) for k in range(1, n + 1)]
    pending = [[[""]]]  # parts of levels, each a group per count of ones: k + 1 at length k
    while pending:
        groups = pending.pop()
        while (k := len(groups)) <= n:
            if sum(map(len, groups)) > _BRUTE_FORCE_CHUNK:  # half of each group waits, counted
                pending.append([g[(len(g) + 1) // 2:] for g in groups])
                groups = [g[:(len(g) + 1) // 2] for g in groups]
            groups = [[x for w in same if not (x := w + "2").endswith(words)]
                      + [x for w in fewer if not (x := w + "1").endswith(words)]
                      for same, fewer in zip(groups + [[]], [[]] + groups)]
            slices[k] = list(map(add, slices[k], map(len, groups)))
    return Series(tuple(map(tuple, slices)))
