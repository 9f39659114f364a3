import gc
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kolafreq import automaton
from kolafreq import (
    DegreeProfile,
    EmptyLanguageError,
    NotFactorFreeError,
    WeightPoly,
    avoided_set,
    build_automaton,
    degree_profile,
    enumerate_brute,
    kolakoski_pieces,
    kolakoski_prefix,
    series_from_gf,
    weight_gf,
    weight_poly_dp,
    weight_series,
)


def contains_any_factor(word, factors):
    """The oracle for `accepts`: some element of `factors` occurs in `word`."""
    return any(f in word for f in factors)


def test_s1_automaton_has_five_live_states():
    assert build_automaton(avoided_set(1)).n_states == 5


def test_single_letter_taboo():
    auto = build_automaton(["1"])
    assert auto.n_states == 1
    assert auto.accepts("2222")
    assert not auto.accepts("21")
    assert weight_poly_dp(["1"], 4).poly(4) == WeightPoly({(0, 4): 1})


@pytest.mark.parametrize("d,max_n", [(2, 10), (5, 12)])
def test_automaton_agrees_with_direct_scan(d, max_n):
    words = avoided_set(d)
    auto = build_automaton(words)
    for n in range(max_n + 1):
        for letters in product("12", repeat=n):
            w = "".join(letters)
            assert auto.accepts(w) == (not contains_any_factor(w, words)), w


def test_automaton_rejects_bad_sets():
    with pytest.raises(ValueError):
        build_automaton([""])
    with pytest.raises(NotFactorFreeError):
        build_automaton(["12", "121"])
    # One set breaking every rule: a letter outside {1, 2} is refused
    # first, then the empty word, then a word inside another.
    with pytest.raises(ValueError, match="letters outside"):
        build_automaton(["", "13", "12", "121"])
    with pytest.raises(ValueError, match="empty word") as refusal:
        build_automaton(["", "12", "121"])
    assert type(refusal.value) is ValueError


def test_live_state_count_is_trie_minus_terminals():
    words = avoided_set(5)
    trie_nodes = {""}
    for w in words:
        for i in range(1, len(w) + 1):
            trie_nodes.add(w[:i])
    assert build_automaton(words).n_states == len(trie_nodes) - len(words)


def test_profile_basics():
    prof = degree_profile(avoided_set(1), 3)
    assert prof.min_ones[3] == 1 and prof.max_ones[3] == 2
    assert prof.min_ones[0] == 0 and prof.max_ones[0] == 0
    prof.check_invariants()


def test_invalid_profile_fails_invariants():
    with pytest.raises(AssertionError, match="min-ones falls"):
        DegreeProfile(("111",), 2, (0, 1, 0), (0, 1, 2)).check_invariants()
    with pytest.raises(AssertionError, match="max-ones jump"):
        DegreeProfile(("111",), 2, (0, 0, 0), (0, 0, 2)).check_invariants()
    with pytest.raises(AssertionError, match="out of range"):
        DegreeProfile(("111",), 1, (0, 1), (0, 0)).check_invariants()


def test_profile_with_a_min_ones_jump_passes_invariants():
    # The one fewest-ones word of length 3, 122, has no extension.
    prof = degree_profile(("112", "21", "222"), 14)
    assert prof.min_ones[:6] == (0, 0, 0, 1, 4, 5)
    prof.check_invariants()


def test_profile_order_zero():
    prof = degree_profile(avoided_set(2), 0)
    assert prof.min_ones == (0,) and prof.max_ones == (0,)


def test_profile_headline_value():
    assert degree_profile(avoided_set(5), 762).min_ones[762] == 364


def test_profile_of_dead_language():
    with pytest.raises(EmptyLanguageError):
        degree_profile(["1", "2"], 1)


@pytest.mark.parametrize("d,certificate", [
    (1, (2, 3, 1)),
    (2, (5, 3, 1)),
    (3, (9, 9, 4)),
    (4, (38, 15, 7)),
    (5, (79, 69, 33)),
    (6, (160, 69, 33)),
    (7, (187, 123, 59)),
    (8, (290, 123, 59)),
    (9, (964, 561, 275)),
])
def test_certified_period_of_avoided_sets(d, certificate):
    assert degree_profile(avoided_set(d), 1600).certificate == certificate


def test_certified_period_needs_enough_steps():
    assert degree_profile(avoided_set(5), 147).certificate is None
    assert degree_profile(avoided_set(5), 148).certificate == (79, 69, 33)
    with pytest.raises(ValueError):
        degree_profile(avoided_set(5), -1)


def test_certificate_survives_digest_collisions(monkeypatch):
    # Every normalised vector gets the same digest, so every step is a hit
    # that only the component-wise comparison can reject.
    expected = degree_profile(avoided_set(4), 60)
    monkeypatch.setattr(automaton, "hash", lambda vector: 0, raising=False)
    collided = degree_profile(avoided_set(4), 60)
    assert (collided, collided.certificate) == (expected, (38, 15, 7))
    min_ones, certificate = _list_kernel(avoided_set(4), 60)
    assert (tuple(min_ones), certificate) == (expected.min_ones, (38, 15, 7))


def test_certificate_survives_thinned_checkpoints(monkeypatch):
    # One checkpoint every max(1, ceil(N / 4)) steps: at N = 60 they lie 15
    # apart, before the repeat at step 53; at N = 600 they lie 150 apart, so
    # the repeat's onset 38 is replayed from step 0, on the lanes across
    # their cut to the live block at step 11.  With one checkpoint every N
    # steps, the onset is replayed from step 0 across the cut at N = 60 too.
    # With every digest equal, each earlier step is replayed from the
    # checkpoint before it and rejected component by component.
    words = avoided_set(4)
    expected = degree_profile(words, 600)
    monkeypatch.setattr(automaton, "_CHECKPOINT_EVERY", 1)
    monkeypatch.setattr(automaton, "_CHECKPOINTS", 4)
    lists = _list_kernel(words, 600)
    monkeypatch.setattr(automaton, "hash", lambda vector: 0, raising=False)
    thinned = degree_profile(words, 60)
    assert (thinned.min_ones, thinned.certificate) == (expected.min_ones[:61], (38, 15, 7))
    assert automaton._min_ones(words, 600) == lists == (list(expected.min_ones), (38, 15, 7))
    monkeypatch.setattr(automaton, "_CHECKPOINTS", 1)
    assert automaton._min_ones(words, 60) == (list(expected.min_ones[:61]), (38, 15, 7))


def test_certificate_holds_on_the_counting_dp_profile():
    S = avoided_set(4)
    onset, period, slope = degree_profile(S, 200).certificate
    prof = DegreeProfile.from_series(S, weight_poly_dp(S, 200))
    for n in range(onset, 201 - period):
        assert prof.min_ones[n + period] == prof.min_ones[n] + slope


def test_profile_of_non_swap_closed_set():
    S = ("111", "22")
    prof = degree_profile(S, 30)
    assert prof == DegreeProfile.from_series(S, weight_poly_dp(S, 30))
    assert any(prof.max_ones[n] != n - prof.min_ones[n] for n in range(31))


def test_profile_equality_ignores_the_certificate():
    S = avoided_set(2)
    prof = degree_profile(S, 40)
    from_series = DegreeProfile.from_series(S, weight_poly_dp(S, 40))
    assert (prof.certificate, from_series.certificate) == ((5, 3, 1), None)
    assert prof == from_series and hash(prof) == hash(from_series)


def test_certificate_of_a_non_swap_closed_set_is_the_fewest_ones_side():
    # {111, 22} repeats with period 2 on the fewest ones; its swap {222, 11}
    # has period 3, the fewest twos of {111, 22}.
    prof = degree_profile(("111", "22"), 60)
    assert prof.certificate == (2, 2, 1)
    assert degree_profile(("222", "11"), 60).certificate == (2, 3, 1)
    assert all(prof.min_ones[n + 2] == prof.min_ones[n] + 1 for n in range(2, 59))


def test_counting_dp_examples():
    assert weight_poly_dp(avoided_set(1), 3).poly(3) == WeightPoly({(2, 1): 3, (1, 2): 3})
    assert weight_poly_dp(avoided_set(1), 0).poly(0) == WeightPoly.one()
    with pytest.raises(ValueError, match="N must be >= 0"):
        weight_poly_dp(avoided_set(1), -1)


def test_brute_force_examples():
    assert enumerate_brute(avoided_set(1), 2).slices == ((1,), (1, 1), (1, 2, 1))
    assert enumerate_brute(avoided_set(1), 3).poly(3) == WeightPoly({(2, 1): 3, (1, 2): 3})
    assert enumerate_brute([], 4).poly(4) == prod([WeightPoly.letter_sum()] * 4)
    assert enumerate_brute(["1", "2"], 3).slices == ((1,), (0, 0), (0, 0, 0), (0, 0, 0, 0))
    assert enumerate_brute(avoided_set(1), 0).slices == ((1,),)
    # No length is refused: n = 30 is past the old ceiling of 24.
    assert enumerate_brute(["1"], 30).poly(30) == WeightPoly({(0, 30): 1})
    # The refusals are raises, so they hold under python -O too.
    with pytest.raises(ValueError, match="n must be >= 0"):
        enumerate_brute(avoided_set(1), -1)
    with pytest.raises(NotFactorFreeError):
        enumerate_brute(("11", "111"), 3)


@pytest.mark.parametrize("S", [
    (),
    ("1",),
    ("12", "21"),
    ("111", "222"),
    ("11", "222", "1212"),
    avoided_set(3),
])
def test_brute_force_matches_literal_enumeration(S):
    brute = enumerate_brute(S, 10)
    assert brute.order == 10
    for n in range(11):
        counts = Counter(
            w.count("1") for w in map("".join, product("12", repeat=n))
            if not contains_any_factor(w, S)
        )
        assert brute.slices[n] == tuple(counts[a] for a in range(n + 1)), n


def test_brute_force_splits_large_levels():
    # Lengths 15 and 16 have 2^15 and 2^16 survivors, more than one chunk of
    # 2^14: a level counted twice after its split, or a part lost, breaks a row.
    brute = enumerate_brute([], 16)
    assert brute.slices == tuple(tuple(comb(n, a) for a in range(n + 1)) for n in range(17))


def test_cross_oracle_s2_n10():
    assert weight_poly_dp(avoided_set(2), 10) == enumerate_brute(avoided_set(2), 10)


@pytest.mark.parametrize("d", range(1, 7))
def test_brute_force_equals_counting_dp_past_the_old_cap(d):
    words = avoided_set(d)
    assert enumerate_brute(words, 26) == weight_poly_dp(words, 26)


def test_profile_consistent_with_series_extremes():
    words = avoided_set(3)
    series = weight_series(words, 18)
    prof = degree_profile(words, 18)
    for n in range(19):
        assert series.min_ones(n) == prof.min_ones[n]
        assert series.max_ones(n) == prof.max_ones[n]


def test_survivor_counts_shrink_with_larger_sets():
    n = 12
    counts = [
        sum(weight_poly_dp(avoided_set(d), n).poly(n).terms.values()) for d in (1, 2, 3)
    ]
    assert counts[0] >= counts[1] >= counts[2]


def _minimal_words(drawn: list[str]) -> tuple[str, ...]:
    """Keep the drawn words that contain no other drawn word: a factor-free set."""
    return tuple(sorted(
        {w for w in drawn if not any(u != w and u in w for u in drawn)}
    ))


factor_free_sets = st.lists(
    st.text(alphabet="12", min_size=2, max_size=5), min_size=1, max_size=6
).map(_minimal_words)


def _automaton_by_definition(S):
    """The transitions of the automaton of S, read off its definition.

    The states are "" and the proper prefixes of the words, sorted by
    (length, lex).  The target of (p, c) is DEAD if p + c ends with a word
    of S, and otherwise the longest suffix of p + c that is a state.
    """
    words = tuple(S)
    states = sorted({""} | {w[:i] for w in words for i in range(len(w))},
                    key=lambda p: (len(p), p))
    index = {p: i for i, p in enumerate(states)}

    def target(x):
        if x.endswith(words):
            return automaton.DEAD
        return next(index[x[i:]] for i in range(len(x) + 1) if x[i:] in index)

    return tuple(tuple(target(p + c) for p in states) for c in "12")


@settings(max_examples=100, deadline=None)
@given(factor_free_sets)
@example(())
@example(("1",))
@example(("2", "1111"))
@example(("12", "21"))
@example(avoided_set(1))
@example(avoided_set(2))
@example(avoided_set(3))
@example(avoided_set(4))
@example(avoided_set(5))
def test_automaton_matches_its_definition(S):
    auto = build_automaton(S)
    assert (auto.on_one, auto.on_two) == _automaton_by_definition(S)


@settings(max_examples=60, deadline=None)
@given(factor_free_sets)
@example(())  # every word survives
@example(("11", "12", "22"))  # every word of length 3 contains one of these
@example(("1",))  # no overlaps at all
@example(("2", "1111"))
@example(("121", "2112", "22222"))  # an overlap prefix shared by two words
def test_oracles_agree_on_random_factor_free_sets(S):
    N = 12
    series = weight_series(S, N)
    assert series == weight_poly_dp(S, N)
    assert series_from_gf(weight_gf(S), N) == series
    assert enumerate_brute(S, N) == series
    try:
        expected = degree_profile(S, N)
    except EmptyLanguageError:
        with pytest.raises(EmptyLanguageError):
            DegreeProfile.from_series(S, series)
    else:
        assert DegreeProfile.from_series(S, series) == expected


@settings(max_examples=60, deadline=None)
@given(factor_free_sets, st.integers(min_value=0, max_value=12))
@example((), 12)  # 2^12 words; every part of more than 4 is halved
@example(("11", "22"), 9)
@example(("1",), 12)  # one word a level: a chunk holds them all
@example(("12",), 12)  # one word per count of ones: halving moves no word aside
def test_brute_force_split_into_tiny_chunks_counts_every_word_once(S, n):
    whole = enumerate_brute(S, n)
    with mock.patch.object(automaton, "_BRUTE_FORCE_CHUNK", 4):
        assert enumerate_brute(S, n) == whole


@settings(max_examples=60, deadline=None)
@given(factor_free_sets)
@example(("111", "22"))
@example(("11", "12", "22"))
def test_profile_past_the_period_matches_counting_dp(S):
    N = 80
    series = weight_poly_dp(S, N)
    lists = _kernel_outcome(_list_kernel, S, N)
    try:
        expected = DegreeProfile.from_series(S, series)
    except EmptyLanguageError:
        with pytest.raises(EmptyLanguageError):
            degree_profile(S, N)
        assert isinstance(lists, str)
    else:
        assert degree_profile(S, N) == expected
        assert tuple(lists[0]) == expected.min_ones


def _list_kernel(S, N):
    """The min-ones kernel on `_Lists`: every state stepped, no lane bounded."""
    return automaton._run(automaton._Lists(build_automaton(S)), N)


def _kernel_outcome(kernel, *args):
    try:
        return kernel(*args)
    except EmptyLanguageError as exc:
        return str(exc)


_KOLAKOSKI = kolakoski_prefix(60)


@settings(max_examples=60, deadline=None)
@given(factor_free_sets, st.just(80))
@example((), 80)
@example(("1", "2"), 80)  # no word of length 1
@example(("111", "22"), 80)  # not swap-closed
@example(("11", "22"), 80)  # the live states form one cycle of in-degree-1 states
@example(("112", "21", "222"), 80)  # the fewest ones jump by 3 at n = 4
@example(("1" * 300,), 400)  # a chain with 299 ones: K leaves no room in a byte
@example(("1" * 130 + "2",), 200)  # the merge lane of 1^130 outgrows its byte at n = 130
# Eight words 1^260 w, w the 40-letter factors of the Kolakoski word at its
# first eight 2s: 547 states, and a chain of 256 ones leaves no room in a byte.
@example(tuple("1" * 260 + _KOLAKOSKI[p:p + 40] for p in range(14) if _KOLAKOSKI[p] == "2"), 400)
# State "2" has three incoming edges, from "", "1" and itself; from the
# lanes' cut at step 2 only its loop is live, and the live plan gathers that
# one edge.
@example(("11", "21"), 80)
# Before the cut at step 2 one merge lane has two edges and the other three,
# so every gather covers both and the lane of two repeats its first edge in
# the third; from the cut the lane with one live edge repeats it in the second.
@example(("11", "21221", "21222"), 80)
def test_byte_lane_kernel_matches_the_list_kernel(S, N):
    auto = build_automaton(S)
    expected = _kernel_outcome(_list_kernel, S, N)
    with mock.patch.object(automaton, "_Lists", wraps=automaton._Lists) as fallback:
        assert _kernel_outcome(automaton._min_ones, S, N) == expected
    # A lane holds v - phi + K <= n + K, and K, the most ones on a chain, is
    # less than the number of states, so only N + states > 255 can overflow.
    assert fallback.called == (N + auto.n_states > 255)


def _alive(*classes) -> list[int]:
    """How many instances of each class the collector finds."""
    gc.collect()
    objects = gc.get_objects()
    return [sum(isinstance(o, cls) for o in objects) for cls in classes]


class _CountedGraph(automaton.CoreGraph):
    """A `CoreGraph` that counts its constructions; unlike a mock, it keeps no automaton."""

    built = 0

    def __init__(self, auto):
        _CountedGraph.built += 1
        super().__init__(auto)


class _CountedLists(automaton._Lists):
    """A `_Lists` that counts its constructions; unlike a mock, it keeps no automaton."""

    built = 0

    def __init__(self, auto):
        _CountedLists.built += 1
        super().__init__(auto)


def test_one_core_graph_per_kernel_run_and_no_automaton_while_it_steps(monkeypatch):
    # {1^300} is not swap-closed, so its profile runs the kernel on it and on
    # {2^300}; the chain of 299 ones leaves no room in a byte, so the first
    # run steps the lists, on the automaton built again.
    kept = (automaton.AvoidanceAutomaton, automaton.CoreGraph, automaton._DelayLine)
    run, alive, before = automaton._run, [], _alive(*kept)

    def checked_run(step, N):
        alive.append((type(step), [now - was for now, was in zip(_alive(*kept), before)]))
        return run(step, N)

    monkeypatch.setattr(automaton, "CoreGraph", _CountedGraph)
    monkeypatch.setattr(_CountedGraph, "built", 0)
    monkeypatch.setattr(automaton, "_Lists", _CountedLists)
    monkeypatch.setattr(_CountedLists, "built", 0)
    monkeypatch.setattr(automaton, "_run", checked_run)
    prof = degree_profile(("1" * 300,), 400)
    assert (_CountedGraph.built, _CountedLists.built) == (2, 1)
    # While a kernel steps, no automaton or graph is alive, and no lanes but
    # the step's own: the refused graph and lanes are freed before the lists run.
    assert alive == [(_CountedLists, [0, 0, 0]), (automaton._DelayLine, [0, 0, 1])]
    assert prof.certificate == (299, 1, 0) and prof.max_ones[400] == 399


def _graph_by_definition(auto):
    """The edges into each state, the live states and L*, read off the transitions.

    An edge into t is q for a 2 from q and n + q for a 1 from q, for n
    states.  W_k, the states that end a walk of k letters from any state,
    shrinks with k.  A state is live iff it is in W_n: a walk of n letters
    passes a cycle, and a state after a cycle ends walks of every length.
    L* is the last k at which W_k holds a state that is not live, -1 if none.
    """
    n = auto.n_states
    rows = ((auto.on_two, 0), (auto.on_one, n))
    edges = [sorted(base + q for row, base in rows for q in range(n) if row[q] == t) for t in range(n)]
    ends = [set(range(n))]
    while len(ends) <= n:
        ends.append({row[q] for row, _base in rows for q in ends[-1]} - {automaton.DEAD})
    live = ends[n]
    return edges, live, max((k for k, w in enumerate(ends) if w - live), default=-1)


def _cut_step(graph, steps):
    """The first step within `steps` whose byte lanes are cut to the live block, None if none is."""
    lanes = automaton._DelayLine(graph)
    v = lanes.start()
    for n in range(1, steps + 1):
        v = lanes.advance(v)[0]
        if len(v) < lanes.width:
            assert len(v) == sum(graph.live)
            return n
    return None


@settings(max_examples=100, deadline=None)
@given(factor_free_sets)
@example(())  # one state with a loop on each letter
@example(("1", "2"))  # nothing is live
@example(("11", "21"))  # a live merge with one live edge
@example(("11", "22"))  # the live states form one cycle
@example(("1" * 6,))  # one chain of five ones
@example(avoided_set(3))
def test_core_graph_matches_its_definition(S):
    auto = build_automaton(S)
    graph = automaton.CoreGraph(auto)
    edges, live, last_transient = _graph_by_definition(auto)
    n = auto.n_states
    assert automaton._Lists(auto).edges == edges
    assert graph.heads == {h: edges[h] for h in graph.chains}
    assert {t for t in range(n) if graph.live[t]} == live
    # L* < n, as W_n holds only live states; the lanes cut at L* + 1, the
    # first step that reaches no peeled state.
    assert _cut_step(graph, n) == (last_transient + 1 if last_transient >= 0 else None)
    # The chains partition the states.  Below its head, a chain state's one
    # edge comes from the state above it, and phi counts the ones from the head.
    assert sorted(t for chain in graph.chains.values() for t in chain) == list(range(n))
    for h, chain in graph.chains.items():
        assert chain[0] == h and graph.phi[h] == 0
        for q, t in zip(chain, chain[1:]):
            assert edges[t] in ([q], [n + q])
            assert graph.phi[t] == graph.phi[q] + (edges[t] == [n + q])
    # The chain walk rests on the breadth-first numbering: every state but the
    # start is entered from a smaller one, and every one-edge cycle holds the start.
    cycles = _one_edge_cycles(edges)
    assert all(any(e % n < t for e in edges[t]) for t in range(n) if t != auto.start)
    assert all(auto.start in cycle for cycle in cycles)
    # Each cycle of one-edge states holds exactly one head, its least state.
    # Any other one-edge head follows a state whose chain goes on elsewhere.
    for cycle in cycles:
        assert [t for t in cycle if t in graph.chains] == [min(cycle)]
    on_cycles = set().union(*cycles)
    ends = {chain[-1] for h, chain in graph.chains.items() if h not in on_cycles}
    assert not any(len(edges[h]) == 1 and edges[h][0] % n in ends
                   for h in set(graph.chains) - on_cycles)


def test_core_graph_cuts_a_cycle_of_one_edge_states_at_its_least_state():
    # In an automaton of words only the root can lie on such a cycle (every
    # other state is entered from its parent prefix), so this graph is built
    # by hand: 0 loops on a 2, and 1 -2-> 3 -1-> 2 -2-> 4 -1-> 1.
    DEAD = automaton.DEAD
    graph = automaton.CoreGraph(automaton.AvoidanceAutomaton(
        (), (DEAD, DEAD, DEAD, 2, 1), (0, 3, 4, DEAD, DEAD)))
    assert {h: list(chain) for h, chain in graph.chains.items()} == {0: [0], 1: [1, 3, 2, 4]}
    assert graph.phi == [0, 0, 1, 0, 1]


def _one_edge_cycles(edges):
    """The cycles of states that each have one incoming edge, as sets of states."""
    n, cycles = len(edges), set()
    for t in range(n):
        path, q = [], t
        while len(edges[q]) == 1 and len(path) < n:
            path.append(q)
            q = edges[q][0] % n
            if q == t:
                cycles.add(frozenset(path))
                break
    return cycles


# The last step before the lanes' cut is the last that reaches a peeled state.
@pytest.mark.parametrize("d,live,before_cut", [
    (1, 4, 0),
    (2, 12, 2),
    (3, 36, 5),
    (4, 108, 10),
    (5, 324, 17),
    (6, 972, 28),
    (7, 2916, 45),
    (8, 8748, 70),
])
def test_live_states_of_avoided_sets(d, live, before_cut):
    graph = automaton.CoreGraph(build_automaton(avoided_set(d)))
    assert (sum(graph.live), _cut_step(graph, 100)) == (live, before_cut + 1)
    assert live == 4 * 3 ** (d - 1)
    # 2^d live chains: the live lanes a step computes rather than copies,
    # each entered at its head by exactly two edges from live states.
    live_heads = [h for h in graph.chains if graph.live[h]]
    assert len(live_heads) == 2 ** d
    assert all(sum(graph.live[e % graph.n_states] for e in graph.heads[h]) == 2 for h in live_heads)


def _walk_letters(auto, word):
    """The letter-by-letter walk: True iff no letter leads to the dead state."""
    state = auto.start
    for ch in word:
        state = (auto.on_one if ch == "1" else auto.on_two)[state]
        if state == automaton.DEAD:
            return False
    return True


@settings(max_examples=100, deadline=None)
@given(factor_free_sets, st.text(alphabet="12", max_size=150))
@example(("111", "222"), "12" * 50 + "1")  # 101 letters, none dead
@example(("111", "222"), "12" * 40 + "111" + "2")  # dies at letter 83, inside a chunk
@example(("11",), "2" * 31 + "11")  # the factor straddles the first two chunks
# One 32-letter chunk read twice: from the start it survives and ends after
# a 1, from there its first letter dies.  A memo keyed by the chunk alone
# would accept.
@example(("11",), ("1" + "2" * 30 + "1") * 2)
def test_chunked_accepts_matches_the_letter_walk(S, word):
    auto = build_automaton(S)
    assert auto.accepts(word) == _walk_letters(auto, word)


def test_chunked_accepts_on_a_long_prefix():
    auto = build_automaton(avoided_set(5))
    prefix = kolakoski_prefix(3 * 32 * 50 + 17)  # chunks repeat, the last is short
    assert auto.accepts(prefix) and _walk_letters(auto, prefix)
    # At a chunk's start, across two chunks, inside one and in the short last one.
    for cut in (32 * 70, 32 * 70 - 1, 32 * 70 + 5, len(prefix) - 2):
        word = prefix[:cut] + "222" + prefix[cut:]
        assert auto.accepts(word) is _walk_letters(auto, word) is False


@settings(max_examples=100, deadline=None)
@given(factor_free_sets, st.lists(st.text(alphabet="12", max_size=40), max_size=10))
@example(("1221",), ["2212", "2112"])  # the factor straddles the two pieces
@example(("11",), ["1" + "2" * 30 + "1"] * 2)  # one piece read from two states
# The Kolakoski pieces of 400 letters: the first 1221211212212 starts at
# letter 96 and straddles the seed piece and the next; the first
# 11211212212211211 starts at letter 485, past n, so the pieces avoid it.
@example(("1221211212212",), tuple(kolakoski_pieces(400)))
@example(("11211212212211211",), tuple(kolakoski_pieces(400)))
def test_accepts_pieces_as_the_joined_word(S, pieces):
    auto = build_automaton(S)
    word = "".join(pieces)
    assert auto.accepts(iter(pieces)) == auto.accepts(word) == (not contains_any_factor(word, S))


@pytest.mark.parametrize("word,letter", [
    ("13", "3"),
    ("1x1", "x"),
    ("12" * 20 + "0", "0"),  # in the second chunk
    (["12", "12", "1 2"], " "),  # in a piece
    # In a later chunk or piece, after the walk has memoised others:
    (["12", "12", "12", "1213"], "3"),
    (["12"] * 3 + ["3"], "3"),
    ("12" * 40 + "3", "3"),  # the third chunk of a str
    ("12" * 47 + "13", "3"),  # a chunk one letter off one walked twice
])
def test_accepts_refuses_letters_other_than_1_and_2(word, letter):
    with pytest.raises(ValueError, match=repr(letter)):
        build_automaton(["11", "22"]).accepts(word)


def test_accepts_pulls_no_chunk_past_the_one_that_dies():
    pulled = []

    def chunks():
        for chunk in ["12", "21", "1221", "12", "2212", "2", "1"]:  # 222 ends in the fifth
            pulled.append(chunk)
            yield chunk

    assert not build_automaton(["111", "222"]).accepts(chunks())
    assert pulled == ["12", "21", "1221", "12", "2212"]


def test_accepts_walks_each_new_state_and_piece_once(monkeypatch):
    # The 10^7 Kolakoski letters through S_6 come in 208 333 pieces, but
    # only 3 028 (state, piece) pairs are distinct: only those walk letters.
    walked = Counter()
    real = automaton._Memo.__missing__

    def spy(memo, chunk):
        walked[memo.state, chunk] += 1
        return real(memo, chunk)

    monkeypatch.setattr(automaton._Memo, "__missing__", spy)
    assert build_automaton(avoided_set(6)).accepts(kolakoski_pieces(10**7))
    assert sum(walked.values()) == len(walked) == 3028


@pytest.mark.parametrize("S,word,accepted", [
    (6, None, True),  # the 10^7 Kolakoski letters in their pieces
    (("111", "222"), "12" * 40 + "111" + "2", False),  # dies inside the third chunk
    (("11", "22"), "12" * 40 + "3", None),  # refuses the '3' in the third chunk
])
def test_accepts_frees_its_memos_on_the_way_out(S, word, accepted):
    # The memos map chunks to memos, in cycles; with the cyclic collector
    # off, none may outlive the walk, whether it passes, dies or raises.
    auto = build_automaton(avoided_set(S) if isinstance(S, int) else S)
    gc.collect()
    gc.disable()
    try:
        if accepted is None:
            with pytest.raises(ValueError):
                auto.accepts(word)
        else:
            assert auto.accepts(word or kolakoski_pieces(10**7)) is accepted
        assert not any(isinstance(o, automaton._Memo) for o in gc.get_objects())
    finally:
        gc.enable()


def _karp_min_cycle_mean(auto):
    """Karp (1978): the least mean ones-weight of a cycle reachable from the start.

    D[k][v] is the fewest ones on a walk of exactly k edges from the start to
    v; the least cycle mean is min over v of max over k < n of
    (D[n][v] - D[k][v]) / (n - k), for n states.  Fractions are compared by
    cross-multiplying.  None if no walk has n edges (no cycle).
    """
    n = auto.n_states
    D = [[None] * n for _ in range(n + 1)]
    D[0][auto.start] = 0
    for k in range(n):
        for q, x in enumerate(D[k]):
            if x is None:
                continue
            for t, ones in ((auto.on_one[q], 1), (auto.on_two[q], 0)):
                if t != automaton.DEAD and (D[k + 1][t] is None or x + ones < D[k + 1][t]):
                    D[k + 1][t] = x + ones
    best = None
    for v in range(n):
        if D[n][v] is None:
            continue
        worst = None
        for k in range(n):
            if D[k][v] is not None:
                mean = (D[n][v] - D[k][v], n - k)
                if worst is None or mean[0] * worst[1] > worst[0] * mean[1]:
                    worst = mean
        if best is None or worst[0] * best[1] < best[0] * worst[1]:
            best = worst
    return None if best is None else Fraction(*best)


@pytest.mark.parametrize("d,limit", [
    (1, Fraction(1, 3)),
    (2, Fraction(1, 3)),
    (3, Fraction(4, 9)),
    (4, Fraction(7, 15)),
    (5, Fraction(11, 23)),
])
def test_certificate_slope_is_the_least_cycle_mean(d, limit):
    _onset, period, slope = degree_profile(avoided_set(d), 200).certificate
    assert Fraction(slope, period) == limit == _karp_min_cycle_mean(build_automaton(avoided_set(d)))


@settings(max_examples=60, deadline=None)
@given(factor_free_sets)
@example(("11", "22"))  # the live states form one cycle of in-degree-1 states
@example(("112", "21", "222"))  # the fewest ones jump by 3 at n = 4
def test_certificate_slope_matches_karp_on_random_sets(S):
    try:
        certificate = degree_profile(S, 200).certificate
    except EmptyLanguageError:
        assert _karp_min_cycle_mean(build_automaton(S)) is None
        return
    if certificate is not None:
        _onset, period, slope = certificate
        assert Fraction(slope, period) == _karp_min_cycle_mean(build_automaton(S))
