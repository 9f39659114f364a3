import hashlib
from functools import cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kolafreq.avoided
from kolafreq import (
    CollisionError,
    NotFactorFreeError,
    avoided_set,
    build_automaton,
    expand,
    run_lengths,
    swap_letters,
    verify_factor_free,
)
from kolafreq.automaton import DEAD
from kolafreq.avoided import as_words, checked_words, read_word_file
from kolafreq.verification import words_for_depth

runs_strategy = st.lists(st.integers(1, 3), min_size=1, max_size=7)


@pytest.mark.parametrize(
    "runs,start,expected",
    [
        ([3], 1, "111"),
        ([3], 2, "222"),
        ([1, 1, 1], 2, "12121"),
        ([1, 1, 1], 1, "21212"),
        ([2, 2, 2], 1, "112211"),
        ([1, 2, 1, 2, 1], 1, "212212212"),
        ([1], 1, "212"),
        ("221122", 1, "1122121122"),
    ],
)
def test_expand(runs, start, expected):
    assert expand(runs, start) == expected


def test_expand_rejects_bad_input():
    with pytest.raises(ValueError):
        expand([], 1)
    with pytest.raises(ValueError):
        expand([1, 4], 1)
    with pytest.raises(ValueError):
        expand([1, 2], 3)
    # Entries a table of run pairs must not read as runs: a two-digit entry
    # alone, a zero in a pair, and a letter at the odd end of a word.
    for runs, start in (([12], 1), ([0, 2], 1), ("12a", 2)):
        with pytest.raises(ValueError):
            expand(runs, start)


@given(runs_strategy, st.sampled_from(["1", "2"]))
def test_expand_length_recurrence(runs, start):
    word = expand(runs, start)
    assert len(word) == sum(runs) + (runs[0] == 1) + (runs[-1] == 1)


@given(runs_strategy, st.sampled_from(["1", "2"]))
def test_expand_swap_symmetry(runs, start):
    other = "2" if start == "1" else "1"
    assert swap_letters(expand(runs, start)) == expand(runs, other)


@given(runs_strategy, st.sampled_from(["1", "2"]))
def test_run_lengths_of_expansion_contain_runs(runs, start):
    produced = "".join(str(r) for r in run_lengths(expand(runs, start)))
    assert "".join(str(r) for r in runs) in produced


def test_level_one():
    assert set(avoided_set(1).words) == {"111", "222"}


def test_level_two():
    assert set(avoided_set(2).words) == {
        "111", "222", "12121", "21212", "112211", "221122"
    }


@pytest.mark.parametrize("d", range(1, 11))
def test_counts_and_factor_freeness(d):
    s = avoided_set(d)
    assert len(s) == 2 ** (d + 1) - 2
    ok, witness = verify_factor_free(s.words)
    assert ok, witness


@pytest.mark.parametrize("d", range(1, 7))
def test_swap_closure(d):
    words = set(avoided_set(d).words)
    assert {swap_letters(w) for w in words} == words


def test_levels_structure():
    s = avoided_set(3)
    assert s.levels[1] == frozenset({"111", "222"})
    assert len(s.levels[2]) == 4
    assert len(s.levels[3]) == 8
    assert set(s.words) == s.levels[1] | s.levels[2] | s.levels[3]


def test_words_sorted_by_length_then_lex():
    words = avoided_set(4).words
    assert list(words) == sorted(words, key=lambda w: (len(w), w))


def test_lower_levels_of_one_expansion_are_the_smaller_sets():
    tree = avoided_set(8)
    for d in range(1, 9):
        assert tree.up_to(d) == avoided_set(d)
    with pytest.raises(ValueError):
        tree.up_to(9)
    with pytest.raises(ValueError):
        tree.up_to(0)


def test_depth_12_tree_is_pinned():
    # Levels of 2^k words each, and a digest of all 8 190 words in order.
    tree = avoided_set(12)
    assert [len(tree.levels[k]) for k in range(1, 13)] == [2 ** k for k in range(1, 13)]
    assert len(tree) == 8190
    digest = hashlib.sha256("\n".join(tree.words).encode()).hexdigest()
    assert digest == "93f57be8edd711b1af2842329a4705f877941b5b8b2fe035c2ebc63d28ca9858"


@cache
def _automaton(d):
    return build_automaton(avoided_set(d))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 5), st.lists(st.booleans(), min_size=1, max_size=120))
def test_run_lengths_of_a_word_avoiding_the_next_level_avoid_the_set(d, choices):
    # The tree's lemma: a word avoiding S_(d+1) has runs of 1 or 2 letters,
    # and its complete runs, its end runs dropped, spell a word avoiding S_d.
    # At each step a choice picks between the letters that stay off DEAD.
    auto = _automaton(d + 1)
    word, q = [], auto.start
    for pick_two in choices:
        moves = [(ch, t) for ch, t in (("1", auto.on_one[q]), ("2", auto.on_two[q])) if t != DEAD]
        if not moves:
            break
        ch, q = moves[pick_two and len(moves) > 1]
        word.append(ch)
    inner = run_lengths("".join(word))[1:-1]
    assert set(inner) <= {1, 2}
    assert _automaton(d).accepts("".join(map(str, inner)))


def test_depth_validation():
    with pytest.raises(ValueError):
        avoided_set(0)


def test_collision_is_a_hard_error(monkeypatch):
    monkeypatch.setattr(kolafreq.avoided, "expand", lambda runs, start: "121")
    with pytest.raises(CollisionError):
        avoided_set(1)


def test_words_for_depth_reads_every_set_off_one_tree():
    # The checks read S_1..S_8 off one expansion to depth 8; each must be
    # the set that its own expansion gives, in the same order.
    for d in range(1, 9):
        assert words_for_depth(d) == avoided_set(d).words
    assert words_for_depth(9) == avoided_set(9).words


def test_kolakoski_avoids_depth4(kprefix_1m):
    for word in words_for_depth(4):
        assert word not in kprefix_1m


def test_factor_free_witness():
    ok, witness = verify_factor_free({"111", "21112"})
    assert not ok
    assert witness == ("111", "21112")
    assert verify_factor_free({"111", "222"}) == (True, None)


def _pairwise_factor_free(words):
    """The quadratic reference: every word against every later word."""
    ws = sorted(set(words), key=lambda w: (len(w), w))
    for i, small in enumerate(ws):
        for big in ws[i + 1:]:
            if small in big:
                return False, (small, big)
    return True, None


def _minimal(words):
    return {w for w in words if not any(u != w and u in w for u in words)}


word_sets = st.lists(st.text(alphabet="12", max_size=7), max_size=12)


@settings(max_examples=300)
@given(word_sets, st.booleans())
@example(["111", "21112"], False)
@example(["", "1", "22"], False)  # the empty word occurs in every word
@example(["12", "2", "1212", "21"], False)  # several inner words and containers
@example(["1212", "2121", "12121"], False)  # a container that is a suffix shift
def test_factor_free_check_matches_the_pairwise_loop(words, minimal):
    words = _minimal(words) if minimal else words
    assert verify_factor_free(words) == _pairwise_factor_free(words)
    if minimal:
        assert verify_factor_free(words) == (True, None)


def test_factor_free_check_of_avoided_sets():
    for d in (6, 7):
        words = avoided_set(d).words
        assert verify_factor_free(words) == (True, None)
        # The longest word with a letter cut off each end lies inside it, and
        # may contain or lie inside other words too.
        inner = words[-1][1:-1]
        assert verify_factor_free(words + (inner,)) == _pairwise_factor_free(words + (inner,))


@pytest.mark.parametrize("words,witness", [
    (["12", "121"], ("12", "121")),  # a prefix: the end of 12 has a child
    (["21", "121"], ("21", "121")),  # a suffix: the failure link of 121 lands on 21
    (["22", "1221"], ("22", "1221")),  # strictly inside: 122 fails to 22
    (["121", "12", "121", "2"], ("2", "12")),  # duplicates, and 2 before 12
    (["111", "222", "111"], None),
    ([], None),
])
def test_factor_free_check_finds_each_kind_of_inner_word(words, witness):
    assert verify_factor_free(words) == (witness is None, witness) == _pairwise_factor_free(words)


def test_checked_words_raises_with_witness():
    with pytest.raises(NotFactorFreeError) as exc:
        checked_words(["121", "12"])
    assert exc.value.witness == ("12", "121")


def test_as_words_normalizes():
    assert as_words(["222", "111", "111"]) == ("111", "222")
    assert as_words(avoided_set(1)) == ("111", "222")
    with pytest.raises(ValueError):
        as_words(["103"])


def test_read_word_file(tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("# a comment\n111\n\n  222  \n# trailing\n", encoding="utf-8")
    assert read_word_file(path) == ("111", "222")
    bad = tmp_path / "bad.txt"
    bad.write_text("12x\n", encoding="utf-8")
    with pytest.raises(ValueError):
        read_word_file(bad)
