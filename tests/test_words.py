import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kolafreq import (
    kolakoski_pieces,
    kolakoski_prefix,
    run_lengths,
    swap_letters,
)
from kolafreq.verification import words_for_depth


def contains_any_factor(word, factors):
    """True iff some element of `factors` occurs as a contiguous factor of `word`."""
    return any(f in word for f in factors)


def test_first_twenty_letters():
    assert kolakoski_prefix(20, 2) == "22112122122112112212"


def test_empty_prefix():
    assert kolakoski_prefix(0, 2) == ""


def test_first_letter_one_variant():
    assert kolakoski_prefix(5, 1) == "12211"


@pytest.mark.parametrize("first", [1, 2])
def test_self_run_length_property(first):
    word = kolakoski_prefix(2000, first)
    rl = "".join(str(r) for r in run_lengths(word))
    # The final run may be truncated by the cut, so drop the last entry.
    assert word.startswith(rl[:-1])
    assert len(rl) > 1000


def test_run_lengths_of_prefix_50():
    word = kolakoski_prefix(50, 2)
    rl = "".join(str(r) for r in run_lengths(word))
    assert word.startswith(rl[:-1])


@given(st.integers(0, 400), st.integers(0, 400), st.sampled_from([1, 2]))
@settings(deadline=None)
def test_prefix_consistency(m, n, first):
    if m > n:
        m, n = n, m
    assert kolakoski_prefix(n, first)[:m] == kolakoski_prefix(m, first)


def _two_pointer_prefix(n: int, first: int) -> str:
    """Reference: the self-reading loop, one run per step."""
    if n == 0:
        return ""
    seq, read = ([2, 2], 1) if first == 2 else ([1, 2, 2], 2)
    while len(seq) < n:
        letter = 3 - seq[-1]
        seq.append(letter)
        if seq[read] == 2:
            seq.append(letter)
        read += 1
    return "".join(map(str, seq[:n]))


@pytest.mark.parametrize("first", [1, 2])
def test_prefix_matches_two_pointer_loop(first):
    reference = _two_pointer_prefix(200_001, first)
    small = range(301)
    # Lengths around the 64-letter seed, around the letter where the first
    # 32k runs end (the memo expands chunks of 32 runs, and 32k runs fill
    # 32k letters plus one per 2 among the first 32k), and around each
    # growth round (the expansion grows by about 3/2 per round from 64).
    classical = reference[first == 1:]
    chunk_ends = {32 * k + classical[:32 * k].count("2") for k in (1, 2, 3, 5, 247, 1000, 4100)}
    rounds = {int(64 * 1.5**k) for k in range(17)}
    near = {m + j for m in chunk_ends | rounds for j in range(-9, 10)}
    for n in sorted(set(small) | {n for n in near if 0 <= n <= 200_001}):
        assert kolakoski_prefix(n, first) == reference[:n], n


@pytest.mark.parametrize("first", [1, 2])
def test_pieces_match_two_pointer_loop_at_their_cuts(first):
    reference = _two_pointer_prefix(760_000, first)
    # The seed piece ends at letter 97.  At n = 337 the cut falls where the
    # last piece made starts, and at 577 and 3 023 the last batch overshoots
    # n by its last piece and part of the one before.  With n past them,
    # batches of 4 096 chunks start at letters 559 859 and 756 467.
    cuts = {97, 337, 577, 3023, 559_859, 756_467}
    for n in sorted({m + j for m in cuts for j in range(-3, 4)}):
        assert "".join(kolakoski_pieces(n, first)) == reference[:n], n


PINNED_10M = "1e71092955c7181c45ef31db55b4d7b6b09bad3bdf838073ed9bde9b721f9b41"


def test_ten_million_letter_prefix_is_pinned():
    word = kolakoski_prefix(10**7)
    assert hashlib.sha256(word.encode("ascii")).hexdigest() == PINNED_10M
    assert word.count("1") == 5_000_046


def test_ten_million_letters_streamed_piece_by_piece_are_pinned():
    digest, distinct = hashlib.sha256(), set()
    for piece in kolakoski_pieces(10**7):
        digest.update(piece.encode("ascii"))
        distinct.add(piece)
    assert digest.hexdigest() == PINNED_10M
    # The seed, the 782 chunk expansions of the memo, and the piece cut at n.
    assert len(distinct) == 784


def test_pieces_are_shared_memo_objects():
    # `accepts` keys its per-state dicts by the pieces, so each repeat must be
    # the memo's own object, whose hash is computed once.
    pieces = list(kolakoski_pieces(10**6))
    assert len(pieces) > 10 * len(set(pieces))
    assert len(set(map(id, pieces))) == len(set(pieces))


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        kolakoski_prefix(-1, 2)
    with pytest.raises(ValueError):
        kolakoski_prefix(10, 3)
    # The pieces are a lazy iterator: a bad argument raises on the first next.
    for args in ((-1, 2), (10, 3)):
        pieces = kolakoski_pieces(*args)
        with pytest.raises(ValueError):
            next(pieces)


@pytest.mark.parametrize(
    "word,expected",
    [("1122", [2, 2]), ("22112", [2, 2, 1]), ("", []), ("1", [1]), ("11121", [3, 1, 1])],
)
def test_run_lengths(word, expected):
    assert run_lengths(word) == expected


def test_ones_count_monotone_steps():
    word = kolakoski_prefix(5000, 2)
    counts = [0]
    for ch in word:
        counts.append(counts[-1] + (ch == "1"))
    assert all(counts[i + 1] - counts[i] in (0, 1) for i in range(len(word)))
    assert 0 <= counts[-1] <= len(word)


def test_empirical_ratio_near_half(kprefix_1m):
    assert abs(kprefix_1m.count("1") / len(kprefix_1m) - 0.5) < 0.01


def test_contains_any_factor_basics():
    assert contains_any_factor("121", {"121"})
    assert contains_any_factor("2122", {"111", "12"})
    assert not contains_any_factor("2121", {"111", "222"})


def test_kolakoski_avoids_triples(kprefix_1m):
    assert not contains_any_factor(kprefix_1m, {"111", "222"})


def test_kolakoski_avoids_depth5_words(kprefix_1m):
    assert not contains_any_factor(kprefix_1m, words_for_depth(5))


@given(st.text(alphabet="12", max_size=30))
def test_swap_letters_involution(word):
    assert swap_letters(swap_letters(word)) == word
    assert swap_letters(word).count("1") == word.count("2")
