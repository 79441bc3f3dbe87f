import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmsig.matchings import (
    compatible_matchings,
    decomposition_bijection_check,
    enumerate_matchings,
    permutation_count,
    refined_count_bound,
)
from fbmsig.tensor import Word

from oracles import bound_violation_sweep


def double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@functools.cache
def all_pairings(two_k):
    """Oracle: every perfect matching of {0, ..., two_k-1}, the smallest open
    position paired with each larger one in turn."""
    def rec(pos):
        if not pos:
            yield ()
            return
        for j in range(1, len(pos)):
            for rest in rec(pos[1:j] + pos[j + 1:]):
                yield ((pos[0], pos[j]),) + rest

    return tuple(rec(tuple(range(two_k))))


def filtered_pairings(letters):
    """Oracle: enumerate every pairing, then keep those joining equal letters."""
    return [m for m in all_pairings(len(letters))
            if all(letters[a] == letters[b] for a, b in m)]


class TestEnumerate:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_counts(self, k):
        ms = enumerate_matchings(2 * k)
        assert len(ms) == double_factorial(2 * k - 1)
        assert len(set(ms)) == len(ms)
        assert ms == list(all_pairings(2 * k))

    def test_deterministic_order(self):
        ms = enumerate_matchings(4)
        assert ms[0] == ((0, 1), (2, 3))
        assert ms == enumerate_matchings(4)

    def test_covering(self):
        for m in enumerate_matchings(6):
            assert sorted(x for pair in m for x in pair) == list(range(6))

    @pytest.mark.parametrize("bad", [3, 0, 14, -2])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            enumerate_matchings(bad)


class TestCompatible:
    def test_unequal_letters_cannot_pair(self):
        assert compatible_matchings(Word((1, 2), 2)) == []

    def test_two_pairs(self):
        assert compatible_matchings(Word((1, 1, 2, 2), 2)) == [((0, 1), (2, 3))]

    def test_crossing(self):
        assert compatible_matchings(Word((1, 2, 1, 2), 2)) == [((0, 2), (1, 3))]

    def test_rejects_time_letter(self):
        with pytest.raises(ValueError):
            compatible_matchings(Word((1, 0), 1))

    def test_rejects_odd_length(self):
        with pytest.raises(ValueError):
            compatible_matchings(Word((1, 1, 1), 1))

    @pytest.mark.parametrize("letters", [(1,) * 14, (1, 2) * 7])
    def test_rejects_fourteen_positions(self, letters):
        with pytest.raises(ValueError, match="at most 12 positions"):
            compatible_matchings(Word(letters, 2))

    def test_each_word_gets_its_own_list(self):
        # a caller changing its list must not change the next caller's
        word = Word((1, 2, 1, 2, 1, 1), 2)
        first = compatible_matchings(word)
        first.clear()
        assert compatible_matchings(word) == filtered_pairings(word.letters) != []

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_equals_filtered_enumeration_in_order(self, n):
        # every word over {1, 2, 3} of length n, against enumerate-then-filter
        for letters in itertools.product((1, 2, 3), repeat=n):
            assert compatible_matchings(Word(letters, 3)) == filtered_pairings(letters)


class TestPermutationCount:
    def test_all_equal_gives_factorial(self):
        assert permutation_count(Word((1, 1, 1, 1), 1)) == 24
        assert permutation_count(Word((1,) * 6, 1)) == math.factorial(6)

    @pytest.mark.parametrize("n", [14, 36])
    def test_odd_count_is_zero_at_any_length(self, n):
        # no compatible matching, so nothing is enumerated and the cap on
        # positions does not apply; it still applies to an even count
        assert permutation_count(Word((1,) * (n - 1) + (2,), 2)) == 0
        with pytest.raises(ValueError, match=f"at most 12 positions, got {n}"):
            permutation_count(Word((1,) * n, 1))
        with pytest.raises(ValueError, match="letter 0 is not allowed"):
            permutation_count(Word((0,) + (1,) * (n - 1), 1))

    def test_twelve_positions_six_letters(self):
        w = Word((1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6), 6)
        assert permutation_count(w) == math.factorial(6) * 2**6

    def test_twelve_positions_five_letters(self):
        w = Word((1, 1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5), 5)
        assert permutation_count(w) == (math.factorial(6) // 2) * 2**4 * math.factorial(4)

    def test_twelve_positions_concentrated_four_letters(self):
        w = Word((1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 4, 4), 4)
        assert permutation_count(w) == (
            math.factorial(6) // math.factorial(3)
        ) * 2**3 * math.factorial(6)

    @given(
        st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=6).filter(
            lambda xs: len(xs) % 2 == 0
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_relabel_and_reversal_invariance(self, letters):
        w = Word(tuple(letters), 3)
        relabeled = Word(tuple({1: 3, 2: 1, 3: 2}[x] for x in letters), 3)
        reversed_ = Word(tuple(reversed(letters)), 3)
        assert permutation_count(w) == permutation_count(relabeled)
        assert permutation_count(w) == permutation_count(reversed_)


class TestRefinedBound:
    def test_p_equals_k(self):
        assert refined_count_bound(6, 6) == math.factorial(6) * 2**6

    def test_k6_p4(self):
        assert refined_count_bound(6, 4) == (
            math.factorial(6) // math.factorial(3)
        ) * 2**3 * math.factorial(6)

    def test_zero_sentinel_above_k(self):
        assert refined_count_bound(3, 4) == 0

    def test_single_letter_matches_plain_bound(self):
        # p = 1 saturates: the bound equals (2k)!
        for k in range(1, 5):
            assert refined_count_bound(k, 1) == math.factorial(2 * k)

    def test_exhaustive_sweep_has_no_violations(self):
        assert bound_violation_sweep(max_two_k=8, d=3) == []


class TestDecompositionBijection:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_bijection(self, k):
        assert decomposition_bijection_check(k)

    def test_cardinality_identity(self):
        # |S_2k| = 2k(2k-1) |S_{2k-2}| is what the bijection encodes
        for k in (1, 2, 3):
            assert math.factorial(2 * k) == 2 * k * (2 * k - 1) * math.factorial(
                2 * k - 2
            )

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            decomposition_bijection_check(5)
