"""Perfect matchings, word compatibility and permutation counting.

This is the combinatorial layer under every Gaussian moment expansion used in
the package: an even moment E(G_1 ... G_2k) is a sum over perfect matchings of
{0, ..., 2k-1}, each matching standing for k! 2^k permutations.

Positions are 0-based throughout.
"""
from __future__ import annotations

import itertools
import math

from .tensor import Word

__all__ = [
    "Matching",
    "enumerate_matchings",
    "compatible_matchings",
    "permutation_count",
    "refined_count_bound",
    "decomposition_bijection_check",
]

# A matching is a tuple of (a, b) pairs with a < b, sorted by a: disjoint pairs
# covering {0, ..., 2k-1}.
Matching = tuple[tuple[int, int], ...]

_MAX_TWO_K = 12


def enumerate_matchings(two_k: int) -> list[Matching]:
    """All (2k-1)!! perfect matchings of {0, ..., two_k-1}, deterministic order:
    the compatible matchings of a word whose letters are all equal."""
    if two_k % 2 != 0:
        raise ValueError(f"need an even number of positions, got {two_k}")
    if not 2 <= two_k <= _MAX_TWO_K:
        raise ValueError(f"two_k must be in [2, {_MAX_TWO_K}], got {two_k}")
    return compatible_matchings(Word((1,) * two_k, 1))


def compatible_matchings(word: Word) -> list[Matching]:
    """Matchings of the word's positions in which every pair joins equal letters.

    Recursion pairs the smallest unmatched position with each larger position
    holding the same letter, so the output order is stable across runs.  The
    word must have even length and contain no time letter (0); callers strip
    time positions first so this layer stays purely Gaussian.  Nothing is
    kept: each caller that asks a word again (the expected-value word plan,
    the grid tie table) keeps what it builds from the matchings.
    """
    letters = word.letters
    if any(x == 0 for x in letters):
        raise ValueError("letter 0 is not allowed here; strip time positions first")
    if len(letters) % 2 != 0:
        raise ValueError(f"word length must be even, got {len(letters)}")
    if len(letters) > _MAX_TWO_K:
        raise ValueError(f"at most {_MAX_TWO_K} positions, got {len(letters)}")

    def rec(pos: tuple[int, ...]):
        if not pos:
            yield ()
            return
        a = pos[0]
        for j in range(1, len(pos)):
            b = pos[j]
            if letters[b] == letters[a]:
                for rest in rec(pos[1:j] + pos[j + 1 :]):
                    yield ((a, b),) + rest

    return list(rec(tuple(range(len(letters)))))


def permutation_count(word: Word) -> int:
    """Number of permutations of the positions whose consecutive pairs all join
    equal letters: k! 2^k times the number of compatible matchings.  A word in
    which some letter occurs an odd number of times has none, whatever its
    length."""
    letters = word.letters
    if 0 not in letters and any(letters.count(x) % 2 for x in set(letters)):
        return 0
    k = len(letters) // 2
    return math.factorial(k) * 2**k * len(compatible_matchings(word))


def refined_count_bound(k: int, p: int) -> int:
    """Upper bound on permutation_count for a word of k pairs using p distinct
    letters: k! 2^(p-1) (2(k-p+1))! / (k-p+1)!.  Returns 0 for p > k, where no
    compatible pairing exists at all."""
    if not 1 <= p:
        raise ValueError(f"p must be >= 1, got {p}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if p > k:
        return 0
    s = k - p + 1
    return math.factorial(k) * 2 ** (p - 1) * math.factorial(2 * s) // math.factorial(s)


def _expand_pair(s1: int, s2: int, tau: tuple[int, ...]) -> tuple[int, ...]:
    """Insert the ordered pair (s1, s2) in front of tau, relabeling tau's values
    into {0,...,2k-1} \\ {s1, s2} while preserving their relative order."""
    lo, hi = (s1, s2) if s1 < s2 else (s2, s1)
    mapped = []
    for x in tau:
        if x < lo:
            mapped.append(x)
        elif x < hi - 1:
            mapped.append(x + 1)
        else:
            mapped.append(x + 2)
    return (s1, s2) + tuple(mapped)


def decomposition_bijection_check(k: int) -> bool:
    """Exhaustively verify that (ordered pair of distinct indices) x S_{2k-2}
    maps bijectively onto S_{2k} under the pair-insertion rule, with every
    fiber over a reduced permutation having size exactly 2k(2k-1)."""
    if not 1 <= k <= 4:
        raise ValueError(f"k must be in [1, 4] (enumeration cost), got {k}")
    two_k = 2 * k
    seen: dict[tuple[int, ...], tuple] = {}
    fiber: dict[tuple[int, ...], int] = {}
    for s1, s2 in itertools.permutations(range(two_k), 2):
        for tau in itertools.permutations(range(two_k - 2)):
            sigma = _expand_pair(s1, s2, tau)
            if sorted(sigma) != list(range(two_k)):
                return False
            if sigma in seen:
                return False
            seen[sigma] = (s1, s2, tau)
            fiber[tau] = fiber.get(tau, 0) + 1
    if len(seen) != math.factorial(two_k):
        return False
    return all(v == two_k * (two_k - 1) for v in fiber.values())
