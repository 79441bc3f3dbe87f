"""Truncated tensor algebra over a time-augmented alphabet and exact signatures
of piecewise-linear paths.

Letters run over {0, ..., d} where letter 0 is the time coordinate and letters
1..d are the spatial coordinates.  Coefficients are stored densely per level,
indexed by the base-(d+1) encoding of the word, which keeps every operation a
plain numpy computation (at desk scale (d+1)^depth stays in the low thousands).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Word",
    "batch_grid_signatures",
    "all_words",
]


@dataclass(frozen=True)
class Word:
    """A finite sequence of non-negative integer letters, 0 the time letter;
    the empty word is allowed."""

    letters: tuple[int, ...]

    def __post_init__(self):
        letters = tuple(map(int, self.letters))
        object.__setattr__(self, "letters", letters)
        if letters and min(letters) < 0:
            x = next(x for x in letters if x < 0)
            raise ValueError(f"letter {x} is negative")

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return ",".join(map(str, self.letters))

    @property
    def zero_count(self) -> int:
        return sum(1 for x in self.letters if x == 0)

    @property
    def nonzero_positions(self) -> tuple[int, ...]:
        return tuple(i for i, x in enumerate(self.letters) if x != 0)


def word_index(letters, d: int) -> int:
    idx = 0
    for x in letters:
        idx = idx * (d + 1) + x
    return idx


def all_words(d: int, length: int):
    """All words of exactly the given length over {0, ..., d}, d >= 1, in
    lexicographic order."""
    if d < 1:
        raise ValueError(f"alphabet width d must be >= 1, got {d}")
    for letters in itertools.product(range(d + 1), repeat=length):
        yield Word(letters)


def batch_grid_signatures(times, spatial: np.ndarray, depth: int) -> list[np.ndarray]:
    """Signatures of a batch of time-augmented piecewise-linear paths,
    vectorized over the batch.

    The paths share the breakpoints `times`; `spatial` holds their spatial
    values, shape (n_paths, len(times), d), and letter 0 is time.  Returns one
    array per level with shape (n_paths, (d+1)**level), indexed by
    word_index; with a single breakpoint, the identity.  Chen's identity:
    each piece's exponential (level n holds dx^(x)n / n!) is folded into the
    running signature by the truncated tensor product.  The first piece's
    exponential is its signature, and a later piece's level l is
    ex[l] + sum_{p=1}^{l-1} lev[p] (x) ex[l-p] + lev[l] in that order, the
    products with the unit levels lev[0] = ex[0] = 1 left out: for finite
    input, equal to folding every piece into the identity (tests/oracles.py).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    spatial = np.asarray(spatial)
    S, r, dim = spatial.shape[0], spatial.shape[1] - 1, spatial.shape[2] + 1
    increments = np.empty((S, r, dim))
    increments[:, :, 0] = np.diff(times)
    increments[:, :, 1:] = spatial[:, 1:] - spatial[:, :-1]
    lev = [np.ones((S, 1))] + [np.zeros((S, dim**l)) for l in range(1, depth + 1)]
    for seg in range(r):
        dx = increments[:, seg, None, :]
        ex = lev[:1]
        for n in range(1, depth + 1):
            ex.append((ex[-1][:, :, None] * dx).reshape(S, -1) / n)
        if seg:
            # top level first: ex[l] takes the fold in place once no higher
            # level reads it
            heads = [lv[:, :, None] for lv in lev]
            tails = [e[:, None, :] for e in ex]
            for l in range(depth, 0, -1):
                acc = ex[l]
                for p in range(1, l):
                    acc += (heads[p] * tails[l - p]).reshape(S, -1)
                acc += lev[l]
        lev = ex
    return lev
