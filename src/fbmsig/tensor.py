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
    """A finite sequence of letters in {0, ..., d}; the empty word is allowed."""

    letters: tuple[int, ...]
    d: int

    def __post_init__(self):
        letters = tuple(map(int, self.letters))
        object.__setattr__(self, "letters", letters)
        if self.d < 1:
            raise ValueError(f"alphabet width d must be >= 1, got {self.d}")
        if letters and not (min(letters) >= 0 and max(letters) <= self.d):
            x = next(x for x in letters if not 0 <= x <= self.d)
            raise ValueError(f"letter {x} outside alphabet {{0,...,{self.d}}}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

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
    """All words of exactly the given length, lexicographic order."""
    for letters in itertools.product(range(d + 1), repeat=length):
        yield Word(letters, d)


def batch_grid_signatures(times, spatial: np.ndarray, depth: int) -> list[np.ndarray]:
    """Signatures of a batch of time-augmented piecewise-linear paths,
    vectorized over the batch.

    The paths share the breakpoints `times`; `spatial` holds their spatial
    values, shape (n_paths, len(times), d), and letter 0 is time.  Returns one
    array per level with shape (n_paths, (d+1)**level), indexed by
    word_index.  Chen's identity: each segment's exponential (level n holds
    dx^(x)n / n!) is folded into the running signature by the truncated
    tensor product.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    dt = np.broadcast_to(np.diff(times)[:, None], (len(spatial), len(times) - 1, 1))
    increments = np.concatenate([dt, np.diff(spatial, axis=1)], axis=2)
    S, r, dim = increments.shape
    lev = [np.zeros((S, dim**l)) for l in range(depth + 1)]
    lev[0][:, 0] = 1.0
    for seg in range(r):
        dx = increments[:, seg, :]
        ex = [np.ones((S, 1))]
        cur = np.ones((S, 1))
        for n in range(1, depth + 1):
            cur = (cur[:, :, None] * dx[:, None, :]).reshape(S, -1) / n
            ex.append(cur)
        new = []
        for l in range(depth + 1):
            acc = np.zeros((S, dim**l))
            for p in range(l + 1):
                acc += (lev[p][:, :, None] * ex[l - p][:, None, :]).reshape(S, -1)
            new.append(acc)
        lev = new
    return lev
