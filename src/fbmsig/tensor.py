"""Truncated tensor algebra over a time-augmented alphabet and exact signatures
of piecewise-linear paths.

Letters run over {0, ..., d} where letter 0 is the time coordinate and letters
1..d are the spatial coordinates.  Coefficients are stored densely per level,
indexed by the base-(d+1) encoding of the word, which keeps every operation a
plain numpy computation (at desk scale (d+1)^depth stays in the low thousands).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Word",
    "TruncatedTensor",
    "PiecewiseLinearPath",
    "path_signature",
    "batch_grid_signatures",
    "all_words",
]


@dataclass(frozen=True)
class Word:
    """A finite sequence of letters in {0, ..., d}; the empty word is allowed."""

    letters: tuple[int, ...]
    d: int

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(int(x) for x in self.letters))
        if self.d < 1:
            raise ValueError(f"alphabet width d must be >= 1, got {self.d}")
        for x in self.letters:
            if not 0 <= x <= self.d:
                raise ValueError(f"letter {x} outside alphabet {{0,...,{self.d}}}")

    @classmethod
    def parse(cls, text: str, d: int | None = None) -> "Word":
        """Parse a comma-separated letter string such as "1,0,1"."""
        text = text.strip()
        letters = tuple(int(t) for t in text.split(",")) if text else ()
        if d is None:
            d = max(1, max(letters, default=1))
        return cls(letters, d)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.letters)

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


class TruncatedTensor:
    """Graded coefficients, one float per word of length <= depth.

    Instances are treated as immutable after construction: the levels are
    filled once, by whoever builds the tensor.
    """

    __slots__ = ("d", "depth", "levels")

    def __init__(self, d: int, depth: int, levels: list[np.ndarray] | None = None):
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        if d < 1:
            raise ValueError(f"alphabet width d must be >= 1, got {d}")
        self.d = d
        self.depth = depth
        if levels is None:
            levels = [np.zeros((d + 1) ** l) for l in range(depth + 1)]
        if len(levels) != depth + 1:
            raise ValueError("level count does not match depth")
        self.levels = levels

    def coeff(self, word: Word) -> float:
        if len(word) > self.depth:
            return 0.0
        return float(self.levels[len(word)][word_index(word.letters, self.d)])

    def __repr__(self) -> str:
        return f"TruncatedTensor(d={self.d}, depth={self.depth})"


@dataclass(frozen=True)
class PiecewiseLinearPath:
    """Time-augmented piecewise-linear path.

    ``times`` are strictly increasing breakpoints; ``values`` has one row per
    breakpoint and d+1 columns, column 0 being the time coordinate itself.
    """

    times: tuple[float, ...]
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.ndim != 1 or len(times) < 2:
            raise ValueError("need at least 2 breakpoints")
        if np.any(np.diff(times) <= 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if values.shape != (len(times), values.shape[1]) or values.shape[1] < 2:
            raise ValueError("values must be (n_breakpoints, d+1) with d >= 1")
        if not np.allclose(values[:, 0], times, rtol=0, atol=1e-12):
            raise ValueError("coordinate 0 must equal the time coordinate")
        object.__setattr__(self, "times", tuple(float(t) for t in times))
        object.__setattr__(self, "values", values)

    @classmethod
    def time_augmented(cls, times, spatial) -> "PiecewiseLinearPath":
        """Build from spatial values only; prepends the time coordinate."""
        times = np.asarray(times, dtype=float)
        spatial = np.asarray(spatial, dtype=float)
        if spatial.ndim == 1:
            spatial = spatial[:, None]
        values = np.concatenate([times[:, None], spatial], axis=1)
        return cls(tuple(times), values)

    @property
    def d(self) -> int:
        return self.values.shape[1] - 1

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.values, axis=0)


def path_signature(path: PiecewiseLinearPath, depth: int) -> TruncatedTensor:
    """Exact signature of a piecewise-linear path: batch_grid_signatures on a
    batch of one."""
    levels = batch_grid_signatures(path.increments[None], depth)
    return TruncatedTensor(path.d, depth, [lv[0] for lv in levels])


def batch_grid_signatures(increments: np.ndarray, depth: int) -> list[np.ndarray]:
    """Signatures of a batch of piecewise-linear paths, vectorized over the batch.

    increments: (n_paths, n_segments, d+1).  Returns one array per level with
    shape (n_paths, (d+1)**level).  Chen's identity: each segment's
    exponential (level n holds dx^(x)n / n!) is folded into the running
    signature by the truncated tensor product.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
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
