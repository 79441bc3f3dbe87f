"""Independent oracles that only the tests use: a nested-quadrature signature
coefficient and an exhaustive sweep of the refined permutation-count bound."""
from __future__ import annotations

import itertools

import numpy as np

from fbmsig.matchings import permutation_count, refined_count_bound
from fbmsig.tensor import PiecewiseLinearPath, Word


def signature_coeff_by_quadrature(
    path: PiecewiseLinearPath, word: Word, points_per_segment: int = 2000
) -> float:
    """Iterated-integral coefficient by direct nested trapezoid quadrature,
    independent of the Chen-identity code path."""
    times = np.asarray(path.times)
    grids = []
    for j in range(len(times) - 1):
        g = np.linspace(times[j], times[j + 1], points_per_segment + 1)
        grids.append(g if j == 0 else g[1:])
    t = np.concatenate(grids)
    # piecewise-linear interpolation of every coordinate on the fine grid
    coords = np.stack(
        [np.interp(t, times, path.values[:, c]) for c in range(path.d + 1)], axis=1
    )
    F = np.ones_like(t)
    for letter in word.letters:
        x = coords[:, letter]
        dF = 0.5 * (F[1:] + F[:-1]) * np.diff(x)
        F = np.concatenate([[0.0], np.cumsum(dF)])
    return float(F[-1])


def bound_violation_sweep(max_two_k: int = 8, d: int = 3) -> list[tuple]:
    """Every (word, count, bound) with permutation_count above
    refined_count_bound, over all words with nonzero letters up to the given
    size; expected empty."""
    bad = []
    for two_k in range(2, max_two_k + 1, 2):
        k = two_k // 2
        for letters in itertools.product(range(1, d + 1), repeat=two_k):
            w = Word(letters, d)
            c = permutation_count(w)
            b = refined_count_bound(k, len(set(letters)))
            if c > b:
                bad.append((w, c, b))
    return bad
