"""Expected signature of the uniform-grid piecewise-linear interpolation of fBm,
the gap to the exact value, convergence-rate experiments, and the explicit
bound constants.

The interpolation B^m on m cells of [0, 1] has piecewise-constant derivative,
so its expected iterated integrals reduce to finite sums over weakly
increasing cell assignments: the pairing expansion replaces the singular
kernel by exact cell-pair integrals of |x - y|^(2H-2).  Those sums are
evaluated by tie pattern (which neighbouring positions share a cell) as
strictly increasing chain sums over the cell kernel, which depends only on
the distance between two cells; every chain sum is a prefix-sum expression
costing O(m) or O(m^2), so the grid can grow to thousands of cells.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import matchings as mt
from .expected import check_hurst, expected_word
from .simplexquad import CertifiedValue, QuadConfig
from .tensor import Word

__all__ = [
    "cell_pair_integral",
    "cell_covariance_matrix",
    "approx_expected_word",
    "gap_rows",
    "GapResult",
    "convergence_slope",
    "SlopeFit",
    "constant_A",
    "constant_Atilde",
    "coefficient_bound_check",
    "BoundReport",
    "sample_fbm_batch",
]

_MAX_GRID = 4096
# approx_expected_word refuses more work than this, counted as (tie pattern,
# matching) terms times m^2; it admits m = 4096 for every four-letter word
_WORK_BUDGET = 500_000_000


def cell_pair_integral(i: int, j: int, m: int, H: float) -> float:
    """Integral of |x-y|^(2H-2) over cell_i x cell_j of the uniform m-grid.

    Closed form via the antiderivative u^(2H) / (2H(2H-1)); the diagonal cell
    gives m^(-2H)/(H(2H-1)), distance r >= 1 gives the second difference
    ((r+1)^2H - 2 r^2H + (r-1)^2H) m^(-2H) / (2H(2H-1)).
    """
    check_hurst(H)
    if not (0 <= i < m and 0 <= j < m):
        raise ValueError(f"cell index out of range: ({i}, {j}) for m={m}")
    two_h = 2.0 * H
    second_diff = float(_second_differences(H, np.array([abs(i - j)]))[0])
    return m**-two_h * second_diff / (two_h * (two_h - 1.0))


_SERIES_TERMS = 24


@functools.lru_cache(maxsize=64)
def _series_coefficients(H: float) -> np.ndarray:
    """c_j = 2 binom(2H, 2j), j = 1..24: (1+x)^2H + (1-x)^2H - 2 = sum c_j x^(2j).

    All are positive and carry the factor 2H(2H-1), so their sum keeps full
    relative precision as H -> 1/2.  Cached: the engine asks for one H at
    several grid sizes, so the array is read-only.
    """
    a = 2.0 * H
    c = np.empty(_SERIES_TERMS)
    b = a * (a - 1.0) / 2.0
    for j in range(1, _SERIES_TERMS + 1):
        c[j - 1] = 2.0 * b
        b *= (a - 2 * j) * (a - 2 * j - 1) / ((2 * j + 1) * (2 * j + 2))
    c.flags.writeable = False
    return c


def _second_differences(H: float, r: np.ndarray) -> np.ndarray:
    """(r+1)^2H - 2 r^2H + (r-1)^2H for integer cell distances r, with the
    diagonal value 2 at r = 0: cell_pair_integral up to m^(-2H)/(2H(2H-1)).

    The direct formula cancels to a relative error of about
    eps r^2 / (2H(2H-1)).  Instead r = 1 uses 2 expm1((2H-1) ln 2), and
    r >= 2 the series r^(2H-2) sum_j c_j r^(2-2j) in 1/r^2, truncated after
    24 terms (4^-24 at r = 2) and evaluated as one matrix-vector product.
    """
    r = np.asarray(r, dtype=float)
    d = np.where(r == 0, 2.0, 2.0 * math.expm1((2.0 * H - 1.0) * math.log(2.0)))
    far = r >= 2
    rf = r[far]
    powers = np.vander(1.0 / (rf * rf), _SERIES_TERMS, increasing=True)
    d[far] = rf ** (2.0 * H - 2.0) * (powers @ _series_coefficients(H))
    return d


def cell_covariance_matrix(H: float, m: int) -> np.ndarray:
    """m x m matrix of cell-pair kernel integrals for one (H, m)."""
    check_hurst(H)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    r = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    two_h = 2.0 * H
    return _second_differences(H, np.arange(m))[r] * (m**-two_h / (two_h * (two_h - 1.0)))


def _comb(x: np.ndarray, k: int) -> np.ndarray:
    """C(x, k) for integers x >= 0 held as floats: the product x (x-1) ...
    (x-k+1), exact below 2^53, over k!; 0 where k > x or k < 0."""
    if k < 0:
        return np.zeros_like(x)
    num = np.ones_like(x)
    for i in range(k):
        num = num * (x - i)
    return num / math.factorial(k)


def _chain_sum(r: int, edges, g: np.ndarray) -> float:
    """Sum over cells d_0 < ... < d_{r-1} of prod g[d_j - d_i]^p over the
    edges ((i, j), p), i < j, for a kernel g indexed by cell distance.

    One edge (i, j) is a sum over its distance t, weighted by the number of
    chains with d_j - d_i = t, C(t-1, j-i-1) C(m-t, r-j+i).  Two edges (each
    with p = 1, on r = 3 or 4 blocks) reduce, through the prefix sums
    G[n] = g[1] + ... + g[n] and S = cumsum(G), to one-dimensional sums; only
    the crossing pair (0,2),(1,3) keeps a sum over the middle distance q of
    sum_b C_q[b] C_q[m-1-q-b], where C_q are the prefix sums of g[q+1:].
    """
    m = len(g)
    if not edges:
        return float(math.comb(m, r))
    if len(edges) == 1:
        ((i, j), p), = edges
        dist = np.arange(1, m, dtype=float)
        weight = _comb(dist - 1.0, j - i - 1) * _comb(m - dist, r - (j - i))
        return float(np.dot(g[1:] ** p, weight))
    G = np.concatenate(([0.0], np.cumsum(g[1:])))
    shape = tuple(e for e, _ in edges)
    if shape == ((0, 1), (1, 2)):
        return float(np.dot(G, G[::-1]))
    if shape in (((0, 1), (0, 2)), ((0, 2), (1, 2))):
        dist = np.arange(1, m)
        return float(np.dot((m - dist) * g[1:], G[:-1]))
    if shape == ((0, 1), (2, 3)):
        return float(np.dot(np.cumsum(G)[:-1], G[-2::-1]))
    if shape == ((0, 3), (1, 2)):
        dist = np.arange(2, m)
        return float(np.dot((m - dist) * g[2:], np.cumsum(G)[: m - 2]))
    if shape == ((0, 2), (1, 3)):
        total = 0.0
        for q in range(1, m - 1):
            C = np.concatenate(([0.0], np.cumsum(g[q + 1 :])))
            total += float(np.dot(C, C[::-1]))
        return total
    raise ValueError(f"no chain sum for edges {shape}")


def approx_expected_word(word: Word, H: float, m: int) -> float:
    """Exact expected iterated-integral coefficient of B^m for a pure-fBm word.

    The value is, per compatible matching, a sum over weakly increasing cell
    assignments c_1 <= ... <= c_2k: the piecewise-constant pairing density
    contributes prod H(2H-1) m^2 D[c_a][c_b], and the ordered volume inside
    the cell box is prod over tie runs of (1/m)^s / s!.  It is summed by tie
    pattern instead: each of the 2^(2k-1) patterns of runs, weighted by
    m^(-2k) / prod s!, leaves a strictly increasing chain of distinct cells,
    and each (pattern, matching) chain sum costs at most O(m^2); the total
    is capped by _WORK_BUDGET.
    """
    check_hurst(H)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    letters = word.letters
    if not letters or any(x == 0 for x in letters):
        raise ValueError(
            f"approximation values are defined for pure-fBm words, got word ({word})")
    if len(letters) % 2 != 0:
        return 0.0
    two_k = len(letters)
    if two_k > 4:
        raise ValueError(f"word length capped at 4 (grid approximation), got word ({word})")
    matchings_ = mt.compatible_matchings(word)
    work = 2 ** (two_k - 1) * len(matchings_) * m * m
    if work > _WORK_BUDGET:
        raise ValueError(f"grid work {work} exceeds budget {_WORK_BUDGET} at m={m}")
    g = 0.5 * m ** (2.0 - 2.0 * H) * _second_differences(H, np.arange(m))
    # (blocks, edges between blocks) -> summed weight; a pair inside one
    # block contributes the diagonal kernel value g[0]
    weights: dict = {}
    for cuts in itertools.product((0, 1), repeat=two_k - 1):
        # a tie pattern: position i lies in block (number of cuts before i)
        block = list(itertools.accumulate(cuts, initial=0))
        sizes = [block.count(b) for b in range(block[-1] + 1)]
        run_weight = 1.0 / math.prod(math.factorial(s) for s in sizes)
        for matching in matchings_:
            loops, edges = 0, {}
            for a, b in matching:
                if block[a] == block[b]:
                    loops += 1
                else:
                    edges[block[a], block[b]] = edges.get((block[a], block[b]), 0) + 1
            key = (len(sizes), tuple(sorted(edges.items())))
            weights[key] = weights.get(key, 0.0) + run_weight * g[0] ** loops
    total = sum(w * _chain_sum(r, edges, g) for (r, edges), w in weights.items())
    return total * float(m) ** -two_k


class GapResult(NamedTuple):
    gap: float
    err_bar: float
    exact: float
    approx: float


def gap_rows(
    word: Word, H: float, m_list, config: QuadConfig | None = None
) -> tuple[tuple[int, GapResult], ...]:
    """(m, gap) for each distinct grid size in ascending order; the exact
    value is computed once and shared by every row."""
    exact, err = expected_word(word, H, config)
    rows = []
    for m in sorted({int(x) for x in m_list}):
        approx = approx_expected_word(word, H, m)
        rows.append((m, GapResult(abs(exact - approx), err, exact, approx)))
    return tuple(rows)


@dataclass(frozen=True)
class SlopeFit:
    ok: bool
    slope: float
    residual: float
    reason: str = ""


def convergence_slope(rows) -> SlopeFit:
    """Least-squares slope of log(gap) versus log(m) over gap_rows output.

    Points whose gap sits below 10x the quadrature error bar are refused so
    that quadrature noise is never fitted as signal; a degenerate fit is
    reported, not silently returned.
    """
    if len({m for m, _ in rows}) < 4:
        raise ValueError("need at least 4 distinct grid sizes to fit a rate")
    usable = [(m, g.gap) for m, g in rows if g.gap > 10.0 * g.err_bar]
    if len({m for m, _ in usable}) < 4:
        if all(g.gap <= 1e-14 for _, g in rows):
            reason = "gap identically zero"
        else:
            reason = "gaps at or below the quadrature noise floor"
        return SlopeFit(
            ok=False,
            slope=float("nan"),
            residual=float("nan"),
            reason=reason,
        )
    lm = np.log([m for m, _ in usable])
    lg = np.log([g for _, g in usable])
    slope, intercept = np.polyfit(lm, lg, 1)
    resid = float(np.sqrt(np.mean((lg - (slope * lm + intercept)) ** 2)))
    return SlopeFit(
        ok=True,
        slope=float(slope),
        residual=resid,
    )


# ---------------------------------------------------------------------------
# bound constants
# ---------------------------------------------------------------------------


# B_2, B_4, ..., B_14 over (2k)!: the Euler-Maclaurin corrections of _zeta.
_EM_COEFFS = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6), start=1))


def _zeta(s: float) -> float:
    """Riemann zeta(s) for 1 < s <= 2 by Euler-Maclaurin at n = 12: the 11
    terms below 12, the tail integral and half term at 12, and 7 Bernoulli
    corrections, whose remainder is below 1e-17."""
    n = 12
    terms = [j**-s for j in range(1, n)]
    terms += [n ** (1.0 - s) / (s - 1.0), 0.5 * n**-s]
    rising = s  # s (s+1) ... (s+2k-2)
    for k, c in enumerate(_EM_COEFFS, start=1):
        terms.append(c * rising * n ** (1.0 - s - 2 * k))
        rising *= (s + 2 * k - 1) * (s + 2 * k)
    return math.fsum(terms)


# Four times the worst relative error of _zeta(3 - 2H) against mpmath at 40
# digits over 4,004 values of H in [0.5001, 0.99999999] (2.1e-16),
# rounded up.
_ZETA_REL_ERR = 1e-15
# Relative allowance for rounding in the A and A-tilde formulas themselves:
# over four times their worst relative error against mpmath at 40 digits over
# 2,000 values of H in [0.5001, 0.9999] (3.5e-16).
_FORMULA_REL_ERR = 2e-15


def constant_A(H: float) -> CertifiedValue:
    """The explicit gap-bound constant

    A = 2( 1/(H(2H-1)) + (2^2H + 2)/(H(2H-1)) + (4-4H) sum i^(2H-3) )
        + (3^2H + 10*2^2H + 2) / (2H(2H-1)),

    with sum_{i>=1} i^(2H-3) = zeta(3 - 2H).
    """
    check_hurst(H)
    coef = 2.0 * (4.0 - 4.0 * H)
    S = _zeta(3.0 - 2.0 * H)
    hh = H * (2.0 * H - 1.0)
    two_h = 2.0 * H
    a = 2.0 * (1.0 / hh + (2.0**two_h + 2.0) / hh + (4.0 - 4.0 * H) * S)
    a += (3.0**two_h + 10.0 * 2.0**two_h + 2.0) / (2.0 * hh)
    return CertifiedValue(a, coef * (_ZETA_REL_ERR * S) + _FORMULA_REL_ERR * a)


def constant_Atilde(H: float) -> CertifiedValue:
    """A-tilde = 8 A H (2H-1), by its direct expansion
    56(1+2^2H) + 4*3^2H + 16H(2H-1)(4-4H) zeta(3 - 2H)."""
    check_hurst(H)
    coef = 16.0 * H * (2.0 * H - 1.0) * (4.0 - 4.0 * H)
    S = _zeta(3.0 - 2.0 * H)
    two_h = 2.0 * H
    direct = 56.0 * (1.0 + 2.0**two_h) + 4.0 * 3.0**two_h + coef * S
    return CertifiedValue(direct, coef * (_ZETA_REL_ERR * S) + _FORMULA_REL_ERR * direct)


@dataclass(frozen=True)
class BoundReport:
    atilde: CertifiedValue
    bound: float
    max_scaled_gap: float
    rows: tuple[tuple[int, float, float], ...]  # (m, gap, m^2H * gap)
    passed: bool


def coefficient_bound_check(word: Word, H: float, rows) -> BoundReport:
    """Compare max_m m^2H * gap over gap_rows output against the uniform
    coefficient bound A-tilde * k(2k-1) / ((k-1)! 2^k)."""
    k = len(word.letters) // 2
    if k < 1:
        raise ValueError(f"coefficient bound needs at least 2 letters, got word ({word})")
    at = constant_Atilde(H)
    bound = at.value * k * (2 * k - 1) / (math.factorial(k - 1) * 2**k)
    scaled = tuple((m, g.gap, m ** (2.0 * H) * g.gap) for m, g in rows)
    max_scaled = max(r[2] for r in scaled)
    return BoundReport(
        atilde=at,
        bound=bound,
        max_scaled_gap=max_scaled,
        rows=scaled,
        passed=max_scaled <= bound,
    )


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def sample_fbm_batch(
    H: float, m: int, d: int, n_paths: int, seed: int, T: float = 1.0
) -> np.ndarray:
    """n_paths independent d-dimensional fBm paths on the uniform m-grid of
    [0, T], shape (n_paths, m+1, d), row 0 identically zero.

    The grid covariance factors as chol(C) = A chol(S), where S is the
    Toeplitz covariance of the increments (fractional Gaussian noise) and A
    the cumulative sum, so the paths are the cumulative sums of chol(S) z.
    chol(S) comes from the O(m^2) Schur recursion (Hosking's method) and is
    applied to every (path, coordinate) row of z by one matrix product.
    Deterministic in the seed.
    """
    check_hurst(H)
    if m > _MAX_GRID:
        raise ValueError(f"m capped at {_MAX_GRID}")
    if m < 1 or n_paths < 1 or d < 1:
        raise ValueError("m, d and n_paths must be positive")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    z = np.random.default_rng(seed).standard_normal((n_paths, d, m))
    increments = (z.reshape(-1, m) @ _fgn_cholesky_t(H, m, T)).reshape(n_paths, d, m)
    paths = np.zeros((n_paths, m + 1, d))
    np.cumsum(increments.transpose(0, 2, 1), axis=1, out=paths[:, 1:])
    return paths


def _fgn_cholesky_t(H: float, m: int, T: float) -> np.ndarray:
    """U = L^T, where L L^T = S is the Toeplitz covariance of the m increments
    of fBm over cells of width T/m, by the Schur recursion in O(m^2).

    S has first column gamma_k = (T/m)^2H (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2.
    The generators (a, b) satisfy S - Z S Z^T = a a^T - b b^T (Z the down
    shift); row k of U is a, after which a is shifted down one place and a
    hyperbolic rotation by rho = b[k+1] / a[k] zeroes b[k+1].  |rho| < 1 at
    every step exactly when S is positive definite, so anything else raises.
    """
    try:
        scale = (T / m) ** (2.0 * H)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"T = {T} puts the covariance scale (T/m)^2H out of range")
    gamma = 0.5 * scale * _second_differences(H, np.arange(m))
    a = gamma / math.sqrt(gamma[0])
    b = a.copy()
    b[0] = 0.0
    U = np.zeros((m, m))
    for k in range(m - 1):
        U[k, k:] = a[k:]
        rho = b[k + 1] / a[k]
        if not abs(rho) < 1.0:
            raise RuntimeError(f"fGn covariance is not positive definite at step {k}")
        c = math.sqrt((1.0 - rho) * (1.0 + rho))
        shifted = a[k : m - 1]
        tail = b[k + 1 :]
        a[k + 1 :], b[k + 1 :] = (shifted - rho * tail) / c, (tail - rho * shifted) / c
    U[m - 1, m - 1] = a[m - 1]
    return U
