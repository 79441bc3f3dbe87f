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
costing O(m), so the grid can grow to 2^18 cells.  What does not depend on
H is built once per grid size and kept for grids of up to 1024 cells (at
most 5 MiB): the chain weights and the crossing sum's weights and indices.
The kernel's series powers are rows of one table of 256 rows (48 KiB),
which the sampler's covariances share.
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

# approx_expected_word, the sampler and the Monte-Carlo reference refuse
# grids of more cells than this (_check_cells); at the ceiling 1,1,1,1 takes
# about 0.2 s and 60 MiB, most of it the kernel's series powers
_MAX_CELLS = 2**18


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


def _second_differences(H: float, n: int) -> np.ndarray:
    """(r+1)^2H - 2 r^2H + (r-1)^2H for the integer cell distances
    r = 0..n-1, with the diagonal value 2 at r = 0: the integral of
    |x-y|^(2H-2) over two cells of the uniform m-grid r apart, up to the
    factor m^(-2H)/(2H(2H-1)).

    The direct formula cancels to a relative error of about
    eps r^2 / (2H(2H-1)).  Instead r = 1 uses 2 expm1((2H-1) ln 2), and
    r >= 2 the series r^(2H-2) sum_j c_j r^(2-2j) in 1/r^2, truncated after
    24 terms (4^-24 at r = 2) and evaluated as one matrix-vector product
    with the rows of _series_powers.
    """
    d = np.full(n, 2.0 * math.expm1((2.0 * H - 1.0) * math.log(2.0)))
    d[:1] = 2.0
    rf = np.arange(2.0, n)
    d[2:] = rf ** (2.0 * H - 2.0) * (_series_powers(len(rf)) @ _series_coefficients(H))
    return d


# The powers depend on the distance only, so the kernels of up to
# _POWER_ROWS + 2 distances slice their rows from one table of _POWER_ROWS
# rows (48 KiB).  Longer kernels build their rows afresh: a kept table of
# 2048 rows (384 KiB) raised the peak RSS of a benchmark stream of
# long-grid sde requests by about 0.4 MB.
_POWER_ROWS = 256
_POWER_BLOCK = 4096


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=1)
def _power_table(rows: int) -> np.ndarray:
    """(1/r^2)^j for r = 2..rows+1, one row each, and j = 0..23;
    read-only.  Column j is column j-1 times 1/r^2, the products of
    np.vander(1/r^2, 24, increasing=True), taken a column at a time over
    blocks of _POWER_BLOCK rows (768 KiB), which stay in cache: 0.22 ms at
    4094 rows and 27 ms at 262142 against 0.42 and 50 ms for np.vander,
    which accumulates along each row."""
    r = np.arange(2.0, rows + 2)
    x = 1.0 / (r * r)
    table = np.empty((rows, _SERIES_TERMS))
    table[:, 0] = 1.0
    table[:, 1] = x
    for start in range(0, rows, _POWER_BLOCK):
        block, xb = table[start:start + _POWER_BLOCK], x[start:start + _POWER_BLOCK]
        for j in range(2, _SERIES_TERMS):
            np.multiply(block[:, j - 1], xb, out=block[:, j])
    return _read_only(table)


def _series_powers(rows: int) -> np.ndarray:
    """The rows of the power table for r = 2..rows+1."""
    if rows > _POWER_ROWS:
        return _power_table.__wrapped__(rows)
    return _power_table(_POWER_ROWS)[:rows]


def _comb(x: np.ndarray, k: int) -> np.ndarray:
    """C(x, k) for integers x >= 0 held as floats: the product x (x-1) ...
    (x-k+1), exact below 2^53, over k!; 0 where k > x or k < 0."""
    if k < 0:
        return np.zeros_like(x)
    num = np.ones_like(x)
    for i in range(k):
        num = num * (x - i)
    return num / math.factorial(k)


class _Cells:
    """The arrays of the uniform m-cell grid that the chain sums read and
    that do not depend on H, each built on first use and read-only."""

    def __init__(self, m: int):
        self.m = m
        self._chain_weights: dict = {}

    def chain_weights(self, r: int, span: int) -> np.ndarray:
        """C(t-1, span-1) C(m-t, r-span) for t = 1..m-1: the number of
        chains of r cells whose cells i and i + span lie t apart."""
        key = (r, span)
        if key not in self._chain_weights:
            dist = np.arange(1.0, self.m)
            self._chain_weights[key] = _read_only(
                _comb(dist - 1.0, span - 1) * _comb(self.m - dist, r - span))
        return self._chain_weights[key]

    @functools.cached_property
    def rest(self) -> np.ndarray:
        """m - t for t = 1..m-1."""
        return _read_only(self.m - np.arange(1.0, self.m))

    @functools.cached_property
    def crossing(self) -> tuple[np.ndarray, ...]:
        """The arrays of _crossing_sum over d = 2..m-1: the weights d - 1,
        d(d-1)/2 and (m-d-1)(m-d)/2; the indices min(d-1, m-d) and
        max(d, m-d) - 1; and t(m-d) - t(t+1)/2, t = max(min(d-1, m-d-1), 0)."""
        m = self.m
        d = np.arange(2, m)
        rest = self.rest[1:]  # m - d
        t = np.maximum(np.minimum(d - 1, m - d - 1), 0).astype(float)
        return tuple(map(_read_only, (
            d - 1.0, 0.5 * d * (d - 1.0), np.minimum(d - 1, m - d),
            0.5 * (rest - 1.0) * rest, np.maximum(d, m - d) - 1,
            t * rest - 0.5 * t * (t + 1.0))))


# One _Cells per grid size of up to _MEMO_CELLS cells, for the 64 most recent
# sizes; larger grids build theirs per call.  An entry holds at most 10
# arrays of fewer than m doubles or indices: the chain weights of the three
# one-edge shapes that words of up to four letters reach ((r, span) = (2, 1),
# (3, 1), (3, 2)), m - t, and the six of the crossing sum.  So the memo
# retains at most 64 x 10 x 8 x 1024 bytes (5 MiB) of arrays; the sizes
# 4..64 of the benchmark's grid workload take about 0.3 MB.
_MEMO_CELLS = 1024


@functools.lru_cache(maxsize=64)
def _grid_cells(m: int) -> _Cells:
    return _Cells(m)


def _cells(m: int) -> _Cells:
    """The H-independent arrays of the m-cell grid: from the memo up to
    _MEMO_CELLS cells, built afresh above."""
    return _grid_cells(m) if m <= _MEMO_CELLS else _Cells(m)


class _ChainSums:
    """The chain sums of one kernel g indexed by cell distance, on the
    m-cell grid, m = len(g): each reads the grid's H-independent arrays
    (_cells) and the prefix sums G[n] = g[1] + ... + g[n] and S = cumsum(G),
    which are formed once."""

    def __init__(self, g: np.ndarray):
        self.g, self.cells = g, _cells(len(g))

    @functools.cached_property
    def G(self) -> np.ndarray:
        return np.concatenate(([0.0], np.cumsum(self.g[1:])))

    @functools.cached_property
    def S(self) -> np.ndarray:
        return np.cumsum(self.G)

    def __call__(self, r: int, edges) -> float:
        """Sum over cells d_0 < ... < d_{r-1} of prod g[d_j - d_i]^p over
        the edges ((i, j), p), i < j.

        One edge (i, j) is a sum over its distance t, weighted by the number
        of chains with d_j - d_i = t (_Cells.chain_weights).  Two edges (each
        with p = 1, on r = 3 or 4 blocks) reduce, through G and S, to
        one-dimensional sums; the crossing pair (0,2),(1,3) is
        _crossing_sum.  Each costs O(m).
        """
        g, m = self.g, len(self.g)
        if not edges:
            return float(math.comb(m, r))
        if len(edges) == 1:
            ((i, j), p), = edges
            return float(np.dot(g[1:] ** p, self.cells.chain_weights(r, j - i)))
        shape = tuple(e for e, _ in edges)
        if shape == ((0, 1), (1, 2)):
            return float(np.dot(self.G, self.G[::-1]))
        if shape in (((0, 1), (0, 2)), ((0, 2), (1, 2))):
            return float(np.dot(self.cells.rest * g[1:], self.G[:-1]))
        if shape == ((0, 1), (2, 3)):
            return float(np.dot(self.S[:-1], self.G[-2::-1]))
        if shape == ((0, 3), (1, 2)):
            return float(np.dot(self.cells.rest[1:] * g[2:], self.S[: m - 2]))
        if shape == ((0, 2), (1, 3)):
            return _crossing_sum(g, self.cells)
        raise ValueError(f"no chain sum for edges {shape}")


def _crossing_sum(g: np.ndarray, cells: _Cells) -> float:
    """Sum over cells d_0 < d_1 < d_2 < d_3 of g[d_2 - d_0] g[d_3 - d_1],
    cells those of the m-grid, m = len(g).

    With k = d_2 - d_0 and l = d_3 - d_1, the chains number
    W(k, l) = sum_{a=1}^{k-1} (m - a - l)_+ for k <= l, and W is symmetric,
    so the sum is sum_k g[k]^2 W(k, k) + 2 sum_{2<=k<l} g[k] g[l] W(k, l):

    * k < l, k + l <= m: W = (k-1)(m-l) - k(k-1)/2, summed over k for each l
      by the prefix sums P1, P2 of (k-1) g[k] and k(k-1)/2 g[k];
    * k < l, k + l > m: W = (m-l-1)(m-l)/2, summed over l for each k by the
      suffix sums S of (m-l-1)(m-l)/2 g[l];
    * k = l: W = t(m-k) - t(t+1)/2 with t = max(min(k-1, m-k-1), 0).

    Every term is nonnegative.  The one subtraction, (m-l) P1 - P2, keeps at
    least half of its first term (k <= m - l), so it loses at most one bit.
    The weights and indices come from _Cells.crossing.
    """
    if len(g) < 4:
        return 0.0
    w1, w2, top, w_suffix, far_index, w_diag = cells.crossing
    rest = cells.rest[1:]  # m - d
    gd = g[2:]  # at the distance k or l = 2..m-1; g[0] and g[1] never enter
    P1 = np.concatenate(([0.0, 0.0], np.cumsum(w1 * gd)))
    P2 = np.concatenate(([0.0, 0.0], np.cumsum(w2 * gd)))
    near = np.dot(gd, rest * P1[top] - P2[top])
    # S[i] sums over l >= i + 2; for k = d, l runs from max(k, m - k) + 1
    S = np.concatenate((np.cumsum((w_suffix * gd)[::-1])[::-1], [0.0]))
    far = np.dot(gd, S[far_index])
    diag = np.dot(gd * gd, w_diag)
    return float(diag + 2.0 * (near + far))


def _check_cells(m: int) -> None:
    """Reject a grid of fewer than 1 or more than _MAX_CELLS cells."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if m > _MAX_CELLS:
        raise ValueError(f"m = {m} exceeds the grid ceiling of {_MAX_CELLS} cells")


def _check_word(word: Word) -> None:
    """Reject the empty word, a time letter, or an even length above 4."""
    letters = word.letters
    if not letters or any(x == 0 for x in letters):
        raise ValueError(
            f"approximation values are defined for pure-fBm words, got word ({word})")
    if len(letters) % 2 == 0 and len(letters) > 4:
        raise ValueError(f"word length capped at 4 (grid approximation), got word ({word})")


def approx_expected_word(word: Word, H: float, m: int) -> float:
    """Exact expected iterated-integral coefficient of B^m for a pure-fBm word.

    The value is, per compatible matching, a sum over weakly increasing cell
    assignments c_1 <= ... <= c_2k: the piecewise-constant pairing density
    contributes prod H(2H-1) m^2 D[c_a][c_b], and the ordered volume inside
    the cell box is prod over tie runs of (1/m)^s / s!.  It is summed by tie
    pattern instead: each of the 2^(2k-1) patterns of runs, weighted by
    m^(-2k) / prod s!, leaves a strictly increasing chain of distinct cells,
    and each (pattern, matching) chain sum costs O(m); m is capped at
    _MAX_CELLS.  The chain sums read the prefix sums of the kernel, formed
    once per call (_ChainSums), and the arrays that depend on m only, built
    once per grid size (_cells): the chain weights, m - t and the crossing
    sum's weights and indices, kept for up to 64 grids of up to _MEMO_CELLS
    cells (at most 5 MiB).  The kernel's series powers are rows of one
    table of _POWER_ROWS rows (48 KiB, _series_powers).
    """
    check_hurst(H)
    _check_cells(m)
    _check_word(word)
    two_k = len(word.letters)
    if two_k % 2 != 0:
        return 0.0
    g = 0.5 * m ** (2.0 - 2.0 * H) * _second_differences(H, m)
    # (blocks, edges between blocks) -> summed weight; a pair inside one
    # block contributes the diagonal kernel value g[0]
    weights: dict = {}
    for key, run_weight, loops in _tie_table(word.letters):
        weights[key] = weights.get(key, 0.0) + run_weight * g[0] ** loops
    chain_sum = _ChainSums(g)
    total = sum(w * chain_sum(r, edges) for (r, edges), w in weights.items())
    return total * float(m) ** -two_k


# Only g[0] ** loops in a word's sum depends on H and m; the tie patterns and
# matchings behind it are enumerated once per word.  Only words of two or
# four letters reach the table (at most 24 rows each), so the bound holds
# every such word over three letters (9 + 81).
@functools.lru_cache(maxsize=256)
def _tie_table(letters: tuple[int, ...]) -> tuple:
    """(key, run_weight, loops) for each (tie pattern, compatible matching)
    of an even pure-fBm word, in enumeration order: key = (number of blocks,
    sorted (block pair, pair count) edges), run_weight = 1 / prod s! over
    the block sizes, loops = the pairs inside one block."""
    matchings_ = mt.compatible_matchings(Word(letters))
    table = []
    for cuts in itertools.product((0, 1), repeat=len(letters) - 1):
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
            table.append(((len(sizes), tuple(sorted(edges.items()))), run_weight, loops))
    return tuple(table)


def _rounding_bar(approx: float, m: int) -> float:
    """Allowance for rounding in approx_expected_word(word, H, m) = approx.

    Every chain sum adds nonnegative terms, so the recursive-summation bound
    (n - 1) u sum |x_i| = (n - 1) u |value| holds for each sum of n terms,
    u = 2^-53, and the bounds of nested sums add.  The deepest nestings are
    two prefix sums and a dot product (S = cumsum(G) in _ChainSums), 3m,
    and in _crossing_sum a prefix sum, whose error the one subtraction can
    triple (P2 <= (m-l) P1 / 2), and a dot product, 3m + m = 4m.  The 64 covers
    the kernel (within 5u of 30-digit mpmath per factor), the products and
    the sum over at most 24 (pattern, matching) terms.
    """
    return (4.0 * m + 64.0) * 2.0**-53 * abs(approx)


class GapResult(NamedTuple):
    """gap = |exact - approx|; err_bar adds the quadrature bar of the exact
    value and the rounding bar of approx."""

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
        rows.append((m, GapResult(abs(exact - approx), err + _rounding_bar(approx, m),
                                  exact, approx)))
    return tuple(rows)


@dataclass(frozen=True)
class SlopeFit:
    ok: bool
    slope: float
    residual: float
    reason: str = ""


def convergence_slope(rows) -> SlopeFit:
    """Least-squares slope of log(gap) versus log(m) over gap_rows output.

    Points whose gap sits below 10x the error bar (quadrature plus grid
    rounding) are refused so that noise is never fitted as signal; a
    degenerate fit is reported, not silently returned.
    """
    if len({m for m, _ in rows}) < 4:
        raise ValueError("need at least 4 distinct grid sizes to fit a rate")
    usable = [(m, g.gap) for m, g in rows if g.gap > 10.0 * g.err_bar]
    if len({m for m, _ in usable}) < 4:
        if all(g.gap <= 1e-14 for _, g in rows):
            reason = "gap identically zero"
        else:
            reason = "gaps at or below the error-bar noise floor"
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
    [0, T], shape (n_paths, m+1, d), row 0 identically zero: the running
    sums of the increments _fgn_increments draws for the same arguments,
    which are checked before the paths are allocated.  The increments are
    written into the paths and summed there, so no other array of them is
    held; the paths are a view of an (n_paths, d, m+1) array.
    Deterministic in the seed.
    """
    gamma = _fgn_gamma(H, m, d, n_paths, T)
    paths = np.zeros((n_paths * d, m + 1))  # one row per (path, coordinate)
    _fgn_into(gamma, seed, paths[:, 1:])
    np.cumsum(paths[:, 1:], axis=1, out=paths[:, 1:])
    return _as_paths(paths, d)


def _fgn_increments(H: float, m: int, d: int, n_paths: int, seed: int,
                    T: float = 1.0) -> np.ndarray:
    """The increments (fractional Gaussian noise) of n_paths independent
    d-dimensional fBm paths on the uniform m-grid of [0, T], shape
    (n_paths, m, d), after the checks of _fgn_gamma (see _fgn_into)."""
    gamma = _fgn_gamma(H, m, d, n_paths, T)
    out = np.empty((n_paths * d, m))
    _fgn_into(gamma, seed, out)
    return _as_paths(out, d)


def _fgn_into(gamma: np.ndarray, seed: int, out: np.ndarray) -> None:
    """Fill out, shape (rows, m), with rows of law N(0, S), S the Toeplitz
    covariance with first column gamma_0..gamma_{m-1}: the increments of
    fBm paths, one row per (path, coordinate) in path order.

    Each pair of rows is the circulant embedding (_circulant_fgn) of one
    complex row of 2m standard normals, for an odd row count the last row
    alone: O(m log m) per row at every m.  The ceil(rows / 2) complex rows
    are one draw from Generator(SFC64(seed)), taken in blocks of
    max(1, _DRAW_BLOCK // 4m) of them into one buffer; a Generator fills
    sequentially, so the blocks hold the normals of one draw, and each
    block is scaled and transformed in place and written into its rows of
    out.  Deterministic in the seed: the FFT calls no BLAS routine.
    """
    rows, m = out.shape
    scale = np.repeat(_circulant_scale(gamma), 2)
    pairs = -(-rows // 2)
    step = max(1, _DRAW_BLOCK // (4 * m))
    rng = np.random.Generator(np.random.SFC64(seed))
    z = np.empty((min(step, pairs), 4 * m))
    for r in range(0, pairs, step):
        w = z[:min(step, pairs - r)]
        rng.standard_normal(out=w)
        _circulant_fgn(scale, w.view(complex), out[2 * r:2 * (r + len(w))])


def _fgn_gamma(H: float, m: int, d: int, n_paths: int, T: float) -> np.ndarray:
    """gamma_0..gamma_m, the covariances of the increments on the uniform
    m-grid of [0, T], after the sampler's checks (_sample_scale)."""
    scale = _sample_scale(H, m, d, n_paths, T)
    return 0.5 * scale * _second_differences(H, m + 1)


def _sample_scale(H: float, m: int, d: int, n_paths: int, T: float) -> float:
    """The sampler's checks of its arguments, the last of them computing the
    covariance scale (T/m)^2H, which refuses T and is returned."""
    check_hurst(H)
    _check_cells(m)
    if n_paths < 1 or d < 1:
        raise ValueError("d and n_paths must be positive")
    return _covariance_scale(H, m, T)


def _as_paths(rows: np.ndarray, d: int) -> np.ndarray:
    """The (paths, columns, d) view of rows ordered by (path, coordinate)."""
    return rows.reshape(-1, d, rows.shape[1]).transpose(0, 2, 1)


def _covariance_scale(H: float, m: int, T: float) -> float:
    """(T/m)^2H, the scale of the increment covariance of fBm on the
    m-grid of [0, T]; ValueError unless T > 0 and the scale is a positive
    double."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    try:
        scale = (T / m) ** (2.0 * H)
    except OverflowError:
        scale = math.inf
    if not 0.0 < scale < math.inf:
        raise ValueError(f"T = {T} puts the covariance scale (T/m)^2H out of range")
    return scale


# Normals drawn per block (256 KB), whole complex rows of 4m doubles each.
# On a 2-vCPU x86 VM (_fgn_increments, medians of 31 calls, three repeats)
# 2^15 took 6.7-6.9 ms at 4096 x 64 against 7.3-7.6 ms for 2^13 and 2^14,
# and larger blocks were within noise of it there and at 2048 x 128,
# 8192 x 32, 2500 x 36 and 50 x 1536 while holding twice the memory.
_DRAW_BLOCK = 2**15


def _circulant_scale(gamma: np.ndarray) -> np.ndarray:
    """sqrt(lambda / 2m) for the eigenvalues lambda of the circulant matrix C
    with first row gamma_0..gamma_m, gamma_{m-1}..gamma_1 (Wood and Chan
    1994; Dietrich and Newsam 1997), one FFT of that row, which holds the
    Toeplitz matrix S with first column gamma[:m] as its leading block.

    Each computed lambda is within the FFT's rounding bar
    8 log2(2m) u sum|row| of the exact one (u = 2^-53): a radix-2 FFT adds
    at most about (1 + 4 sqrt 2) u of its entry at each of its log2(2m)
    stages (Higham 2002, section 24.1), and over seven H from 0.5001 to
    1 - 1e-13, T in {0.5, 1, 1.3} and 15 grids from m = 1 to 2^18 (primes
    among them), numpy's FFT measured at most 2.0 log2(2m) u sum|row| from
    a long-double one.  The fGn embedding is nonnegative definite for
    H >= 1/2, so a lambda in [-bar, 0) is rounding (near H = 1 on long
    grids, about -5e-17 of lambda_max) and is set to 0, a covariance change
    at rounding level; a lambda below -bar, or NaN, raises."""
    m = len(gamma) - 1
    lam = np.fft.hfft(gamma, 2 * m)  # real, since the row is symmetric
    if not np.all(lam >= 0.0):
        row_sum = 2.0 * np.abs(gamma).sum() - abs(gamma[0]) - abs(gamma[m])
        bar = 8.0 * math.log2(2 * m) * 2.0**-53 * row_sum
        if not np.all(lam >= -bar):
            raise RuntimeError("circulant embedding of the fGn covariance has an "
                               "eigenvalue below 0 or NaN")
        lam[lam < 0.0] = 0.0
    return np.sqrt(lam / (2 * m))


def _circulant_fgn(scale: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """Fill out, shape (rows, m), with rows of law N(0, S), S the Toeplitz
    matrix of the embedding, from complex standard normals w of shape
    (ceil(rows / 2), 2m), which are overwritten.  scale holds each s_k of
    _circulant_scale twice, for the real and the imaginary part of w_k, so
    that scaling is one product over w's doubles (a complex-by-real product
    would take a casting buffer on every call).

    y = FFT(s w) has E[y y^H] = 2C and E[y y^T] = 0, so the real and
    imaginary parts of the first m entries of each row of y are two
    independent rows of out (_into_pairs).
    """
    doubles = w.view(float)
    doubles *= scale
    np.fft.fft(w, out=w)
    _into_pairs(w[:, :out.shape[1]], out)


def _into_pairs(w: np.ndarray, out: np.ndarray) -> None:
    """Write the real parts of w's rows into out's even rows and their
    imaginary parts into its odd rows; for an odd row count of out the last
    imaginary part is dropped."""
    out[0::2] = w.real
    out[1::2] = w[:len(out) // 2].imag
