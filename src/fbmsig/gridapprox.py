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
costing O(m), so the grid can grow to 2^18 cells.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
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

_MAX_GRID = 4096
# approx_expected_word refuses grids of more cells than this; at the ceiling
# 1,1,1,1 takes about 0.2 s and 60 MiB, most of it the kernel's series powers
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


def _second_differences(H: float, r: np.ndarray) -> np.ndarray:
    """(r+1)^2H - 2 r^2H + (r-1)^2H for integer cell distances r, with the
    diagonal value 2 at r = 0: the integral of |x-y|^(2H-2) over two cells of
    the uniform m-grid r apart, up to the factor m^(-2H)/(2H(2H-1)).

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
    G[n] = g[1] + ... + g[n] and S = cumsum(G), to one-dimensional sums; the
    crossing pair (0,2),(1,3) is _crossing_sum.  Each costs O(m).
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
        return _crossing_sum(g)
    raise ValueError(f"no chain sum for edges {shape}")


def _crossing_sum(g: np.ndarray) -> float:
    """Sum over cells d_0 < d_1 < d_2 < d_3 of g[d_2 - d_0] g[d_3 - d_1].

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
    """
    m = len(g)
    if m < 4:
        return 0.0
    d = np.arange(2, m)  # the distance k or l; g[0] and g[1] never enter
    gd = g[2:]
    rest = (m - d).astype(float)
    P1 = np.concatenate(([0.0, 0.0], np.cumsum((d - 1.0) * gd)))
    P2 = np.concatenate(([0.0, 0.0], np.cumsum(0.5 * d * (d - 1.0) * gd)))
    top = np.minimum(d - 1, m - d)  # for l = d, the largest k of the first bullet
    near = np.dot(gd, rest * P1[top] - P2[top])
    # S[i] sums over l >= i + 2; for k = d, l runs from max(k, m - k) + 1
    S = np.concatenate((np.cumsum((0.5 * (rest - 1.0) * rest * gd)[::-1])[::-1], [0.0]))
    far = np.dot(gd, S[np.maximum(d, m - d) - 1])
    t = np.maximum(np.minimum(d - 1, m - d - 1), 0).astype(float)
    diag = np.dot(gd * gd, t * rest - 0.5 * t * (t + 1.0))
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
    _MAX_CELLS.
    """
    check_hurst(H)
    _check_cells(m)
    _check_word(word)
    two_k = len(word.letters)
    if two_k % 2 != 0:
        return 0.0
    g = 0.5 * m ** (2.0 - 2.0 * H) * _second_differences(H, np.arange(m))
    # (blocks, edges between blocks) -> summed weight; a pair inside one
    # block contributes the diagonal kernel value g[0]
    weights: dict = {}
    for key, run_weight, loops in _tie_table(word.letters):
        weights[key] = weights.get(key, 0.0) + run_weight * g[0] ** loops
    total = sum(w * _chain_sum(r, edges, g) for (r, edges), w in weights.items())
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
    matchings_ = mt.compatible_matchings(Word(letters, max(letters)))
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
    two prefix sums and a dot product (cumsum(G) in _chain_sum), 3m, and in
    _crossing_sum a prefix sum, whose error the one subtraction can triple
    (P2 <= (m-l) P1 / 2), and a dot product, 3m + m = 4m.  The 64 covers
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
    [0, T], shape (n_paths, m+1, d), row 0 identically zero: the cumulative
    sums of the blocks of increments _fgn_blocks yields for the same
    arguments, which it checks before the paths are allocated; one block is
    held at a time.  Deterministic in the seed for a fixed BLAS thread count.
    """
    with contextlib.closing(_fgn_blocks(H, m, d, n_paths, seed, T)) as blocks:
        paths = np.zeros((n_paths, m + 1, d))
        for first, increments in blocks:
            np.cumsum(increments, axis=1, out=paths[first:first + len(increments), 1:])
    return paths


def _fgn_increments(H: float, m: int, d: int, n_paths: int, seed: int,
                    T: float = 1.0) -> np.ndarray:
    """_fgn_blocks' increments gathered into one array, shape (n_paths, m, d)."""
    with contextlib.closing(_fgn_blocks(H, m, d, n_paths, seed, T)) as blocks:
        out = np.empty((n_paths, d, m))
        for first, increments in blocks:
            out[first:first + len(increments)] = increments.transpose(0, 2, 1)
    return out.transpose(0, 2, 1)


def _fgn_blocks(H: float, m: int, d: int, n_paths: int, seed: int, T: float = 1.0):
    """Check the arguments, then return a generator of the increments
    (fractional Gaussian noise) of n_paths independent d-dimensional fBm
    paths on the uniform m-grid of [0, T]: (first, increments) for runs of
    whole paths in path order, increments of shape (paths, m, d) holding
    paths first, first + 1, ... and valid until the next block is asked
    for.  Each row is of law N(0, S), S the Toeplitz covariance with first
    column gamma_0..gamma_{m-1}.

    Up to _CHOLESKY_STEPS steps a row of increments is z @ L^T, with L the
    LAPACK Cholesky factor of S and z m standard normals, taken from one
    (n_paths d, m) draw (_drawn_ahead) in blocks of whole paths,
    d * max(1, _DRAW_BLOCK // (m d)) rows, each multiplied as it arrives
    while the next is drawn.  The blocks never move: a product over another
    number of rows may differ in the last bit.  Longer grids use the
    circulant embedding (_circulant_fgn), O(m log m) per row, in one block.
    Deterministic in the seed for a fixed BLAS thread count: the product
    with L^T goes through BLAS, and how many threads split its sums moves
    the last bits of the Cholesky-branch increments.  Closing the generator
    joins the drawer thread.
    """
    check_hurst(H)
    if m > _MAX_GRID:
        raise ValueError(f"m capped at {_MAX_GRID}")
    if m < 1 or n_paths < 1 or d < 1:
        raise ValueError("m, d and n_paths must be positive")
    # gamma_0..gamma_m; the scale refuses T before any sample is drawn
    gamma = 0.5 * _covariance_scale(H, m, T) * _second_differences(H, np.arange(m + 1))

    def blocks():
        rng = np.random.default_rng(seed)
        # one row per (path, coordinate), in the order of a (n_paths, d, m) draw
        rows = n_paths * d
        if m > _CHOLESKY_STEPS:
            out = np.empty((rows, m))
            w = rng.standard_normal((rows - rows // 2, 4 * m)).view(complex)
            _circulant_fgn(gamma, w, out=out)
            yield 0, _as_paths(out, d)
            return
        factor_t = _fgn_factor(gamma[:m]).T
        step = d * max(1, _DRAW_BLOCK // (m * d))
        out = np.empty((min(rows, step), m))
        with contextlib.closing(_drawn_ahead(rng, rows, m, step)) as draws:
            for r, z in draws:
                np.matmul(z, factor_t, out=out[:len(z)])
                yield r // d, _as_paths(out[:len(z)], d)

    return blocks()


def _as_paths(rows: np.ndarray, d: int) -> np.ndarray:
    """The (paths, m, d) view of rows ordered by (path, coordinate)."""
    return rows.reshape(-1, d, rows.shape[1]).transpose(0, 2, 1)


def _drawn_ahead(rng: np.random.Generator, rows: int, m: int, step: int):
    """Yield (r, z) for each block of `step` rows of one (rows, m) standard
    normal draw from rng: z holds rows r, r + 1, ..., and the last block may
    be part-filled.  A Generator fills sequentially, so the blocks hold the
    normals of that one draw.

    From _AHEAD_BLOCKS blocks up, a background thread draws each block into
    one of two buffers while the caller uses the other (the fill releases
    the interpreter lock); fewer are drawn in turn into one buffer.  Either
    way z is valid until the next block is asked for.  An exception in the
    thread is raised in the caller; closing the generator stops the thread
    and joins it.
    """
    starts = range(0, rows, step)
    if len(starts) < _AHEAD_BLOCKS:
        block = np.empty((min(rows, step), m))
        for r in starts:
            rng.standard_normal(out=block[:rows - r])
            yield r, block[:rows - r]
        return
    buffers = np.empty((step, m)), np.empty((step, m))
    free, filled = threading.Semaphore(2), threading.Semaphore(0)
    failed = []
    stop = False

    def draw():
        try:
            for i, r in enumerate(starts):
                free.acquire()
                if stop:
                    return
                rng.standard_normal(out=buffers[i % 2][:rows - r])
                filled.release()
        except BaseException as exc:  # re-raised by the caller
            failed.append(exc)
            filled.release()

    drawer = threading.Thread(target=draw, name="fgn-draw", daemon=True)
    drawer.start()
    try:
        for i, r in enumerate(starts):
            filled.acquire()
            if failed:
                raise failed[0]
            yield r, buffers[i % 2][:rows - r]
            free.release()
    finally:
        stop = True
        free.release()
        drawer.join()


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


# Grids of up to this many steps apply the Cholesky factor: m = 128
# multiply-adds per normal at most, half of them on its zero triangle, cost
# less than drawing the second normal per step the circulant embedding needs.
# On a 2-vCPU x86 VM the embedding takes 13.3 ms for 4096 paths x 64 steps,
# the factor 7.4 ms; drawing its normals ahead (_drawn_ahead) took 8% more
# off the factor in a later interleaved comparison (6.7 against 6.1 ms).
_CHOLESKY_STEPS = 128

# Normals drawn per block on the Cholesky branch (256 KB), into one buffer,
# or two when drawn ahead.  On a 2-vCPU x86 VM (interleaved medians of 40
# calls, drawn in turn) one (rows, m) draw took 6.3-6.5 ms at 4096 x 64 and
# 8192 x 32 and 7.4 ms at 2048 x 128, blocks of 2^15 doubles 4.6-4.8 and
# 5.6 ms; 2^13, 2^14 and 2^16 were 0.2-1.0 ms slower than 2^15, and
# 2500 x 36 was within noise.
_DRAW_BLOCK = 2**15

# Blocks from which _drawn_ahead draws on a background thread.  Starting a
# thread that fills one block and joining it took 0.33 ms more than the
# fill alone on a 2-vCPU x86 VM.  Against the same blocks drawn in turn (in-process mc_weak_value, 61
# interleaved calls per shape), two blocks (2048 x 32) were faster ahead in
# 15 of 61 calls; three (five shapes of 32 and 40 steps) in 26-56 of 61, a
# coin flip with the host's load; four to eight (2500-4900 x 40 and
# 2048 x 128) in 40-58 of 61, by 3-22% in the median.  All with one BLAS
# thread: with OpenBLAS at two, its idle workers spin beside the drawer,
# and a many-path mc_weak_value took 14-26% longer drawn ahead than drawn
# in turn.
_AHEAD_BLOCKS = 4


def _fgn_factor(gamma: np.ndarray) -> np.ndarray:
    """L with L L^T = S, the Toeplitz matrix with first column gamma."""
    k = np.arange(len(gamma))
    try:
        return np.linalg.cholesky(gamma[abs(k[:, None] - k)])
    except np.linalg.LinAlgError:
        raise RuntimeError("fGn covariance is not positive definite") from None


def _circulant_fgn(gamma: np.ndarray, w: np.ndarray, out: np.ndarray) -> None:
    """Fill out, shape (rows, m), with rows of law N(0, S), S the Toeplitz
    matrix with first column gamma[:m], from complex standard normals w of
    shape (ceil(rows / 2), 2m), which are overwritten.

    S is the leading block of the circulant matrix C with first row
    gamma_0..gamma_m, gamma_{m-1}..gamma_1 (Wood and Chan 1994; Dietrich and
    Newsam 1997), whose eigenvalues lambda are one FFT of that row.  Then
    y = FFT(sqrt(lambda / 2m) w) has E[y y^H] = 2C and E[y y^T] = 0, so the
    real and imaginary parts of each row of w give two independent rows of
    out (for an odd row count the last imaginary part is dropped).  A
    negative or NaN lambda raises.
    """
    m = out.shape[1]
    lam = np.fft.hfft(gamma, 2 * m)  # real, since the row is symmetric
    if not np.all(lam >= 0.0):
        raise RuntimeError("circulant embedding of the fGn covariance has an eigenvalue "
                           "below 0 or NaN")
    w *= np.sqrt(lam / (2 * m))
    np.fft.fft(w, out=w)
    out[0::2] = w[:, :m].real
    out[1::2] = w[: len(out) // 2, :m].imag
