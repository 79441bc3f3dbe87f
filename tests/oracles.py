"""Independent oracles that only the tests use: a nested-quadrature signature
coefficient, an exhaustive sweep of the refined permutation-count bound, the
per-piece RK4 integrator that `fbmsig.sde._solve` must match bit for bit, the
closed-form endpoint of constant fields that it must match for those, the
normals behind a seed's draw in the sampler, the fold of every piece of a
path into the identity that `fbmsig.tensor.batch_grid_signatures` must match
bit for bit, the expected
signature of the grid interpolation of Brownian motion, which
`fbmsig.gridapprox.approx_expected_word` must approach as H -> 1/2, the
reduction with float exponents that `fbmsig.simplexquad._reduce_terms` plans
once per shape, the integrand of a core (per-axis exponents and spans) rebuilt
from its factors on every call, which `_reduce_terms` plans once per shape,
the Beta-map parameters of an integrand, the full-grid evaluation of a simplex
core that `fbmsig.simplexquad._core_numeric` contracts axis by axis, the
closed-form cell-pair kernel integrals, the Schur recursion for the Cholesky
factor of the fGn covariance (it locates where a broken kernel stops being
positive definite), the O(m^2) loop
and the four-fold brute force that `fbmsig.gridapprox._crossing_sum` replaces,
the words of one shuffle class, the per-call matching sum that
`fbmsig.expected._word_plan` builds once per word, and the term-by-term sum
of the error bound's series that `fbmsig.sde._entire_series` takes in
numpy chunks."""
from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from fbmsig import simplexquad as sq
from fbmsig.expected import QuadratureToleranceError, check_hurst
from fbmsig import gridapprox as ga
from fbmsig.gridapprox import _covariance_scale, _second_differences
from fbmsig.matchings import compatible_matchings, permutation_count, refined_count_bound
from fbmsig.tensor import Word


def signature_coeff_by_quadrature(
    times, spatial: np.ndarray, word: Word, points_per_segment: int = 2000
) -> float:
    """Iterated-integral coefficient of the time-augmented piecewise-linear
    path through (times, spatial), spatial of shape (len(times), d), by direct
    nested trapezoid quadrature, independent of the Chen-identity code path."""
    times = np.asarray(times, dtype=float)
    grids = []
    for j in range(len(times) - 1):
        g = np.linspace(times[j], times[j + 1], points_per_segment + 1)
        grids.append(g if j == 0 else g[1:])
    t = np.concatenate(grids)
    # piecewise-linear interpolation of every coordinate on the fine grid,
    # coordinate 0 being time itself
    coords = np.stack(
        [t] + [np.interp(t, times, spatial[:, c]) for c in range(spatial.shape[1])],
        axis=1,
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
            w = Word(letters)
            c = permutation_count(w)
            b = refined_count_bound(k, len(set(letters)))
            if c > b:
                bad.append((w, c, b))
    return bad


def _rk4_piece(fields, y: np.ndarray, slopes: np.ndarray, dt: float,
               steps: int) -> np.ndarray:
    """Classical one-step order-4 integration of dy = sum slopes_i V_i(y) over
    a single linear piece (the driver derivative is constant there)."""

    def g(state):
        acc = slopes[..., 0, None] * fields[0](state)
        for i in range(1, len(fields)):
            acc = acc + slopes[..., i, None] * fields[i](state)
        return acc

    h = dt / steps
    for _ in range(steps):
        k1 = g(y)
        k2 = g(y + 0.5 * h * k1)
        k3 = g(y + 0.5 * h * k2)
        k4 = g(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def rk4_solve_per_piece(fields, x0, times: np.ndarray, increments: np.ndarray,
                        steps_per_piece: int) -> np.ndarray:
    """The integrator in its per-piece form: a stage function that rebuilds
    the slope-weighted field sum, time slope 1.0 included, at every stage.
    increments[:, j] is each driver's spatial increment over piece j."""
    n_paths, _, d = increments.shape
    y = np.broadcast_to(np.asarray(x0, dtype=float), (n_paths, len(x0))).copy()
    for j in range(len(times) - 1):
        dt = times[j + 1] - times[j]
        slopes = np.empty((n_paths, d + 1))
        slopes[:, 0] = 1.0
        slopes[:, 1:] = increments[:, j, :] / dt
        y = _rk4_piece(fields, y, slopes, dt, steps_per_piece)
        if not np.all(np.isfinite(y)):
            raise RuntimeError(f"non-finite state at t={times[j + 1]:g}")
    return y


def closed_form_solve(fields, x0, times: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """The endpoint x0 + V_0 T + sum_i V_i B^i_T of constant fields along
    each driver, T = times[-1] - times[0] and B_T the driver's summed
    increments, added one term after another in that order."""
    ends = increments.sum(axis=1)
    y = np.asarray(x0, dtype=float) + fields[0] * (times[-1] - times[0])
    for i in range(1, len(fields)):
        y = y + fields[i] * ends[:, i - 1, None]
    return y


def sampler_normals(seed: int, n_paths: int, d: int, m: int) -> np.ndarray:
    """The standard normals behind the sampler's draw for a seed: one draw
    of shape (P, 4m) from Generator(SFC64(seed)), seen as the complex rows
    of the circulant embedding, shape (P, 2m), one per pair of rows,
    P = ceil(n_paths d / 2)."""
    rng = np.random.Generator(np.random.SFC64(seed))
    return rng.standard_normal((-(-n_paths * d // 2), 4 * m)).view(complex)


def circulant_end_weights(gamma: np.ndarray) -> np.ndarray:
    """c with w @ c = sum_{j<m} FFT(s w)_j for every w, s = _circulant_scale
    (gamma): c_k = s_k h_k, h_k = sum_{j<m} e^(-2 pi i j k / 2m), which is
    m at k = 0, 0 at the other even k, and 1 - i cot(pi k / 2m) at odd k.
    So the real and imaginary parts of w @ c are the ends of the pair of
    rows the sampler makes from w.

    Above k = m the cotangent is taken as -cot(pi (2m - k) / 2m): near
    k = 2m the argument pi k / 2m is within pi / 2m of pi, and the rounding
    of pi alone would move that distance by up to 1e-13 relative."""
    m = len(gamma) - 1
    k = np.arange(1, 2 * m, 2)
    heads = np.zeros(2 * m, dtype=complex)
    heads[0] = m
    heads[1::2] = 1.0 + np.sign(k - m) * 1j / np.tan(np.minimum(k, 2 * m - k)
                                                      * (np.pi / (2 * m)))
    return ga._circulant_scale(gamma) * heads


def endpoint_sum_bar(H: float, m: int, d: int, n_paths: int, seed: int,
                     T: float = 1.0) -> np.ndarray:
    """A bound, shape (n_paths, d), on the difference between the increments
    of _fgn_increments summed over the steps and sample_fbm_batch[:, -1] for
    the same arguments; u = 2^-53 and gamma_n = n u / (1 - n u).

    Both take the same blocks of normals through the same embedding, so the
    same increments, and differ only in the order of the m-term sum: the
    paths' running sum on one side, numpy's pairwise sum on the other.  Each
    is off by at most gamma_m times the sum of the terms' magnitudes, so the
    sides differ by at most 2 gamma_m of it, below 2.01 m u of it for
    m <= 4096.  A row drawn from other normals misses this bar by orders of
    magnitude."""
    inc = ga._fgn_increments(H, m, d, n_paths, seed, T)
    return 2.01 * m * 2.0**-53 * np.abs(inc).sum(axis=1)


def grid_signatures_from_identity(times, spatial: np.ndarray, depth: int) -> list[np.ndarray]:
    """batch_grid_signatures' levels by folding every piece's exponential
    into the identity with the full truncated tensor product, level l of the
    fold being 0 + sum_{p=0}^{l} lev[p] (x) ex[l-p] in that order."""
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


def brownian_grid_signature(m: int, d: int, depth: int) -> list[np.ndarray]:
    """E S(B^m) up to depth for Brownian motion B in R^d on [0, 1], B^m its
    piecewise-linear interpolation on m cells with time as letter 0: one
    array per level, shape (1, (d+1)^level), laid out as
    batch_grid_signatures' levels.  The cells' increments x = (1/m, X),
    X ~ N(0, I/m), are independent and identically distributed, and each
    cell's signature is exp(x), so Chen's identity gives E S = (E exp(x))^m
    in the truncated tensor algebra, taken here by repeated squaring.  Level
    n of E exp(x) is E x^(⊗n) / n!, and by Gaussian integration by parts
    E x^(⊗n) is E x^(⊗(n-1)) ⊗ mu plus, for each position j < n - 1,
    E x^(⊗(n-2)) with the covariance inserted at positions j and n - 1."""
    mu = np.zeros(d + 1)
    mu[0] = 1.0 / m
    cov = np.diag(np.r_[0.0, np.full(d, 1.0 / m)])
    moments = [np.ones(()), mu]
    for n in range(2, depth + 1):
        paired = np.multiply.outer(moments[n - 2], cov)
        moments.append(np.multiply.outer(moments[n - 1], mu)
                       + sum(np.moveaxis(paired, n - 2, j) for j in range(n - 1)))
    power = [x.ravel() / math.factorial(n) for n, x in enumerate(moments[:depth + 1])]

    def product(a, b):
        return [sum(np.multiply.outer(a[p], b[n - p]).ravel() for p in range(n + 1))
                for n in range(depth + 1)]

    levels = [np.ones(1)] + [np.zeros((d + 1) ** n) for n in range(1, depth + 1)]
    while m:
        if m & 1:
            levels = product(levels, power)
        power, m = product(power, power), m >> 1
    return [x.reshape(1, -1) for x in levels]


def reduce_terms_numeric(n: int, factors, variables):
    """Integrate out every variable that appears in at most one factor, with
    the exponents as floats: a list of (coeff, factors, variables) terms,
    factors being (a, b, e) for (t_b - t_a)**e with the sentinels 0 (t=0)
    and n+1 (t=1), variables the ordered surviving positions.  Exponents
    are carried exactly, as Fractions, so a factor's exponent after j
    integrations is float(Fraction(e) + j), the double nearest e + j, and
    each coefficient is 1.0 times sign / that double, step by step."""
    out = []
    stack = [(1.0, tuple((a, b, Fraction(e)) for a, b, e in factors), tuple(variables))]
    hi_sentinel = n + 1
    while stack:
        c, fs, vs = stack.pop()
        counts = dict.fromkeys(vs, 0)
        for a, b, _ in fs:
            if a in counts:
                counts[a] += 1
            if b in counts:
                counts[b] += 1
        pick = next((v for v in vs if counts[v] == 1), None)
        if pick is None:
            pick = next((v for v in vs if counts[v] == 0), None)
        if pick is None:
            # every variable integrated out, or an irreducible core
            out.append((c, tuple((a, b, float(e)) for a, b, e in fs), vs))
            continue
        i = vs.index(pick)
        lo = vs[i - 1] if i > 0 else 0
        hi = vs[i + 1] if i + 1 < len(vs) else hi_sentinel
        nvs = vs[:i] + vs[i + 1 :]
        if counts[pick] == 0:
            # free (time) variable: its integral contributes (t_hi - t_lo)
            stack.append((c, fs + ((lo, hi, Fraction(1)),), nvs))
            continue
        rest, target = [], None
        for f in fs:
            if target is None and pick in (f[0], f[1]):
                target = f
            else:
                rest.append(f)
        a, b, e = target
        e1 = e + 1
        if a == pick:
            splits = ((1.0, (lo, b, e1)), (-1.0, (hi, b, e1)))
        else:
            splits = ((1.0, (a, hi, e1)), (-1.0, (a, lo, e1)))
        for sgn, (aa, bb, ee) in splits:
            if aa == bb:
                continue  # zero-width difference: the term vanishes
            stack.append((c * sgn / float(e1), tuple(rest) + ((aa, bb, ee),), nvs))
    return out


def exponent_parts(f: float, e: float) -> tuple[int, int]:
    """(k, c) with c + k e = f, for a factor exponent f of the numeric
    reduction at the kernel exponent e: after j integrations a kernel
    exponent is e + j, and a time letter's is the whole number 1 + j."""
    return (0, int(f)) if f == int(f) else (1, round(f - e))


def axis_parts_direct(m: int, factors, e: float):
    """The integrand of an m-dim core, rebuilt from its factors on every call:
    per axis its exponent as (k, c) for c + k e (its Jacobian exponent plus
    its factors' exponents), and the (axes, exponent) spans as floats;
    `fbmsig.simplexquad._reduce_terms` plans which exponents add where once
    per shape.

    Positions are 1..m with sentinels 0 and m+1.  Under t_j = prod_{i>=j} x_i:
      (t_b - t_a)**e = prod_{i>=b} x_i**e * (1 - prod_{a<=i<b} x_i)**e  (a>=1)
      (t_b - 0)**e   = prod_{i>=b} x_i**e
    plus the Jacobian prod x_i**(i-1).
    """
    parts = [[0, i] for i in range(m)]  # Jacobian exponents, 0-based
    spans: list[tuple[tuple[int, ...], float]] = []
    for a, b, f in factors:
        if a == 0 and b == m + 1:
            continue
        start = max(b, 1)
        if b <= m:
            k, c = exponent_parts(f, e)
            for i in range(start, m + 1):
                parts[i - 1][0] += k
                parts[i - 1][1] += c
        if a >= 1:
            spans.append((tuple(range(a - 1, min(b - 1, m))), f))
    return [tuple(p) for p in parts], tuple(spans)


def axis_rules_direct(m: int, factors, e: float):
    """The per-axis exponents gam and the spans of axis_parts_direct, each
    exponent the correctly rounded c + k e, as `_reduced_integral` forms it:
    one integrand gives the same floats at any position."""
    parts, spans = axis_parts_direct(m, factors, e)
    return tuple(math.fsum([c] + [e] * k) for k, c in parts), spans


def beta_map_direct(gam, spans):
    """Per-axis Beta-map parameters (p, q) of a core integrand: p smooths the
    axis exponent, q every negative span exponent on the axis (summed) and the
    smallest non-integer positive one."""
    m = len(gam)
    neg = np.zeros(m)
    crease = np.full(m, np.inf)
    for axes, e in spans:
        if e < 0:
            for ax in axes:
                neg[ax] += e
        elif e != int(e):
            for ax in axes:
                crease[ax] = min(crease[ax], e)

    def q_for(e: float) -> int:
        if e == np.inf:
            return 1
        if e <= -1.0:
            return sq.QCAP
        return min(sq.QCAP, max(1, math.ceil(sq.SMOOTH / (e + 1.0))))

    p = [max(1, math.ceil(sq.SMOOTH / (g + 1.0))) for g in gam]
    q = [max(q_for(neg[i] if neg[i] < 0 else np.inf), q_for(crease[i])) for i in range(m)]
    return p, q


def core_numeric_full_grid(gam, spans, N: int) -> float:
    """A core integrand summed in log space over the whole N**m tensor grid:
    per-axis log-Jacobians (density, x**gam and node weight) plus
    e * log(1 - prod x) per span, broadcast to the full grid and exponentiated
    once."""
    m = len(gam)
    p, q = beta_map_direct(gam, spans)
    logx = []
    L = 0.0
    for i in range(m):
        shape = [1] * m
        shape[i] = N
        log_x, log_x_c, ljac = sq._beta_axis(p[i], q[i], N)[:3]
        logx.append(log_x_c.reshape(shape))
        L = L + (ljac + gam[i] * log_x).reshape(shape)
    for axes, e in spans:
        s = 0.0
        for ax in axes:
            s = s + logx[ax]
        L = L + e * np.log(-np.expm1(s))
    return float(np.exp(L).sum())


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
    second_diff = float(_second_differences(H, abs(i - j) + 1)[-1])
    return m**-two_h * second_diff / (two_h * (two_h - 1.0))


def cell_covariance_matrix(H: float, m: int) -> np.ndarray:
    """m x m matrix of cell-pair kernel integrals for one (H, m)."""
    check_hurst(H)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    r = np.abs(np.arange(m)[:, None] - np.arange(m)[None, :])
    two_h = 2.0 * H
    return _second_differences(H, m)[r] * (m**-two_h / (two_h * (two_h - 1.0)))


def fgn_cholesky_t(H: float, m: int, T: float) -> np.ndarray:
    """U = L^T, where L L^T = S is the Toeplitz covariance of the m increments
    of fBm over cells of width T/m, by the Schur recursion in O(m^2).

    S has first column gamma_k = (T/m)^2H (|k+1|^2H - 2|k|^2H + |k-1|^2H) / 2.
    The generators (a, b) satisfy S - Z S Z^T = a a^T - b b^T (Z the down
    shift); row k of U is a, after which a is shifted down one place and a
    hyperbolic rotation by rho = b[k+1] / a[k] zeroes b[k+1].  |rho| < 1 at
    every step exactly when S is positive definite, so anything else raises.
    """
    gamma = 0.5 * _covariance_scale(H, m, T) * _second_differences(H, m)
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


def crossing_sum_by_loop(g: np.ndarray) -> float:
    """Sum over cells d_0 < d_1 < d_2 < d_3 of g[d_2 - d_0] g[d_3 - d_1] in
    O(m^2): for each middle distance q = d_2 - d_1, the sum over
    b = d_1 - d_0 of C_q[b] C_q[m-1-q-b], where C_q are the prefix sums of
    g[q+1:]."""
    m = len(g)
    total = 0.0
    for q in range(1, m - 1):
        C = np.concatenate(([0.0], np.cumsum(g[q + 1 :])))
        total += float(np.dot(C, C[::-1]))
    return total


def crossing_sum_brute(g: np.ndarray) -> float:
    """The same sum over every 4-subset of the m cells, in O(m^4), summed
    exactly rounded."""
    return math.fsum(g[d2 - d0] * g[d3 - d1]
                     for d0, d1, d2, d3 in itertools.combinations(range(len(g)), 4))


def shuffle_class(letters) -> list[Word]:
    """Every distinct arrangement of the multiset of letters, as words: the
    class whose expected signatures sum to
    E prod_i (X^i)^(n_i) / n_i! for a path with increments X."""
    return [Word(p) for p in sorted(set(itertools.permutations(letters)))]


def expected_word_by_matchings(word: Word, H: float, config: sq.QuadConfig | None = None):
    """expected_word with every H-independent step redone on each call: the
    odd-letter test, the nonzero positions, the compatible matchings and,
    through matching_simplex_integral, each matching's checks and time
    reversal, summed in the same order."""
    check_hurst(H)
    c_H, exponent = H * (2.0 * H - 1.0), 2.0 * H - 2.0
    config = config or sq.QuadConfig()
    positions = word.nonzero_positions
    if any(c % 2 for c in Counter(x for x in word.letters if x != 0).values()):
        return sq.CertifiedValue(0.0, 0.0)
    if len(positions) > 2 * sq.MAX_PAIRS:
        raise ValueError(f"at most {2 * sq.MAX_PAIRS} nonzero letters supported, "
                         f"got word ({word})")
    n = len(word)
    if not positions:
        return sq.CertifiedValue(1.0 / math.factorial(n), 0.0)
    sub = Word(tuple(word.letters[i] for i in positions))
    k = len(positions) // 2
    value = 0.0
    error = 0.0
    for m in compatible_matchings(sub):
        pairs = [(positions[a], positions[b]) for a, b in m]
        res = sq.matching_simplex_integral(n, pairs, exponent)
        value += res.value
        error += res.error
    value *= c_H**k
    error *= c_H**k
    if error > config.tol:
        raise QuadratureToleranceError(word, value, error, config.tol)
    return sq.CertifiedValue(value, error)


_LOG2 = math.log(2.0)


def logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) for finite x and y: numpy's logaddexp formula in
    scalar math, so the result is the same double."""
    if x == y:
        return x + _LOG2
    return max(x, y) + math.log1p(math.exp(-abs(x - y)))


def entire_series_by_terms(z: float, gamma: float) -> float:
    """sum_k z^k / (k!)^(1/2 - gamma) summed one term at a time in log space,
    with the stop rules of `fbmsig.sde._entire_series`: inf once the log-sum
    reaches 709, a stop at the first k where z / k^(1/2-gamma) < 1 and the
    term lies 40 below the log-sum, and a refusal after 5000000 terms."""
    if z <= 0.0:
        return 1.0
    power = 0.5 - gamma
    logz = math.log(z)
    total_log = 0.0  # log of the k = 0 term
    k = 0
    while True:
        k += 1
        logt = k * logz - power * math.lgamma(k + 1)
        total_log = logaddexp(total_log, logt)
        if total_log >= 709.0:
            return math.inf  # the log-sum never decreases
        if z / k**power < 1.0 and logt < total_log - 40.0:
            break
        if k > 5_000_000:
            raise ValueError("series failed to converge")
    return math.exp(total_log)
