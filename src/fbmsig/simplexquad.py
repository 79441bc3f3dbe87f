"""Deterministic quadrature for singular pair-kernel integrals over a simplex.

The object computed here is, for a perfect matching M of a subset of positions
{1, ..., n} and a kernel exponent e in (-1, 0),

    I(M) = integral over 0 < t_1 < ... < t_n < 1 of
           prod_{(a,b) in M} (t_b - t_a)**e  dt_1 ... dt_n,

unmatched positions carrying unit density (they are the time letters).

A matching's checks and its time reversal depend on the shape (n, M) only:
_shape builds the checked shape, and _shape_integral evaluates it at an
exponent.  matching_simplex_integral runs both on each call; expected_word
keeps each word's shapes in its per-word plan and calls only the second.

The integrand is first reduced exactly: any variable appearing in at most one
power factor is integrated out in closed form, splitting the term in two.
Which variable goes next, and where each term splits, depends on the
positions only, so the reduction runs once per shape (n, M) and per process.
It yields a plan in which every exponent is a pair (k, c) standing for
c + k e: a kernel factor starts at (1, 0), a free variable's interval at
(0, 1), and each integration adds 1 to c.  Every coefficient is the list of
(sign, exponent) steps that divided it.  What survives is a sum of
low-dimensional irreducible cores on the unit cube, the simplex mapped to it.
Each axis exponent sums the pairs of its Jacobian and of the factors it
collects, and which axes each factor spans depends on the core's positions
only, so the plan carries them too.  At an exponent e, every float that a
term reads is the correctly rounded c + k e of its pair (_exponent), so one
integrand gets the same floats wherever its core sits and the values do not
depend on the memos.

A separable core, whose every factor spans one axis, is a product of Beta
functions, closed in lgamma with a derived rounding bar.  A core with a link,
a factor over two or more axes, is evaluated on a tensor Gauss-Legendre grid
after absorbing every endpoint singularity into per-axis Beta-CDF
substitutions.  Each factor of a mapped core depends on a run of neighbouring
axes, so the tensor sum is contracted one axis at a time: a factor over
L >= 2 axes is one N**L link, and an axis is summed out once no later factor
reaches back to it, so a core costs its links' grids (N x N, or N**3 for four
pairs) rather than N**m points; a one-axis factor reads log(1 - x) from the
axis map, which is built once per (p, q, N), and a two-axis link's
log(1 - x_a x_b), which does not depend on the exponent, is built once per
pair of maps.  A core's value, closed or at both resolutions, depends on its
integrand only (its axis and span exponents), so it is read from a memo keyed
by it, which cores at different positions share.  The error estimate comes
from re-evaluating the linked cores at a finer resolution and the rounding
bars of the closed ones, plus, when time reversal t -> 1 - t maps M to a
different matching R(M), the gap |I(M) - I(R(M))|: the two integrals are
equal in exact arithmetic, and their gap shows error that is the same at
every resolution.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["QuadConfig", "CertifiedValue", "matching_simplex_integral"]

# Pairs per matching integral (expected_word's nonzero letters: twice this).
# Cores reach dimension len(pairs); four pairs leave spans over up to three
# axes (52 of the 105 matchings on eight positions), which _core_numeric
# contracts as N**3 links.
MAX_PAIRS = 4

# Gauss-Legendre points per core axis (the refinement run behind the error
# estimate adds 16).  Every axis is mapped through a Beta(p, q) CDF whose
# exponents are sized so that the mapped integrand has about SMOOTH
# derivatives at each endpoint, with q at most QCAP.
POINTS_PER_AXIS = 48
SMOOTH = 6.0
QCAP = 40


@dataclass(frozen=True)
class QuadConfig:
    """Quadrature tolerance: the largest accepted error estimate."""

    tol: float = 1e-6

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError(f"tolerance must be > 0, got {self.tol}")


class CertifiedValue(NamedTuple):
    """A value and a bound on its absolute error."""

    value: float
    error: float


def matching_simplex_integral(n: int, pairs, exponent: float) -> CertifiedValue:
    """Integral of prod (t_b - t_a)**exponent over the ordered n-simplex.

    pairs are 0-based disjoint (a, b) position pairs with a < b < n, and
    the exponent is a finite number above -1, where the integral converges.
    """
    exponent = float(exponent)
    if not -1.0 < exponent < math.inf:
        raise ValueError(f"exponent must be a finite number > -1, got {exponent}")
    shape = _shape(n, tuple((int(a), int(b)) for a, b in pairs))
    return _shape_integral(n, shape, exponent)


def _shape(n: int, pairs: tuple) -> tuple[tuple, tuple | None]:
    """The checked matching as 1-based pairs, and its time reversal R(M) as
    1-based pairs, or None when R(M) = M."""
    for a, b in pairs:
        if not 0 <= a < b < n:
            raise ValueError(f"pair {(a, b)} out of range for n={n}")
    flat = [p for ab in pairs for p in ab]
    if len(set(flat)) != len(flat):
        raise ValueError("pairs must be disjoint")
    if len(pairs) > MAX_PAIRS:
        raise ValueError(f"the deterministic scheme takes at most {MAX_PAIRS} pairs")
    ones = tuple((a + 1, b + 1) for a, b in pairs)
    # R(M) sorted by first position, the order compatible_matchings gives,
    # so that it shares the memo entry of the matching it equals
    mirrored = tuple(sorted((n + 1 - b, n + 1 - a) for a, b in ones))
    return ones, None if mirrored == tuple(sorted(ones)) else mirrored


def _shape_integral(n: int, shape, exponent: float) -> CertifiedValue:
    """matching_simplex_integral of a shape from _shape, at a float exponent."""
    ones, mirrored = shape
    res = _reduced_integral(n, ones, exponent)
    if mirrored is None:
        return res
    rev = _reduced_integral(n, mirrored, exponent)
    return CertifiedValue(res.value, res.error + abs(res.value - rev.value))


# ---------------------------------------------------------------------------
# exact reduction: integrate out every variable that appears in <= 1 factor
# ---------------------------------------------------------------------------
# While the reduction runs, a term is (steps, factors, variables): factors are
# (a, b, s) meaning (t_b - t_a)**s, with the integer sentinels 0 (t=0) and
# n+1 (t=1) allowed as endpoints; variables is the ordered tuple of surviving
# positions.  An exponent s is a pair (k, c) standing for c + k e, the kernel
# exponent e: a kernel factor starts at (1, 0), a free variable's interval at
# (0, 1), and each integration adds 1 to c.  The coefficient is 1.0 times
# each step's sign divided by the exponent that step produced.


class _Plan(NamedTuple):
    """The reduced terms of one shape, every exponent a pair (k, c) standing
    for c + k e.  A term is (steps, axes, spans), with steps the (sign,
    exponent) divisions of its coefficient.  Its core has m = len(axes)
    variables: axes holds, per axis, its exponent (the Jacobian exponent plus
    the exponents of the factors it collects), and spans the (axes, exponent)
    of each factor (1 - prod x_i)**s.  closed holds, per term, None for a
    core with a link (a span over two or more axes).  A separable core, whose
    every span covers one axis, is prod_i B(gam_i + 1, b_i + 1), b_i the sum
    of axis i's span exponents, and closed holds its (kg, cg, kb, cb) per
    axis: gam_i = cg + kg e and b_i = cb + kb e."""

    terms: tuple[tuple[tuple, tuple, tuple], ...]
    closed: tuple[tuple | None, ...]


def _parts(base: int, exponents) -> tuple[int, int]:
    """base plus the sum of the (k, c) exponents, as (k, c)."""
    return sum(k for k, _ in exponents), base + sum(c for _, c in exponents)


def _exponent(k: int, c: int, e: float) -> float:
    """c + k e, correctly rounded: k e is exact for k <= 2, so one addition
    rounds correctly, and fsum rounds a longer sum once."""
    return c + k * e if k <= 2 else math.fsum([c] + [e] * k)


# One plan per shape for the whole process.  The bound holds every shape of
# up to four pairs on eight positions (1107, which expected_tensor(H, 1, 8)
# asks; their plans hold 11.7 MB in tracemalloc, and those of the 344 shapes
# of up to three pairs on seven positions 2.2 MB).
@functools.lru_cache(maxsize=2048)
def _reduce_terms(n: int, pairs) -> _Plan:
    """The plan of the 1-based shape (n, pairs).  Each core's positions are
    relabelled 1..m with sentinels 0 and m+1, and under t_j = prod_{i>=j} x_i
      (t_b - t_a)**e = prod_{i>=b} x_i**e * (1 - prod_{a<=i<b} x_i)**e  (a>=1)
      (t_b - 0)**e   = prod_{i>=b} x_i**e
    plus the Jacobian prod x_i**(i-1), so every span is a run of
    neighbouring axes (up to three for four pairs)."""
    out = []
    factors = tuple((a, b, (1, 0)) for a, b in pairs)
    stack = [((), factors, tuple(range(1, n + 1)))]
    hi_sentinel = n + 1
    while stack:
        steps, fs, vs = stack.pop()
        if not vs:
            out.append((steps, fs, vs))
            continue
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
            out.append((steps, fs, vs))  # irreducible core
            continue
        i = vs.index(pick)
        lo = vs[i - 1] if i > 0 else 0
        hi = vs[i + 1] if i + 1 < len(vs) else hi_sentinel
        nvs = vs[:i] + vs[i + 1 :]
        if counts[pick] == 0:
            # free (time) variable: its integral contributes (t_hi - t_lo)
            stack.append((steps, fs + ((lo, hi, (0, 1)),), nvs))
            continue
        rest, target = [], None
        for f in fs:
            if target is None and pick in (f[0], f[1]):
                target = f
            else:
                rest.append(f)
        a, b, (k, c) = target
        s1 = (k, c + 1)
        if a == pick:
            splits = ((1.0, lo, b), (-1.0, hi, b))
        else:
            splits = ((1.0, a, hi), (-1.0, a, lo))
        for sgn, aa, bb in splits:
            if aa == bb:
                continue  # zero-width difference: the term vanishes
            stack.append((steps + ((sgn, s1),), tuple(rest) + ((aa, bb, s1),), nvs))
    terms, closed = [], []
    for steps, fs, vs in out:
        m = len(vs)
        idx = {0: 0, n + 1: m + 1} | {x: i + 1 for i, x in enumerate(vs)}
        axes, spans = [[] for _ in range(m)], []
        for a, b, s in fs:
            a, b = idx[a], idx[b]
            for i in range(b, m + 1):
                axes[i - 1].append(s)
            if a >= 1:
                spans.append((tuple(range(a - 1, b - 1)), s))
        axes = tuple(_parts(i, ax) for i, ax in enumerate(axes))
        terms.append((steps, axes, tuple(spans)))
        closed.append(None if any(len(ax) > 1 for ax, _ in spans) else
                      tuple(gam + _parts(0, [s for ax, s in spans if ax == (i,)])
                            for i, gam in enumerate(axes)))
    return _Plan(tuple(terms), tuple(closed))


def _q_for(e: float) -> int:
    """The Beta-map q that smooths an axis end carrying (1 - x)**e; e = inf
    stands for no such factor."""
    if e == math.inf:
        return 1
    if e <= -1.0:
        return QCAP
    return min(QCAP, max(1, math.ceil(SMOOTH / (e + 1.0))))


@functools.cache
def _gauss_legendre(N: int):
    """The N-point Gauss-Legendre rule mapped to [0, 1], as (nodes, log
    weights); read-only, since every core shares it."""
    x, w = np.polynomial.legendre.leggauss(N)
    u = 0.5 * (x + 1.0)
    log_w = np.log(0.5 * w)
    u.flags.writeable = False
    log_w.flags.writeable = False
    return u, log_w


def _binomial_tail(k: int, n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """P(Binomial(n, u) >= k) = sum_{j=k}^{n} C(n, j) u^j v^(n-j), v = 1 - u:
    a sum of n - k + 1 positive terms."""
    return sum(math.comb(n, j) * u**j * v ** (n - j) for j in range(k, n + 1))


@functools.cache
def _beta_axis(p: int, q: int, N: int):
    """The Beta(p, q)-CDF axis map x = I_u(p, q) on the N-point rule, as (log
    x, log x from the complementary CDF, log-Jacobian, log(1 - x) from that
    log x); read-only, since every core with these exponents shares it.

    For integer p and q, x = I_u(p, q) is the binomial tail of q terms and
    1 - x = I_{1-u}(q, p) the one of p terms.  The log-Jacobian is the Beta
    density plus the log node weight, with B(p, q) = 1 / (q C(p+q-1, q)).
    """
    u, log_w = _gauss_legendre(N)
    v = 1.0 - u
    n = p + q - 1
    x = np.clip(_binomial_tail(p, n, u, v), 1e-300, None)
    cx = np.clip(_binomial_tail(q, n, v, u), 1e-300, 1.0 - 1e-16)
    ljac = ((p - 1) * np.log(u) + (q - 1) * np.log1p(-u)
            + math.log(q * math.comb(n, q)) + log_w)
    log_x_c = np.log1p(-cx)
    axis = (np.log(x), log_x_c, ljac, np.log(-np.expm1(log_x_c)))
    for a in axis:
        a.flags.writeable = False
    return axis


# A two-axis link depends on its two axis maps and N, not on the exponent, so
# cores at every H share it.  A fresh-H six-letter table looks 30 up over 9 map
# pairs (18 grids at the two resolutions).  The maps change with H, so a
# stream of requests at fresh H keeps meeting new pairs: 120 over 320
# requests of the benchmark's exact workload.  A grid is 32 KB at N = 64 and
# 18 KB at N = 48.  Over that stream, in one process, 51% of lookups hit and
# peak RSS rose 1.2 MB with 32 grids (a six-letter table then builds 14 of
# its 30, and 18 from an empty memo), against 61% and 1.7 MB with 48, 65% and
# 2.1 MB with 64, 73% and 4.1 MB with 128, and 81% and 7.5 MB unbounded; a
# miss costs about 20 us.  Three-axis links (2 MB at N = 64) are built per
# core.
@functools.lru_cache(maxsize=32)
def _link_grid(pa: int, qa: int, pb: int, qb: int, N: int) -> np.ndarray:
    """log(1 - x_a x_b) on the N x N grid of two neighbouring axes with the
    Beta(pa, qa) and Beta(pb, qb) maps, each log x from the complementary
    CDF; read-only, since every two-axis link over these maps shares it."""
    s = _beta_axis(pa, qa, N)[1][:, None] + _beta_axis(pb, qb, N)[1]
    grid = np.log(-np.expm1(s))
    grid.flags.writeable = False
    return grid


# A linked core's value is a pure function of its integrand, and the
# matching integrals of one exponent share many cores, at different positions
# too.  At a fresh H, one six-letter level table looks 18 linked cores up and
# adds 15 entries, the 379 pure eight-letter words over {1, ..., 4} add 414,
# and expected_tensor(H, 1, 8) adds 787.  An entry measured about 650 bytes,
# so a full memo holds some 1.3 MB.  One word nearly fills it:
# 1,1,1,1,0,1,1,0,1,1 asks for 2038 distinct cores, so it keeps only the 10
# most recent earlier entries, and a table at the same H afterwards
# recomputes its cores.  The bound stays: it is sized for tables.
@functools.lru_cache(maxsize=2048)
def _core_numeric(gam, spans) -> tuple[float, float]:
    """Tensor Gauss-Legendre evaluation of the irreducible core prod_i
    x_i**gam[i] * prod over spans (1 - prod_{i in axes} x_i)**e on the unit
    cube, contracted one axis at a time: its values at POINTS_PER_AXIS + 16
    and at POINTS_PER_AXIS points per axis.  Only cores with a link reach
    it, a span over two or more axes; _beta_product closes the rest.

    Every axis takes the Beta(p, q)-CDF substitution x = I_u(p, q), p sized
    by its exponent and q by its negative and non-integer span exponents; the
    log x under each span comes from the complementary CDF, so it stays
    accurate where x is close to 1.  The integrand is a product of one
    length-N weight per axis (density, x**gam, node weight and every one-axis
    span (1 - x)**e) and one link per longer span, (1 - x_a ... x_b)**e on
    the N**(b-a+1) grid of its axes; links that end on the same axis add by
    broadcasting their trailing axes.  The sum over the N**m grid is a chain
    over the axes: the state holds the axes that a link still reaches back
    to, step b multiplies in the link ending on axis b and sums out the axes
    that no later span reaches, and for spans of at most two axes each step
    is one vector-matrix product or a sum.
    """
    neg = [0.0] * len(gam)
    crease = [math.inf] * len(gam)
    for axes, e in spans:
        if e < 0:
            for ax in axes:
                neg[ax] += e
        elif e != int(e):
            for ax in axes:
                crease[ax] = min(crease[ax], e)
    p = [max(1, math.ceil(SMOOTH / (g + 1.0))) for g in gam]
    q = [max(_q_for(n if n < 0 else math.inf), _q_for(c)) for n, c in zip(neg, crease)]
    # the state after step i spans axis i and every earlier axis that a span
    # ending after i reaches back to; keep[i] counts those earlier axes
    keep = [i - min([i] + [ax[0] for ax, _ in spans if ax[-1] > i])
            for i in range(len(gam))]
    values = []
    for N in (POINTS_PER_AXIS + 16, POINTS_PER_AXIS):
        maps = [_beta_axis(pi, qi, N) for pi, qi in zip(p, q)]
        logx = [log_x_c for _, log_x_c, _, _ in maps]
        logw = [ljac + g * log_x for (log_x, _, ljac, _), g in zip(maps, gam)]
        links = {}
        for axes, e in spans:
            if len(axes) == 1:
                logw[axes[0]] += e * maps[axes[0]][3]  # log(1 - x)
                continue
            if len(axes) == 2:
                a, b = axes
                link = _link_grid(p[a], q[a], p[b], q[b], N)
            else:
                s = logx[axes[0]]
                for ax in axes[1:]:
                    s = s[..., None] + logx[ax]
                link = np.log(-np.expm1(s))
            links[axes[-1]] = links.get(axes[-1], 0.0) + e * link
        v = np.exp(logw[0])
        for i in range(1, len(gam)):
            if not keep[i]:  # every open axis closes
                v = v.reshape(-1) @ np.exp(links[i]).reshape(-1, N) if i in links else v.sum()
            else:  # the leading axes that no later span reaches close
                closed = v.ndim - keep[i]
                v = v[..., None] * np.exp(links[i]) if i in links else v[..., None]
                v = v.reshape(N**closed, -1).sum(0).reshape(v.shape[closed:])
            v = v * np.exp(logw[i])
        values.append(float(v.sum()))
    return tuple(values)


# A closed core's value is a pure function of its integrand too, and the
# matching integrals of one exponent share it as they share linked cores.  At
# a fresh H, one six-letter level table makes 401 closures of 34 integrands,
# the 379 pure eight-letter words over {1, ..., 4} 592 of 91, and
# expected_tensor(H, 1, 8) 10409 of 300.  An entry is about 300 bytes; the
# bound holds the largest of these requests.
@functools.lru_cache(maxsize=512)
def _beta_product(e: float, axes) -> tuple[float, float]:
    """The separable core prod_i x_i**gam_i * (1 - x_i)**b_i on the unit
    cube at the kernel exponent e, each axis given as (kg, cg, kb, cb) for
    gam_i = cg + kg e and b_i = cb + kb e: prod_i B(gam_i + 1, b_i + 1), and
    a bound on its relative rounding error.

    Each lgamma argument x is the correctly rounded c + k e, so it is off by
    at most half an ulp u of itself and moves lgamma(x) by at most
    x |psi(x)| u / 2 <= (|lgamma(x)| + x + 1) u / 2 (for x < 40);
    math.lgamma adds at most 4 ulp of max(|lgamma(x)|, 1) (measured against
    mpmath: 2.9 ulp, and 2.8e-16 absolute near its zeros at 1 and 2).  So
    the log is off by at most 4.5 size u, size the sum of |lgamma(x)| + x +
    1, plus the half ulp of its own sum; exp and the product with a
    coefficient round twice more."""
    logs, size = [], 0.0
    for kg, cg, kb, cb in axes:
        for k, c, sign in ((kg, cg + 1, 1.0), (kb, cb + 1, 1.0), (kg + kb, cg + cb + 2, -1.0)):
            x = _exponent(k, c, e)
            lg = math.lgamma(x)
            logs.append(sign * lg)
            size += abs(lg) + x + 1.0
    return math.exp(math.fsum(logs)), (5.0 * size + 2.0) * 2.3e-16


# A matching integral is a pure function of its hashable key (n, 1-based
# pairs, exponent), so a repeat returns the identical value.  The bound keeps
# memory flat across requests that each draw a fresh H; one six-letter level
# table needs 75 entries, the eight-letter words 105 and expected_tensor(H, 1,
# 8) 1107, at about 270 bytes each.
@functools.lru_cache(maxsize=2048)
def _reduced_integral(n: int, pairs, exponent: float) -> CertifiedValue:
    """Sum of the reduced terms; the error estimate is the change of every
    linked core between POINTS_PER_AXIS and POINTS_PER_AXIS + 16 points plus
    the rounding bar of every closed one.

    Every float that a term reads is the correctly rounded c + k e of its
    plan's pair (_exponent), and each coefficient is 1.0 times sign /
    exponent, step by step.  A separable core is a product of Beta functions
    (_beta_product); a core with a link goes to _core_numeric."""
    plan = _reduce_terms(n, pairs)
    total = err = scale = 0.0
    for (steps, axes, spans), closed in zip(plan.terms, plan.closed):
        coeff = 1.0
        for sgn, (k, c) in steps:
            coeff = coeff * sgn / _exponent(k, c, exponent)
        if closed is not None:
            w, rel = _beta_product(exponent, closed)
            v = coeff * w
            err += rel * abs(v)
        else:
            hi, lo = _core_numeric(tuple(_exponent(k, c, exponent) for k, c in axes),
                                   tuple((ax, _exponent(k, c, exponent))
                                         for ax, (k, c) in spans))
            v = coeff * hi
            err += abs(v - coeff * lo)
        total += v
        scale += abs(v)
    return CertifiedValue(total, err + 1e-15 * scale)
