"""Weak approximation of fBm-driven SDEs: ODE solves along cubature paths,
a Monte-Carlo reference driven through the same integrator, and the shape of
the theoretical error bound.

The SDE dxi = sum_i V_i(xi) dB-hat^i (B-hat = time-augmented driver) is
approximated by sum_j lambda_j f(solution of dy = sum_i V_i(y) d omega-hat_j).
Both sides run through one batched piecewise-linear-driver integrator, so
comparisons isolate the choice of measure rather than the discretization.

The fields are the plain tuple (V_0, ..., V_d), V_0 pairing with time, and N
is len(x0).  A field is either a callable that maps states (B, N) to a value
that broadcasts to that shape, or, when it does not depend on the state, the
constant itself (a float or an (N,) array).  When no field is callable the
integrator skips RK4's stages and sums each piece's increments in closed
form, with endpoints bit-identical to RK4 on the same constants; a set that
mixes constants and callables runs RK4 with each constant wrapped.  The
observable f maps the (B, N) endpoints to B values, once per weak value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cubature import CubatureFormula, rescale_formula
from .expected import check_hurst
# sample_fbm_batch is bound here only for perfbench's tracer test, which
# expects the sampler in this namespace; the solves use the increments
from .gridapprox import _fgn_increments, sample_fbm_batch  # noqa: F401

__all__ = [
    "ErrorBoundParams",
    "BoundShape",
    "cubature_weak_value",
    "mc_weak_value",
    "error_bound_shape",
]

# RK4 steps per linear piece of the three cubature paths (three pieces each)
CUBATURE_STEPS_PER_PIECE = 64

# Doubles in one block of the summed solve (128 KB).  Measured on a 2-vCPU VM
# (medians of 41 in-process solves), 2^14 was the fastest of 2^13 to 2^16,
# or within 0.05 ms of it, at 4096 x 64 (2.0 ms), 8192 x 32, 2048 x 128,
# 7000 x 40, 20 x 1536 and 50 x 512 paths x steps; 2^16 took 4.1 ms at
# 4096 x 64, as its temporaries fall out of cache.  Over 520 in-process sde
# requests, 2^14 raised the peak RSS by 0.3 MB and 2^15 by 2.5 MB.
_SUM_BLOCK = 2**14

# a field: a callable of the (B, N) states, or a float or (N,) array
Field = Callable[[np.ndarray], object] | float | np.ndarray


def _checked_x0(fields: Sequence[Field], x0, steps_per_piece: int) -> np.ndarray:
    """The checks of _solve that need no driver; returns x0 as a float array."""
    if steps_per_piece < 1:
        raise ValueError("steps_per_piece must be >= 1")
    if len(fields) < 2:
        raise ValueError("need dimension >= 1 and at least fields (V_0, V_1)")
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim != 1 or len(x0) < 1:
        raise ValueError(f"x0 must be a non-empty 1-D vector, got shape {x0.shape}")
    return x0


def _summed_ends(fields: Sequence[Field], x0: np.ndarray, times: np.ndarray,
                 increments: np.ndarray, steps_per_piece: int, ends: np.ndarray,
                 bad: int) -> int:
    """_solve's endpoints, written into ends, for fields that are all
    constants; returns the first piece whose end is not finite on some path,
    or bad if none before it is (pieces from bad on are not summed).

    On piece j every RK4 stage has the slope k_j = V_0 + sum_i s_ij V_i, so
    each of its steps adds the same increment
    sixth_j (((k_j + (k_j + k_j)) + (k_j + k_j)) + k_j), and the endpoint is
    x0 plus those increments added in time order.

    Blocks of whole pieces of a block of paths hold at most _SUM_BLOCK
    doubles (more only when one piece of one path is longer), time-major:
    row 0 the carried state, then one row per step.  np.add.reduce along
    that leading axis of a C-contiguous array adds the rows one after
    another, so it does the loop's float additions in the loop's order.
    numpy sums pairwise along the fast axis, which time becomes in a block
    of one lane (one path with N = 1); such a block is accumulated instead.
    A non-finite state stays non-finite, so only a block whose end is not
    all finite is cumsummed to find its first piece end that is not, and
    the earliest over the blocks is returned.  The endpoints of a path do
    not depend on the blocks, so a batch may come in parts of paths.
    """
    v0, *spatial_fields = fields
    n_paths, n = len(increments), len(x0)
    dt = times[1:] - times[:-1]
    sixth = (dt / steps_per_piece / 6.0)[:, None, None, None]
    piece = steps_per_piece * n  # doubles per piece of one path
    width = max(1, min(len(dt), _SUM_BLOCK // piece))  # pieces per block
    rows = max(1, _SUM_BLOCK // (width * piece))  # paths per block
    for p in range(0, n_paths, rows):
        y = x0
        for j0 in range(0, min(len(dt), bad), width):
            w = increments[p:p + rows, j0:j0 + width].transpose(1, 0, 2)
            n_w, n_b = w.shape[:2]  # pieces and paths in this block
            slopes = w / dt[j0:j0 + width, None, None]
            k = v0
            for i, v in enumerate(spatial_fields):
                k = k + slopes[:, :, i, None] * v
            block = np.empty((1 + n_w * steps_per_piece, n_b, n))
            block[0] = y
            np.multiply(sixth[j0:j0 + width], (k + (k + k) + (k + k) + k)[:, None],
                        out=block[1:].reshape(n_w, steps_per_piece, n_b, n))
            if n_b * n > 1:
                y = np.add.reduce(block, axis=0)
            else:
                y = np.add.accumulate(block, axis=0)[-1]
            if not np.isfinite(y).all():
                np.cumsum(block, axis=0, out=block)
                finite = np.isfinite(block[steps_per_piece::steps_per_piece]).all(axis=(1, 2))
                bad = min(bad, j0 + int(np.argmin(finite)))
                break
        ends[p:p + rows] = y
    return bad


def _summed_solve(fields: Sequence[Field], x0: np.ndarray, times: np.ndarray,
                  n_paths: int, steps_per_piece: int, feed) -> np.ndarray:
    """Endpoints (n_paths, N) for fields that are all constants.  feed(solve)
    calls solve(first, increments) with the increments of paths first,
    first + 1, ..., part after part, until every path has been handed over;
    _summed_ends gives the same endpoints however the paths are split, and
    the first non-finite time over all paths is raised after the last part.
    """
    ends = np.empty((n_paths, len(x0)))
    bad = len(times) - 1

    def solve(first, increments):
        nonlocal bad
        bad = _summed_ends(fields, x0, times, increments, steps_per_piece,
                           ends[first:first + len(increments)], bad)

    feed(solve)
    if bad < len(times) - 1:
        raise RuntimeError(f"non-finite state at t={times[bad + 1]:g}")
    return ends


def _solve(fields: Sequence[Field], x0, times: Sequence[float], increments: np.ndarray,
           steps_per_piece: int) -> np.ndarray:
    """Endpoints (B, N) of dy = V_0(y) dt + sum_i V_i(y) d omega^i along B
    piecewise-linear drivers that share the breakpoints `times`;
    `increments` holds their spatial increments over each piece, shape
    (B, len(times) - 1, d).

    Classical RK4 with steps_per_piece steps on each linear piece, where the
    driver derivative increments[:, j] / dt_j is constant: the slope columns,
    the step fractions and the field pairing are set up once per piece, not
    once per stage.  Doubling steps_per_piece shrinks the error by ~16x
    (order 4).  Non-finite states abort, naming the time reached, rather
    than propagating silently.  When no field is callable the stages are
    skipped (_summed_solve), with the same endpoints bit for bit; constants
    among callables are wrapped.
    """
    x0 = _checked_x0(fields, x0, steps_per_piece)
    n_paths, _, d = increments.shape
    if len(fields) != d + 1:
        raise ValueError(
            f"path has {d} spatial coordinates but {len(fields) - 1} "
            "spatial fields were supplied"
        )
    if not any(map(callable, fields)):
        return _summed_solve(fields, x0, np.asarray(times, dtype=float), n_paths,
                             steps_per_piece, lambda solve: solve(0, increments))
    v0, *spatial_fields = (v if callable(v) else (lambda z, c=v: c) for v in fields)

    def slope(z):
        # the time slope is 1, and 1.0 * V_0(z) == V_0(z) bit for bit; fields'
        # return values are never updated in place (V_0 may return z itself)
        k = v0(z)
        for s, v in terms:
            k = k + s * v(z)
        return k

    y = np.broadcast_to(x0, (n_paths, len(x0))).copy()
    for j in range(len(times) - 1):
        dt = times[j + 1] - times[j]
        slopes = increments[:, j, :] / dt
        terms = [(slopes[:, i, None], v) for i, v in enumerate(spatial_fields)]
        h = dt / steps_per_piece
        half, sixth = 0.5 * h, h / 6.0
        for _ in range(steps_per_piece):
            k1 = slope(y)
            k2 = slope(y + half * k1)
            k3 = slope(y + half * k2)
            k4 = slope(y + h * k3)
            y = y + sixth * (k1 + (k2 + k2) + (k3 + k3) + k4)
        if not np.isfinite(y).all():
            raise RuntimeError(f"non-finite state at t={times[j + 1]:g}")
    return y


def _values(f: Callable, ends: np.ndarray) -> np.ndarray:
    """f evaluated once on the (paths, N) endpoints, as a float (paths,) array."""
    return np.asarray(f(ends), dtype=float).reshape(len(ends))


def cubature_weak_value(
    fields: Sequence[Field],
    f: Callable[[np.ndarray], np.ndarray],
    x0,
    formula: CubatureFormula,
    T: float,
) -> float:
    """Weighted combination sum_j lambda_j f(endpoint of the ODE along the
    rescaled cubature path omega_j); the paths are solved as one batch."""
    resc = rescale_formula(formula, T)
    ends = _solve(fields, x0, resc.times, np.diff(resc.spatial, axis=1),
                  CUBATURE_STEPS_PER_PIECE)
    total = 0.0
    for lam, v in zip(resc.weights, _values(f, ends)):
        total += lam * float(v)
    return total


def mc_weak_value(
    fields: Sequence[Field],
    f: Callable[[np.ndarray], np.ndarray],
    x0,
    H: float,
    T: float,
    n_paths: int,
    n_steps: int,
    seed: int,
    steps_per_piece: int = 1,
) -> tuple[float, float]:
    """Monte-Carlo reference: drive the same integrator along sampled fBm
    paths (piecewise-linear interpolation on the n_steps grid of [0, T]),
    given to it as the sampler's increments; no path positions are built.
    When no field is callable, each block of whole paths is summed as the
    sampler hands it over, while the sampler draws the next block, and the
    first non-finite time over all blocks is raised after the last one.

    By default the RK4 grid is the sample grid, one step per cell.  With
    m = n_steps, its local error ~ |d omega|^5 ~ (T/m)^(5H) sums to
    ~ m^(1-5H), which falls faster than the interpolation's own m^(-2H) for
    every H > 1/3.  Against closed-form endpoints (V_0 = y/2 with V_1 = y, and V_0 = 0 with
    V_1 = sin) over H in {0.55, 0.7, 0.9} and T in {0.5, 2}, the worst
    per-path relative error is 2.1e-2 at n_steps = 32, 3.0e-4 at 128 and
    4.2e-7 at 1536; the mean bias is at most 6.3e-4 relative, 0.012 of the
    standard error at 4000 paths.  Coarse grids pay: at n_steps = 4 and
    T = 2 the bias is 3-4% (0.04% with steps_per_piece = 4), so below 32
    steps pass steps_per_piece > 1 to sub-step each cell.

    Returns (estimate, standard error); deterministic in the seed.  Requires
    H > 1/2 (pathwise Young regime) and n_paths >= 2, since one path gives no
    standard error.  The standard error is NaN when f is non-finite on some
    path.
    """
    check_hurst(H)
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    x0 = _checked_x0(fields, x0, steps_per_piece)  # before the sample is drawn
    times = np.arange(n_steps + 1) * (T / n_steps)
    sample = (H, n_steps, len(fields) - 1, n_paths, seed, T)
    if any(map(callable, fields)):
        ends = _solve(fields, x0, times, _fgn_increments(*sample), steps_per_piece)
    else:
        ends = _summed_solve(fields, x0, times, n_paths, steps_per_piece,
                             lambda solve: _fgn_increments(*sample, on_paths=solve))
    vals = _values(f, ends)
    if not np.all(np.isfinite(vals)):
        return float(vals.mean()), math.nan
    # std squares the deviations, which underflow or overflow far inside the
    # double range; scaling by a power of two first is exact and avoids both.
    # The sum behind the mean overflows on finite values near the top of the
    # range, and only then is the mean taken from the scaled values too.
    _, e = np.frexp(np.max(np.abs(vals)))
    scaled = np.ldexp(vals, -e)
    with np.errstate(over="ignore"):
        mean = vals.mean()
    if not math.isfinite(mean):
        mean = np.ldexp(scaled.mean(), e)
    se = scaled.std(ddof=1) / math.sqrt(n_paths)
    return float(mean), float(np.ldexp(se, e))


# ---------------------------------------------------------------------------
# error-bound shape
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBoundParams:
    """Inputs of the weak-approximation error bound; K is derived from H."""

    M: float
    gamma: float
    d: int
    degree: int
    H: float

    def __post_init__(self):
        if not 0.0 < self.M < math.inf:
            raise ValueError(f"M must be positive and finite, got {self.M}")
        if not 0.0 <= self.gamma < 0.5:
            raise ValueError("gamma must lie in [0, 1/2)")
        if self.degree < 0:
            raise ValueError(f"cubature degree must be >= 0, got {self.degree}")
        check_hurst(self.H)

    @property
    def K(self) -> float:
        return math.sqrt(2.0 / (self.H * (2.0 * self.H - 1.0)))


class BoundShape(NamedTuple):
    value: float
    branch: str


_LOG2 = math.log(2.0)


def _logaddexp(x: float, y: float) -> float:
    """log(exp(x) + exp(y)) for finite x and y: numpy's logaddexp formula in
    scalar math, so the result is the same double."""
    if x == y:
        return x + _LOG2
    return max(x, y) + math.log1p(math.exp(-abs(x - y)))


def _entire_series(z: float, gamma: float) -> float:
    """sum_k z^k / (k!)^(1/2 - gamma); converges for every z when gamma < 1/2.

    Summed in log space (terms peak near k = z^(1/(1/2-gamma)) and can dwarf
    the float range); a value beyond double precision comes back as inf.
    """
    if z <= 0.0:
        return 1.0
    power = 0.5 - gamma
    logz = math.log(z)
    total_log = 0.0  # log of the k = 0 term
    k = 0
    while True:
        k += 1
        logt = k * logz - power * math.lgamma(k + 1)
        total_log = _logaddexp(total_log, logt)
        if total_log >= 709.0:
            return math.inf  # the log-sum never decreases
        if z / k**power < 1.0 and logt < total_log - 40.0:
            break
        if k > 5_000_000:
            raise RuntimeError("series failed to converge (gamma too close to 1/2?)")
    return math.exp(total_log)


def error_bound_shape(params: ErrorBoundParams, T: float) -> BoundShape:
    """Evaluate the error bound's shape with all unknown prefactors set to 1.

    T >= 1 branch:  T^((m+2)/2) (1 + M^((m+2)/2) S(d M K T))
    T < 1 branch:   T^(2H) + T^(H(m+2)/2) M^((m+2)/2) S(d M K T^H)
    where S is the entire series above.  A value beyond double precision
    comes back as inf.  Diagnostic output only: the true constants are
    unknown, so this is never a pass/fail oracle.
    """
    if not 0.0 < T < math.inf:
        raise ValueError(f"T must be positive and finite, got {T}")
    m2 = 0.5 * (params.degree + 2.0)
    try:
        if T >= 1.0:
            s = _entire_series(params.d * params.M * params.K * T, params.gamma)
            value = T**m2 * (1.0 + params.M**m2 * s)
        else:
            s = _entire_series(params.d * params.M * params.K * T**params.H, params.gamma)
            value = T ** (2.0 * params.H) + T ** (params.H * m2) * params.M**m2 * s
    except OverflowError:  # float ** raises here instead of returning inf
        value = math.inf
    return BoundShape(value, "T>=1" if T >= 1.0 else "T<1")
