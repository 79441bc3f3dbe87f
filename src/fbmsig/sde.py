"""Weak approximation of fBm-driven SDEs: ODE solves along cubature paths,
a Monte-Carlo reference along sampled fBm paths, and the shape of the
theoretical error bound.

The SDE dxi = sum_i V_i(xi) dB-hat^i (B-hat = time-augmented driver) is
approximated by sum_j lambda_j f(solution of dy = sum_i V_i(y) d omega-hat_j).
With a callable field both sides run through one batched
piecewise-linear-driver integrator (RK4), so comparisons isolate the choice
of measure rather than the discretization.

The fields are the plain tuple (V_0, ..., V_d), V_0 pairing with time, and N
is len(x0).  A field is either a callable that maps states (B, N) to a value
that broadcasts to that shape, or, when it does not depend on the state, the
constant itself (a float or an (N,) array).  A constant of another shape is
refused before anything is drawn, and a callable whose value does not
broadcast to (B, N) at the first RK4 stage.  When no field is callable the
Chen series stops at level 1 and both sides take the exact endpoint
x0 + V_0 T + sum_i V_i B^i_T (_closed_form): the cubature paths from their
summed increments, the reference from B_T drawn from its law
N(0, T^2H I_d), with no path formed; a set that mixes constants and
callables runs RK4 with each constant wrapped.  The observable f maps the
(B, N) endpoints to B values, once per weak value.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .cubature import CubatureFormula, rescale_formula
from .expected import check_hurst
# sample_fbm_batch is bound here only for perfbench's tracer test, which
# expects the sampler in this namespace; the solves use the increments
from .gridapprox import _fgn_increments, _sample_scale, sample_fbm_batch  # noqa: F401

__all__ = [
    "ErrorBoundParams",
    "BoundShape",
    "cubature_weak_value",
    "mc_weak_value",
    "error_bound_shape",
]

# RK4 steps per linear piece of the three cubature paths (three pieces each)
CUBATURE_STEPS_PER_PIECE = 64

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
    for i, v in enumerate(fields):
        if not callable(v) and np.shape(v) not in ((), x0.shape):
            raise ValueError(f"constant field V_{i} must be a float or of shape "
                             f"{x0.shape}, got shape {np.shape(v)}")
    return x0


def _closed_form(fields: Sequence[Field], x0: np.ndarray, T: float,
                 ends: np.ndarray) -> np.ndarray:
    """Endpoints (B, N) of dy = V_0 dt + sum_i V_i d omega^i for fields that
    are all constants, each driver's B_T = omega_T - omega_0 in the rows of
    ends (B, d): the Chen series stops at level 1, so the endpoint is
    x0 + V_0 T + sum_i V_i B^i_T, added in that order.  Only the endpoint is
    formed, so a non-finite one raises naming T, where RK4 names the first
    piece whose end is not finite."""
    v0, *spatial_fields = fields
    y = x0 + v0 * T
    for i, v in enumerate(spatial_fields):
        y = y + ends[:, i, None] * v
    if not np.isfinite(y).all():
        raise RuntimeError(f"non-finite state at t={T:g}")
    return y


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
    than propagating silently.  When no field is callable the endpoints
    are _closed_form's, with B_T each driver's summed increments and
    T = times[-1] - times[0]; constants among callables are wrapped.
    """
    x0 = _checked_x0(fields, x0, steps_per_piece)
    n_paths, _, d = increments.shape
    if len(fields) != d + 1:
        raise ValueError(
            f"path has {d} spatial coordinates but {len(fields) - 1} "
            "spatial fields were supplied"
        )
    if not any(map(callable, fields)):
        return _closed_form(fields, x0, times[-1] - times[0], increments.sum(axis=1))
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
            if k1.shape != y.shape and not (k1.ndim <= 2 and all(
                    a in (1, b) for a, b in zip(k1.shape[::-1], y.shape[::-1]))):
                raise ValueError(f"field values of shape {k1.shape} do not broadcast "
                                 f"to the states' shape {y.shape}")
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
    """Monte-Carlo reference along sampled fBm paths (piecewise-linear
    interpolation on the n_steps grid of [0, T]).  When no field is
    callable each path's endpoint is _closed_form's, which depends on the
    path through B_T only, so B_T is drawn from its law N(0, T^2H I_d) as
    T^H times n_paths x d standard normals of Generator(SFC64(seed)), after
    the sampler's checks of its arguments (_sample_scale); the sample does
    not depend on n_steps, and no path is formed.  Otherwise RK4 runs on
    the whole increment array (_fgn_increments, the circulant embedding of
    one draw from Generator(SFC64(seed))); the sampler checks its
    arguments before the time grid is built.

    By default the RK4 grid is the sample grid, one step per cell.  With
    m = n_steps, its local error ~ |d omega|^5 ~ (T/m)^(5H) sums to
    ~ m^(1-5H), which falls faster than the interpolation's own m^(-2H) for
    every H > 1/3.  Against closed-form endpoints (V_0 = y/2 with V_1 = y,
    and V_0 = 0 with V_1 = sin) over H in {0.55, 0.7, 0.9} and T in
    {0.5, 2}, the worst per-path relative error is 1.5e-2 at n_steps = 32,
    3.0e-4 at 128 and 4.0e-7 at 1536; the mean bias is at most 4.7e-4
    relative, 0.012 of the standard error at 4000 paths.  Coarse grids
    pay: at n_steps = 4 and T = 2 the bias is up to 5.4% (0.07% with
    steps_per_piece = 4), so below 32 steps pass steps_per_piece > 1 to
    sub-step each cell.

    Returns (estimate, standard error); deterministic in the seed.  Requires
    H > 1/2 (pathwise Young regime) and n_paths >= 2, since one path gives no
    standard error.  The standard error is NaN when f is non-finite on some
    path.
    """
    check_hurst(H)
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 for a standard error, got {n_paths}")
    x0 = _checked_x0(fields, x0, steps_per_piece)  # before the sample is drawn
    d = len(fields) - 1
    if any(map(callable, fields)):
        # the sampler checks its arguments here, before the grid is built from them
        increments = _fgn_increments(H, n_steps, d, n_paths, seed, T)
        times = np.arange(n_steps + 1) * (T / n_steps)
        ends = _solve(fields, x0, times, increments, steps_per_piece)
    else:
        _sample_scale(H, n_steps, d, n_paths, T)
        rng = np.random.Generator(np.random.SFC64(seed))
        ends = _closed_form(fields, x0, T, T**H * rng.standard_normal((n_paths, d)))
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


# log k! = lgamma(k + 1) for the k < _LOG_FACTORIALS that most series reach,
# one read-only table of 8 KiB built on first use (never at import); the
# terms of a longer series compute theirs per chunk, uncached.
_LOG_FACTORIALS = 1024
# the series' terms are summed in chunks of at most this many (512 KiB an
# array), where the chunks of a refused series would double to 32 MiB
_MAX_CHUNK = 1 << 16
# a series still unfinished after this many terms is refused
_MAX_TERMS = 5_000_000


@functools.lru_cache(maxsize=1)
def _log_factorial_table(n: int) -> np.ndarray:
    """log k! for k = 0..n-1; read-only."""
    table = np.fromiter(map(math.lgamma, range(1, n + 1)), float, n)
    table.flags.writeable = False
    return table


def _log_factorials(lo: int, hi: int) -> np.ndarray:
    """log k! for k = lo..hi-1."""
    if hi <= _LOG_FACTORIALS:
        return _log_factorial_table(_LOG_FACTORIALS)[lo:hi]
    return np.fromiter(map(math.lgamma, range(lo + 1, hi + 1)), float, hi - lo)


def _entire_series(z: float, gamma: float) -> float:
    """sum_k z^k / (k!)^(1/2 - gamma); converges for every z when gamma < 1/2.

    Summed in log space (terms peak near k = z^(1/(1/2-gamma)) and can dwarf
    the float range); a value beyond double precision comes back as inf.
    The terms k = 1, 2, ... are taken in chunks, the first sized from the
    peak (at most 1023 terms) and each later one twice the last (at most
    _MAX_CHUNK): per chunk the log terms k log z - (1/2-gamma) log k! and
    their running log-sum (np.logaddexp.accumulate, seeded with the sum so
    far).  The sum stops at the first k where the log-sum reaches 709 (inf)
    or where z / k^(1/2-gamma) < 1 and the term lies 40 below the log-sum,
    the rule checked in scalar arithmetic at each k where the second part
    holds; so the value is the same double as a term-by-term loop's.  A
    series unfinished after _MAX_TERMS terms (gamma within about 1e-7 of 1/2)
    is refused with a ValueError.
    """
    if z <= 0.0:
        return 1.0
    power = 0.5 - gamma
    logz = math.log(z)
    total_log = 0.0  # log of the k = 0 term
    lo, size = 1, int(min(_LOG_FACTORIALS - 1, 2.0 * math.exp(min(logz / power, 7.0)) + 64))
    while lo <= _MAX_TERMS + 1:
        hi = min(lo + size, _MAX_TERMS + 2)
        logt = np.arange(lo, hi, dtype=float) * logz - power * _log_factorials(lo, hi)
        acc = np.logaddexp.accumulate(np.concatenate(([total_log], logt)))[1:]
        over = acc >= 709.0  # the log-sum never decreases
        end = int(over.argmax()) if over[-1] else len(acc)
        for i in np.flatnonzero(logt[:end] < acc[:end] - 40.0).tolist():
            if z / (lo + i) ** power < 1.0:
                return math.exp(acc[i])
        if end < len(acc):
            return math.inf
        total_log, lo, size = acc[-1], hi, min(2 * size, _MAX_CHUNK)
    raise ValueError(f"the error bound's series at z = {z!r} does not converge within "
                     f"{_MAX_TERMS} terms: --gamma {gamma!r} lies too close to 1/2")


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
